// Randomized differential-test harness for the kernel subsystem: every
// kernel policy, on every graph family, under both enumeration schemes
// and several grid sizes, must produce exactly the serial sorted-merge
// reference count. On a mismatch the harness prints the generating seed
// and a ddmin-minimized edge list so the failure replays in isolation.
//
// The sweep is seeded (seed printed on failure); set TRICOUNT_FUZZ_SEED
// to rerun with a different seed, e.g.
//   TRICOUNT_FUZZ_SEED=12345 ./kernel_differential_test
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "test_seed.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/serial_count.hpp"

namespace tricount {
namespace {

using graph::EdgeList;
using graph::TriangleCount;
using test_support::fuzz_seed;

struct CaseConfig {
  kernels::KernelPolicy kernel = kernels::KernelPolicy::kAuto;
  core::Enumeration enumeration = core::Enumeration::kJIK;
  int ranks = 1;

  std::string describe() const {
    std::ostringstream out;
    out << "kernel=" << kernels::to_string(kernel) << " enumeration="
        << (enumeration == core::Enumeration::kJIK ? "jik" : "ijk")
        << " ranks=" << ranks;
    return out.str();
  }
};

/// The ground truth every configuration is compared against: the serial
/// forward algorithm with the sorted-merge kernel.
TriangleCount reference_count(const EdgeList& g) {
  return graph::count_triangles_serial(graph::Csr::from_edges(g),
                                       graph::IntersectionKind::kList);
}

TriangleCount case_count(const EdgeList& g, const CaseConfig& c) {
  core::RunOptions options;
  options.config.kernel = c.kernel;
  options.config.enumeration = c.enumeration;
  return core::count_triangles_2d(g, c.ranks, options).triangles;
}

bool mismatches(const EdgeList& g, const CaseConfig& c) {
  return case_count(g, c) != reference_count(g);
}

/// ddmin-style greedy minimization: repeatedly delete edge chunks (halving
/// the chunk size down to single edges) while the configuration still
/// disagrees with the serial reference on the reduced graph.
EdgeList minimize_counterexample(EdgeList g, const CaseConfig& c) {
  for (std::size_t chunk = std::max<std::size_t>(g.edges.size() / 2, 1);;) {
    bool removed = false;
    for (std::size_t at = 0; at < g.edges.size();) {
      EdgeList candidate = g;
      const auto begin = candidate.edges.begin() + static_cast<std::ptrdiff_t>(at);
      candidate.edges.erase(
          begin, begin + static_cast<std::ptrdiff_t>(
                             std::min(chunk, candidate.edges.size() - at)));
      if (mismatches(candidate, c)) {
        g = std::move(candidate);
        removed = true;
      } else {
        at += chunk;
      }
    }
    if (chunk == 1) {
      if (!removed) break;  // one full single-edge pass with no progress
    } else {
      chunk = chunk / 2;
    }
  }
  return g;
}

std::string replay_report(const EdgeList& g, const CaseConfig& c,
                          const std::string& graph_name, std::uint64_t seed) {
  const EdgeList minimized = minimize_counterexample(g, c);
  std::ostringstream out;
  out << "MISMATCH seed=" << seed << " graph=" << graph_name << " "
      << c.describe() << "\n"
      << "expected=" << reference_count(minimized)
      << " got=" << case_count(minimized, c) << "\n"
      << "minimized graph: n=" << minimized.num_vertices << " edges ("
      << minimized.edges.size() << "):\n";
  for (const graph::Edge& e : minimized.edges) {
    out << "  " << e.u << " " << e.v << "\n";
  }
  return out.str();
}

struct NamedGraph {
  std::string name;
  EdgeList graph;
};

/// One instance per family: skewed power-law (RMAT), a denser RMAT whose
/// hub rows give `auto` bitmap probes of kSimdProbeFloor ids and more
/// (the AVX2 probe), locally-clustered (Watts-Strogatz), the dense
/// extreme (clique), the sparse triangle-free extreme (star), and the
/// degenerate empty graph.
std::vector<NamedGraph> differential_graphs(std::uint64_t seed) {
  std::vector<NamedGraph> graphs;
  {
    graph::RmatParams params;
    params.scale = 7;
    params.edge_factor = 8;
    params.seed = seed;
    graphs.push_back({"rmat_s7", graph::rmat(params)});
  }
  {
    graph::RmatParams params;
    params.scale = 9;
    params.edge_factor = 16;
    params.seed = seed + 2;
    graphs.push_back({"rmat_s9_ef16", graph::rmat(params)});
  }
  graphs.push_back(
      {"watts_strogatz",
       graph::simplify(graph::watts_strogatz(140, 6, 0.2, seed + 1))});
  graphs.push_back({"clique", graph::simplify(graph::complete_graph(26))});
  graphs.push_back({"star", graph::simplify(graph::star_graph(48))});
  {
    EdgeList empty;
    empty.num_vertices = 11;
    graphs.push_back({"empty", empty});
  }
  return graphs;
}

TEST(KernelDifferential, AllConfigurationsMatchSerialMergeReference) {
  const std::uint64_t seed = fuzz_seed();
  constexpr kernels::KernelPolicy kPolicies[] = {
      kernels::KernelPolicy::kAuto,      kernels::KernelPolicy::kMerge,
      kernels::KernelPolicy::kGalloping, kernels::KernelPolicy::kBitmap,
      kernels::KernelPolicy::kHash};
  constexpr core::Enumeration kEnumerations[] = {core::Enumeration::kJIK,
                                                 core::Enumeration::kIJK};
  constexpr int kRanks[] = {1, 4, 16};

  for (const NamedGraph& named : differential_graphs(seed)) {
    const TriangleCount expected = reference_count(named.graph);
    for (const kernels::KernelPolicy kernel : kPolicies) {
      for (const core::Enumeration enumeration : kEnumerations) {
        for (const int ranks : kRanks) {
          const CaseConfig c{kernel, enumeration, ranks};
          const TriangleCount got = case_count(named.graph, c);
          if (got != expected) {
            FAIL() << replay_report(named.graph, c, named.name, seed);
          }
        }
      }
    }
  }
}

TEST(KernelDifferential, SerialKernelsMatchMergeReference) {
  const std::uint64_t seed = fuzz_seed();
  constexpr kernels::KernelPolicy kPolicies[] = {
      kernels::KernelPolicy::kAuto, kernels::KernelPolicy::kGalloping,
      kernels::KernelPolicy::kBitmap, kernels::KernelPolicy::kHash};
  for (const NamedGraph& named : differential_graphs(seed)) {
    const graph::Csr csr = graph::Csr::from_edges(named.graph);
    const TriangleCount expected =
        graph::count_triangles_serial(csr, graph::IntersectionKind::kList);
    for (const kernels::KernelPolicy kernel : kPolicies) {
      EXPECT_EQ(graph::count_triangles_kernel(csr, kernel), expected)
          << "seed=" << seed << " graph=" << named.name
          << " kernel=" << kernels::to_string(kernel);
    }
  }
}

}  // namespace
}  // namespace tricount
