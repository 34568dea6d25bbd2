// Randomized differential-test harness for the kernel subsystem: every
// kernel policy, on every graph family, under both enumeration schemes
// and several grid sizes, must produce exactly the serial references:
// the sorted-merge count, the per-vertex counts and the edge supports
// (the crediting sweeps make the count's row calls). On a mismatch the
// harness prints the generating seed and a ddmin-minimized edge list so
// the failure replays in isolation.
//
// The sweep is seeded (seed printed on failure); set TRICOUNT_FUZZ_SEED
// to rerun with a different seed, e.g.
//   TRICOUNT_FUZZ_SEED=12345 ./kernel_differential_test
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "test_seed.hpp"
#include "tricount/core/dist_truss.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/core/per_vertex.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/ktruss.hpp"
#include "tricount/graph/serial_count.hpp"

namespace tricount {
namespace {

using graph::EdgeList;
using graph::TriangleCount;
using test_support::fuzz_seed;

/// What a configuration computes: the triangle count, the per-vertex
/// counts (count_per_vertex_2d), or the edge supports (edge_supports_2d).
enum class Measure { kCount, kPerVertex, kSupport };

struct CaseConfig {
  kernels::KernelPolicy kernel = kernels::KernelPolicy::kAuto;
  core::Enumeration enumeration = core::Enumeration::kJIK;
  int ranks = 1;
  Measure measure = Measure::kCount;

  std::string describe() const {
    static constexpr const char* kMeasures[] = {"count", "pervertex",
                                                "support"};
    std::ostringstream out;
    out << "measure=" << kMeasures[static_cast<int>(measure)]
        << " kernel=" << kernels::to_string(kernel) << " enumeration="
        << (enumeration == core::Enumeration::kJIK ? "jik" : "ijk")
        << " ranks=" << ranks;
    return out.str();
  }
};

using Tallies = std::vector<TriangleCount>;

/// The ground truth every configuration is compared against: the serial
/// forward algorithm with the sorted-merge kernel, the serial per-vertex
/// counts, or the serial edge supports.
Tallies reference(const EdgeList& g, Measure measure) {
  switch (measure) {
    case Measure::kCount:
      return {graph::count_triangles_serial(graph::Csr::from_edges(g),
                                            graph::IntersectionKind::kList)};
    case Measure::kPerVertex:
      return graph::per_vertex_triangles(graph::Csr::from_edges(g));
    case Measure::kSupport:
      return graph::edge_supports(g);
  }
  return {};
}

Tallies case_tallies(const EdgeList& g, const CaseConfig& c) {
  core::RunOptions options;
  options.config.kernel = c.kernel;
  options.config.enumeration = c.enumeration;
  switch (c.measure) {
    case Measure::kCount:
      return {core::count_triangles_2d(g, c.ranks, options).triangles};
    case Measure::kPerVertex:
      return core::count_per_vertex_2d(g, c.ranks, options).counts;
    case Measure::kSupport:
      return core::edge_supports_2d(g, c.ranks, options);
  }
  return {};
}

bool mismatches(const EdgeList& g, const CaseConfig& c) {
  return case_tallies(g, c) != reference(g, c.measure);
}

/// "[a, b, ...]", or the first difference when `got` has `expected`'s
/// length and more than a few entries.
std::string describe_tallies(const Tallies& tallies, const Tallies& other) {
  std::ostringstream out;
  if (tallies.size() == other.size() && tallies.size() > 8) {
    const auto diff =
        std::mismatch(tallies.begin(), tallies.end(), other.begin());
    out << "[" << tallies.size() << " entries; entry "
        << (diff.first - tallies.begin()) << " = "
        << (diff.first != tallies.end() ? *diff.first : 0) << "]";
    return out.str();
  }
  out << "[";
  for (std::size_t at = 0; at < tallies.size(); ++at) {
    out << (at > 0 ? ", " : "") << tallies[at];
  }
  out << "]";
  return out.str();
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
  const Tallies expected = reference(minimized, c.measure);
  const Tallies got = case_tallies(minimized, c);
  std::ostringstream out;
  out << "MISMATCH seed=" << seed << " graph=" << graph_name << " "
      << c.describe() << "\n"
      << "expected=" << describe_tallies(expected, got)
      << " got=" << describe_tallies(got, expected) << "\n"
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

/// Every policy x both enumerations x {1, 4, 16} ranks computes
/// `measure` on every differential graph exactly as the serial reference.
void expect_all_configurations_match(Measure measure) {
  const std::uint64_t seed = fuzz_seed();
  constexpr kernels::KernelPolicy kPolicies[] = {
      kernels::KernelPolicy::kAuto,      kernels::KernelPolicy::kMerge,
      kernels::KernelPolicy::kGalloping, kernels::KernelPolicy::kBitmap,
      kernels::KernelPolicy::kHash};
  constexpr core::Enumeration kEnumerations[] = {core::Enumeration::kJIK,
                                                 core::Enumeration::kIJK};
  constexpr int kRanks[] = {1, 4, 16};

  for (const NamedGraph& named : differential_graphs(seed)) {
    const Tallies expected = reference(named.graph, measure);
    for (const kernels::KernelPolicy kernel : kPolicies) {
      for (const core::Enumeration enumeration : kEnumerations) {
        for (const int ranks : kRanks) {
          const CaseConfig c{kernel, enumeration, ranks, measure};
          if (case_tallies(named.graph, c) != expected) {
            FAIL() << replay_report(named.graph, c, named.name, seed);
          }
        }
      }
    }
  }
}

TEST(KernelDifferential, AllConfigurationsMatchSerialMergeReference) {
  expect_all_configurations_match(Measure::kCount);
}

TEST(KernelDifferential, PerVertexCountsMatchSerialReference) {
  expect_all_configurations_match(Measure::kPerVertex);
}

TEST(KernelDifferential, EdgeSupportsMatchSerialReference) {
  expect_all_configurations_match(Measure::kSupport);
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
