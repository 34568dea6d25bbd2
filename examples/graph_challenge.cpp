// Graph-challenge style run: load a graph from a file (edge list or
// MatrixMarket), count its triangles with all four distributed algorithms
// (2D Cannon, AOP, push-based 1D, wedge counting), verify they agree, and
// report a comparison table. If no file is given, a sample graph is
// written and used so the example is runnable out of the box.
//
//   ./graph_challenge [--file path] [--ranks P]
#include <cstdio>
#include <string>
#include <utility>

#include "tricount/baselines/aop1d.hpp"
#include "tricount/baselines/push_based1d.hpp"
#include "tricount/baselines/wedge_counting.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/io.hpp"
#include "tricount/graph/serial_count.hpp"
#include "tricount/util/argparse.hpp"
#include "tricount/util/table.hpp"

int main(int argc, char** argv) {
  using namespace tricount;

  util::ArgParser args("graph_challenge",
                       "Compare all distributed algorithms on a graph file.");
  args.add_option("file", "", "edge list (.txt) or MatrixMarket (.mtx) file");
  args.add_option("ranks", "16", "simulated MPI ranks (perfect square)");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 1;

  std::string path = args.get("file");
  if (path.empty()) {
    // Self-contained mode: write a sample graph next to the binary.
    path = "graph_challenge_sample.mtx";
    graph::RmatParams params;
    params.scale = 11;
    params.edge_factor = 12;
    params.seed = 2026;
    graph::write_matrix_market(graph::rmat(params), path);
    std::printf("No --file given; wrote sample graph to %s\n", path.c_str());
  }

  const bool is_mtx = path.size() > 4 && path.substr(path.size() - 4) == ".mtx";
  const graph::EdgeList input = is_mtx ? graph::read_matrix_market(path)
                                       : graph::read_edge_list(path);
  const graph::EdgeList g = graph::simplify(input);
  const int ranks = static_cast<int>(args.get_int("ranks"));

  std::printf("graph: %s  (%u vertices, %zu edges)\n", path.c_str(),
              g.num_vertices, g.edges.size());

  const auto serial =
      graph::count_triangles_serial(graph::Csr::from_edges(g));

  // Every algorithm returns a core::RunResult, so one loop reports them.
  const std::pair<const char*, core::RunResult> runs[] = {
      {"2D Cannon (this paper)", core::count_triangles_2d(g, ranks)},
      {"AOP 1D (overlapping)", baselines::count_triangles_aop1d(g, ranks)},
      {"Push-based 1D (space-eff.)",
       baselines::count_triangles_push1d(g, ranks)},
      {"Wedge counting (Havoq-like)",
       baselines::count_triangles_wedge(g, ranks)},
  };

  util::print_heading("Algorithm comparison");
  util::Table table({"algorithm", "triangles", "modeled time (s)",
                     "comm bytes"});
  bool all_agree = true;
  for (const auto& [name, run] : runs) {
    all_agree = all_agree && run.triangles == serial;
    std::uint64_t bytes = 0;
    for (const auto& stats : run.per_rank) {
      bytes += stats.pre_total().bytes + stats.tc_total().bytes;
    }
    table.row()
        .cell(name)
        .cell(static_cast<std::uint64_t>(run.triangles))
        .cell(run.total_modeled_seconds(), 4)
        .cell(bytes);
  }
  table.print();

  std::printf("\nserial reference: %llu  -> %s\n",
              static_cast<unsigned long long>(serial),
              all_agree ? "ALL ALGORITHMS AGREE" : "MISMATCH DETECTED");
  return all_agree ? 0 : 1;
}
