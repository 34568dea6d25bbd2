// Table 5 — comparison with Havoq's wedge-based triangle counting: the
// wedge baseline's 2-core time and directed-wedge-counting time vs our
// triangle counting time, per dataset.
//
// Paper shape to reproduce: the 2D algorithm wins by roughly an order of
// magnitude on the triangle-dense graphs (paper: 6.2x-14.6x, avg 10.2x);
// friendster is the weak spot.
#include "common.hpp"

#include "tricount/baselines/wedge_counting.hpp"

int main(int argc, char** argv) {
  using namespace tricount;

  util::ArgParser args("bench_table5_havoq", "Reproduces Table 5.");
  bench::add_common_options(args, /*default_scale=*/14, "16");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 1;

  bench::banner("Table 5: vs wedge counting (Havoq-like)",
                "Both algorithms run on the same simulated rank count; "
                "times are modeled parallel seconds.");

  const util::AlphaBetaModel model = bench::model_from_args(args);
  const kernels::KernelPolicy kernel = bench::kernel_from_args(args);
  const auto ranks_list = bench::ranks_from_args(args);
  const int p = ranks_list.empty() ? 16 : ranks_list.front();

  util::Table table({"dataset", "2core (ms)", "wedge count (ms)",
                     "havoq total (ms)", "our tct (ms)", "speedup",
                     "wedges checked"});
  double speedup_sum = 0.0;
  int speedup_n = 0;
  for (const bench::Dataset& dataset :
       bench::paper_datasets(static_cast<int>(args.get_int("scale")))) {
    const graph::EdgeList g = graph::rmat(dataset.params);

    baselines::WedgeOptions wedge_options;
    wedge_options.model = model;
    const core::RunResult wedge =
        baselines::count_triangles_wedge(g, p, wedge_options);
    const double twocore = wedge.pre_modeled_seconds();
    const double wedge_time = wedge.tc_modeled_seconds();

    core::RunOptions options;
    options.model = model;
    options.config.kernel = kernel;
    options.config.overlap = args.get_bool("overlap");
    options.chaos = bench::chaos_from_args(args, p);
    const core::RunResult ours = core::count_triangles_2d(g, p, options);
    if (ours.triangles != wedge.triangles) {
      std::fprintf(stderr, "COUNT MISMATCH on %s\n", dataset.name.c_str());
      return 1;
    }
    const double havoq_total = twocore + wedge_time;
    const double our_tct = ours.tc_modeled_seconds();
    const double speedup = havoq_total / our_tct;
    speedup_sum += speedup;
    ++speedup_n;
    table.row()
        .cell(dataset.name)
        .cell(twocore * 1e3, 3)
        .cell(wedge_time * 1e3, 3)
        .cell(havoq_total * 1e3, 3)
        .cell(our_tct * 1e3, 3)
        .cell(speedup, 1)
        .cell(wedge.tc_ops());
  }
  table.print();
  bench::maybe_write_csv(table, args.get("csv"));
  std::printf("\naverage speedup over wedge counting: %.1fx "
              "(paper reports 10.2x on its testbed)\n",
              speedup_sum / speedup_n);
  return 0;
}
