// Table 6 — comparison with other distributed algorithms on the
// twitter(-like) graph: AOP (communication-avoiding, overlapping
// partitions), the space-efficient push-based approach ("Surrogate"),
// and the CETRIC-style communication-avoiding 1D counter
// (docs/cetric.md).
//
// The paper quotes the original papers' numbers across different
// machines; here all algorithms run on the same simulated host and
// rank count, so the comparison is apples-to-apples.
//
// Paper shape to reproduce: the 2D algorithm beats both 1D baselines;
// the cetric counter moves the fewest bytes.
#include "common.hpp"

#include "tricount/baselines/aop1d.hpp"
#include "tricount/baselines/push_based1d.hpp"
#include "tricount/cetric/cetric.hpp"

int main(int argc, char** argv) {
  using namespace tricount;

  util::ArgParser args("bench_table6_other_algorithms",
                       "Reproduces Table 6.");
  bench::add_common_options(args, /*default_scale=*/15, "16");
  args.add_option("algo", "all",
                  "comma-separated subset of algorithms to run: "
                  "2d, cetric, aop, push (default all)");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 1;

  const util::AlphaBetaModel model = bench::model_from_args(args);
  const kernels::KernelPolicy kernel = bench::kernel_from_args(args);
  const auto ranks_list = bench::ranks_from_args(args);
  const int p = ranks_list.empty() ? 16 : ranks_list.front();

  const std::string algo_spec = args.get("algo");
  const auto wants = [&](const std::string& name) {
    if (algo_spec.empty() || algo_spec == "all") return true;
    const std::string padded = "," + algo_spec + ",";
    return padded.find("," + name + ",") != std::string::npos;
  };

  const bench::Dataset dataset = {
      "twitter-like",
      graph::twitter_like_params(static_cast<int>(args.get_int("scale")) - 2)};
  const graph::EdgeList g = graph::rmat(dataset.params);

  bench::banner("Table 6: twitter-like graph vs other algorithms",
                "All algorithms on " + std::to_string(p) +
                    " simulated ranks; modeled parallel seconds "
                    "(counting phase and end-to-end).");

  core::RunOptions options;
  options.model = model;
  options.config.kernel = kernel;
  options.config.overlap = args.get_bool("overlap");
  options.chaos = bench::chaos_from_args(args, p);

  util::Table table({"algorithm", "count (ms)", "total (ms)", "ranks",
                     "comm bytes"});
  bench::JsonReport report("table6_other_algorithms");
  const auto run_bytes = [](const core::RunResult& r) {
    std::uint64_t bytes = 0;
    for (const auto& stats : r.per_rank) {
      bytes += stats.pre_total().bytes + stats.tc_total().bytes;
    }
    return bytes;
  };
  // Every algorithm that ran must agree on the count; the first one
  // establishes the expected value.
  std::uint64_t expected = 0;
  bool have_expected = false;
  bool mismatch = false;
  const auto check_count = [&](std::uint64_t triangles) {
    if (!have_expected) {
      expected = triangles;
      have_expected = true;
    } else if (triangles != expected) {
      mismatch = true;
    }
  };

  if (wants("2d")) {
    const core::RunResult ours = core::count_triangles_2d(g, p, options);
    check_count(ours.triangles);
    report.add_record(dataset, ours);
    table.row()
        .cell("Our work (2D Cannon)")
        .cell(ours.tc_modeled_seconds() * 1e3, 3)
        .cell(ours.total_modeled_seconds() * 1e3, 3)
        .cell(static_cast<std::int64_t>(p))
        .cell(run_bytes(ours));
  }
  if (wants("cetric")) {
    const core::RunResult cet = cetric::count_triangles_cetric(g, p, options);
    check_count(cet.triangles);
    report.add_record(dataset, cet);
    table.row()
        .cell("CETRIC-style (comm-avoiding 1D)")
        .cell(cet.tc_modeled_seconds() * 1e3, 3)
        .cell(cet.total_modeled_seconds() * 1e3, 3)
        .cell(static_cast<std::int64_t>(p))
        .cell(run_bytes(cet));
  }
  if (wants("aop")) {
    baselines::AopOptions aop_options;
    aop_options.model = model;
    aop_options.kernel = kernel;
    const core::RunResult aop =
        baselines::count_triangles_aop1d(g, p, aop_options);
    check_count(aop.triangles);
    report.add_record(dataset, aop);
    // AOP's count superstep excludes its ghost exchange, the "overlap"
    // pre step; the count column includes both.
    table.row()
        .cell("AOP (overlapping 1D)")
        .cell((core::breakdown(aop.step_samples(1)).modeled_seconds(model) +
               aop.tc_modeled_seconds()) * 1e3,
              3)
        .cell(aop.total_modeled_seconds() * 1e3, 3)
        .cell(static_cast<std::int64_t>(p))
        .cell(run_bytes(aop));
  }
  if (wants("push")) {
    baselines::PushOptions push_options;
    push_options.model = model;
    push_options.kernel = kernel;
    const core::RunResult push =
        baselines::count_triangles_push1d(g, p, push_options);
    check_count(push.triangles);
    report.add_record(dataset, push);
    table.row()
        .cell("Surrogate (push-based 1D)")
        .cell(push.tc_modeled_seconds() * 1e3, 3)
        .cell(push.total_modeled_seconds() * 1e3, 3)
        .cell(static_cast<std::int64_t>(p))
        .cell(run_bytes(push));
  }
  if (!have_expected) {
    std::fprintf(stderr, "--algo '%s' selected no algorithms\n",
                 algo_spec.c_str());
    return 1;
  }
  if (mismatch) {
    std::fprintf(stderr, "COUNT MISMATCH between algorithms\n");
    return 1;
  }

  table.print();
  bench::maybe_write_csv(table, args.get("csv"));
  report.maybe_write(args.get("json"));
  std::printf("\ntriangles (all algorithms): %llu\n",
              static_cast<unsigned long long>(expected));
  return 0;
}
