#include "tricount/core/artifacts.hpp"

#include <utility>
#include <vector>

#include "tricount/obs/analysis.hpp"
#include "tricount/obs/build_info.hpp"

namespace tricount::core {

namespace {

/// One superstep of the run: its name, phase tag, and per-rank samples.
struct Superstep {
  std::string name;
  const char* phase;  // "pre" or "tc"
  std::vector<PhaseSample> samples;
};

std::vector<Superstep> supersteps_of(const RunResult& result) {
  std::vector<Superstep> steps;
  for (std::size_t s = 0; s < result.num_steps(); ++s) {
    steps.push_back({result.per_rank[0].pre_steps[s].first, "pre",
                     result.step_samples(s)});
  }
  for (std::size_t s = 0; s < result.num_shifts(); ++s) {
    steps.push_back(
        {"shift " + std::to_string(s), "tc", result.shift_samples(s)});
  }
  return steps;
}

/// The analyzer-side view of this run, built without a JSON round-trip so
/// the inline report (`count --analyze`) and the trace annotations see
/// bit-identical numbers to a saved-then-reloaded artifact.
obs::analysis::RunReport report_of(const RunResult& result) {
  obs::analysis::RunReport report;
  report.ranks = result.ranks;
  report.grid_q = result.grid_q;
  report.algorithm = result.algorithm;
  report.overlap = result.overlap_enabled;
  report.chaos = result.chaos_enabled;
  report.vertices = static_cast<std::uint64_t>(result.num_vertices);
  report.edges = static_cast<std::uint64_t>(result.num_edges);
  report.triangles = static_cast<std::uint64_t>(result.triangles);
  report.model = result.model;
  for (const Superstep& step : supersteps_of(result)) {
    const PhaseBreakdown b = breakdown(step.samples);
    obs::analysis::Step out;
    out.name = step.name;
    out.phase = step.phase;
    out.overlapped = b.overlapped;
    out.declared_seconds = b.modeled_seconds(result.model);
    out.declared_comm_seconds = b.modeled_comm_seconds(result.model);
    for (const PhaseSample& sample : step.samples) {
      out.ranks.push_back({sample.compute_cpu_seconds, sample.comm_cpu_seconds,
                           sample.messages, sample.bytes, sample.ops});
    }
    report.steps.push_back(std::move(out));
  }
  report.metrics = build_run_snapshot(result);
  return report;
}

/// The `run` header of the metrics artifact and the message trace.
obs::json::Value run_json(const RunResult& result) {
  using obs::json::Value;
  Value run = Value::object();
  run.set("ranks", result.ranks);
  run.set("grid_q", result.grid_q);
  run.set("algorithm", result.algorithm);
  run.set("vertices", static_cast<std::uint64_t>(result.num_vertices));
  run.set("edges", static_cast<std::uint64_t>(result.num_edges));
  run.set("triangles", static_cast<std::uint64_t>(result.triangles));
  run.set("overlap", result.overlap_enabled);
  run.set("chaos", result.chaos_enabled);
  Value model = Value::object();
  model.set("alpha_seconds", result.model.alpha_seconds);
  model.set("beta_seconds_per_byte", result.model.beta_seconds_per_byte);
  run.set("model", std::move(model));
  return run;
}

/// The p×p comm matrix, one array of rows per traffic class. The chaos
/// classes hold the reliability overhead (retransmitted copies and acks).
obs::json::Value comm_matrix_json(const mpisim::CommMatrix& matrix) {
  using obs::json::Value;
  using Cell = mpisim::CommCell;
  const std::pair<const char*, std::uint64_t Cell::*> fields[] = {
      {"user_messages", &Cell::user_messages},
      {"user_bytes", &Cell::user_bytes},
      {"collective_messages", &Cell::collective_messages},
      {"collective_bytes", &Cell::collective_bytes},
      {"chaos_messages", &Cell::chaos_messages},
      {"chaos_bytes", &Cell::chaos_bytes}};
  Value out = Value::object();
  out.set("size", matrix.size());
  for (const auto& [name, member] : fields) {
    Value rows = Value::array();
    for (int s = 0; s < matrix.size(); ++s) {
      Value row = Value::array();
      for (int d = 0; d < matrix.size(); ++d) {
        row.push_back(matrix.at(s, d).*member);
      }
      rows.push_back(std::move(row));
    }
    out.set(name, std::move(rows));
  }
  return out;
}

}  // namespace

obs::analysis::RunReport build_run_report(const RunResult& result) {
  return report_of(result);
}

obs::Trace build_run_trace(const RunResult& result) {
  obs::Trace trace;
  trace.set_thread_name(0, "modeled");
  for (int r = 0; r < result.ranks; ++r) {
    trace.set_thread_name(r + 1, "rank " + std::to_string(r));
  }

  // Critical-path attribution for the annotations: which rank bounds each
  // superstep and how much slack every other rank has in its window.
  const obs::analysis::Analysis analysis =
      obs::analysis::analyze(report_of(result));

  double t_seconds = 0.0;  // aligned superstep start, same on every rank
  std::size_t step_index = 0;
  for (const Superstep& step : supersteps_of(result)) {
    const PhaseBreakdown b = breakdown(step.samples);
    const double step_seconds = b.modeled_seconds(result.model);
    const obs::analysis::StepAnalysis& sa = analysis.steps[step_index++];
    trace.add_complete(
        0, step.name, step.phase, t_seconds * 1e6, step_seconds * 1e6,
        {{"max_compute_seconds", b.max_compute_seconds},
         {"avg_compute_seconds", b.avg_compute_seconds},
         {"max_messages", static_cast<double>(b.max_messages)},
         {"max_bytes", static_cast<double>(b.max_bytes)},
         {"total_bytes", static_cast<double>(b.total_bytes)},
         {"bounding_rank", static_cast<double>(sa.bounding_rank)},
         {"imbalance", sa.imbalance}});
    for (std::size_t r = 0; r < step.samples.size(); ++r) {
      const PhaseSample& sample = step.samples[r];
      const int tid = static_cast<int>(r) + 1;
      const bool straggler = sa.bounding_rank == static_cast<int>(r);
      trace.add_complete(tid, step.name, "compute", t_seconds * 1e6,
                         sample.compute_cpu_seconds * 1e6,
                         {{"ops", static_cast<double>(sample.ops)},
                          {"slack_seconds", sa.slack_seconds[r]},
                          {"straggler", straggler ? 1.0 : 0.0}});
      const double comm_seconds =
          result.model.cost(sample.messages, sample.bytes) +
          sample.comm_cpu_seconds;
      if (comm_seconds > 0.0) {
        trace.add_complete(
            tid, step.name + " comm", "comm",
            (t_seconds + sample.compute_cpu_seconds) * 1e6, comm_seconds * 1e6,
            {{"messages", static_cast<double>(sample.messages)},
             {"bytes", static_cast<double>(sample.bytes)},
             {"slack_seconds", sa.slack_seconds[r]},
             {"straggler", straggler ? 1.0 : 0.0}});
      }
    }
    t_seconds += step_seconds;
  }
  return trace;
}

obs::Snapshot build_run_snapshot(const RunResult& result) {
  obs::Registry registry;

  const KernelCounters kernel = result.total_kernel();
  registry.counter("kernel.intersection_tasks").set(kernel.intersection_tasks);
  registry.counter("kernel.lookups").set(kernel.lookups);
  registry.counter("kernel.hits").set(kernel.hits);
  registry.counter("kernel.probes").set(kernel.probes);
  registry.counter("kernel.hash_builds").set(kernel.hash_builds);
  registry.counter("kernel.direct_builds").set(kernel.direct_builds);
  registry.counter("kernel.rows_visited").set(kernel.rows_visited);
  registry.counter("kernel.early_exits").set(kernel.early_exits);
  registry.counter("kernel.merge_calls").set(kernel.merge_calls);
  registry.counter("kernel.merge_steps").set(kernel.merge_steps);
  registry.counter("kernel.galloping_calls").set(kernel.galloping_calls);
  registry.counter("kernel.galloping_steps").set(kernel.galloping_steps);
  registry.counter("kernel.bitmap_calls").set(kernel.bitmap_calls);
  registry.counter("kernel.bitmap_tests").set(kernel.bitmap_tests);
  registry.counter("kernel.bitmap_builds").set(kernel.bitmap_builds);
  registry.counter("kernel.hash_calls").set(kernel.hash_calls);
  registry.counter("kernel.hash_lookups").set(kernel.hash_lookups);

  registry.gauge("phase.pre.modeled_seconds").set(result.pre_modeled_seconds());
  registry.gauge("phase.pre.modeled_comm_seconds")
      .set(result.pre_modeled_comm_seconds());
  registry.gauge("phase.tc.modeled_seconds").set(result.tc_modeled_seconds());
  registry.gauge("phase.tc.modeled_comm_seconds")
      .set(result.tc_modeled_comm_seconds());
  registry.gauge("phase.total.modeled_seconds")
      .set(result.total_modeled_seconds());
  registry.counter("phase.pre.ops").set(result.pre_ops());
  registry.counter("phase.tc.ops").set(result.tc_ops());

  mpisim::PerfCounters traffic;
  for (const mpisim::PerfCounters& c : result.per_rank_counters) traffic += c;
  registry.counter("comm.messages_sent").set(traffic.messages_sent);
  registry.counter("comm.bytes_sent").set(traffic.bytes_sent);
  registry.counter("comm.collective_messages_sent")
      .set(traffic.collective_messages_sent);
  registry.counter("comm.collective_bytes_sent")
      .set(traffic.collective_bytes_sent);
  registry.counter("comm.user_messages_sent").set(traffic.user_messages_sent());
  registry.counter("comm.user_bytes_sent").set(traffic.user_bytes_sent());
  registry.gauge("comm.cpu_seconds").set(traffic.comm_cpu_seconds);

  // Distribution of per-(rank, shift) compute times — the load-imbalance
  // signal of Table 3, as a histogram instead of a table.
  obs::Histogram& shift_compute =
      registry.histogram("tc.shift_compute_seconds", /*scale=*/1e-6);
  for (const RankStats& stats : result.per_rank) {
    for (const PhaseSample& s : stats.shifts) {
      shift_compute.observe(s.compute_cpu_seconds);
    }
  }

  // Overlap tallies; efficiency = hidden / network per overlapped
  // superstep. All zero on overlap-off runs.
  double hidden_total = 0.0;
  double exposed_total = 0.0;
  std::uint64_t overlap_steps = 0;
  obs::Histogram& efficiency =
      registry.histogram("tc.overlap.step_efficiency", /*scale=*/1e-3);
  for (std::size_t s = 0; s < result.num_shifts(); ++s) {
    const PhaseBreakdown b = breakdown(result.shift_samples(s));
    if (!b.overlapped) continue;
    overlap_steps += 1;
    const double network = result.model.cost(b.max_messages, b.max_bytes);
    const double hidden = b.hidden_seconds(result.model);
    hidden_total += hidden;
    exposed_total += network - hidden;
    if (network > 0.0) efficiency.observe(hidden / network);
  }
  registry.counter("tc.overlap.steps").set(overlap_steps);
  registry.gauge("tc.overlap.hidden_seconds").set(hidden_total);
  registry.gauge("tc.overlap.exposed_network_seconds").set(exposed_total);

  // Cetric's local/cut classification and wedge-traffic tallies (zero on
  // 2D runs); lint_metrics reconciles them against the comm-matrix user
  // rows, since all user traffic of a cetric run is cut-wedge traffic.
  const CetricRankCounters cet = result.total_cetric();
  registry.counter("tc.cetric.local_triangles").set(cet.local_triangles);
  registry.counter("tc.cetric.cut_triangles").set(cet.cut_triangles);
  registry.counter("tc.cetric.cut_wedges_sent").set(cet.cut_wedges_sent);
  registry.counter("tc.cetric.cut_wedge_messages_sent")
      .set(cet.cut_wedge_messages_sent);
  registry.counter("tc.cetric.cut_wedge_bytes_sent")
      .set(cet.cut_wedge_bytes_sent);
  registry.counter("tc.cetric.ghost_lists_fetched")
      .set(cet.ghost_lists_fetched);
  registry.counter("tc.cetric.ghost_list_entries").set(cet.ghost_list_entries);

  // Chaos tallies (zero on fault-free runs).
  const mpisim::ChaosCounters chaos = result.total_chaos();
  registry.counter("chaos.drops_injected").set(chaos.drops_injected);
  registry.counter("chaos.duplicates_injected").set(chaos.duplicates_injected);
  registry.counter("chaos.reorders_injected").set(chaos.reorders_injected);
  registry.counter("chaos.delays_injected").set(chaos.delays_injected);
  registry.gauge("chaos.delay_modeled_seconds").set(chaos.delay_modeled_seconds);
  registry.counter("chaos.acks_sent").set(chaos.acks_sent);
  registry.counter("chaos.retransmits").set(chaos.retransmits);
  registry.counter("chaos.duplicates_discarded").set(chaos.duplicates_discarded);
  registry.counter("chaos.out_of_order_stashed").set(chaos.out_of_order_stashed);
  registry.counter("chaos.crashes").set(chaos.crashes);
  registry.counter("chaos.recoveries").set(chaos.recoveries);
  registry.gauge("chaos.recovery_seconds").set(chaos.recovery_seconds);
  registry.counter("chaos.straggler_steps").set(chaos.straggler_steps);
  registry.gauge("chaos.straggler_injected_seconds")
      .set(chaos.straggler_injected_seconds);

  return registry.snapshot();
}

obs::json::Value build_run_metrics(const RunResult& result) {
  using obs::json::Value;
  Value root = Value::object();
  root.set("schema", obs::analysis::kMetricsSchema);
  // Build provenance travels at the top level, where diff_metrics ignores
  // unknown keys — artifacts stay comparable across builds.
  root.set("build", obs::build_info_json());
  root.set("run", run_json(result));
  root.set("metrics", build_run_snapshot(result).to_json());

  Value steps = Value::array();
  for (const Superstep& step : supersteps_of(result)) {
    const PhaseBreakdown b = breakdown(step.samples);
    Value entry = Value::object();
    entry.set("phase", step.phase);
    entry.set("name", step.name);
    entry.set("modeled_seconds", b.modeled_seconds(result.model));
    entry.set("modeled_comm_seconds", b.modeled_comm_seconds(result.model));
    entry.set("max_compute_seconds", b.max_compute_seconds);
    entry.set("avg_compute_seconds", b.avg_compute_seconds);
    entry.set("max_messages", b.max_messages);
    entry.set("max_bytes", b.max_bytes);
    entry.set("total_bytes", b.total_bytes);
    entry.set("max_comm_cpu_seconds", b.max_comm_cpu_seconds);
    entry.set("overlapped", b.overlapped);
    Value rank_rows = Value::array();
    for (const PhaseSample& sample : step.samples) {
      Value row = Value::object();
      row.set("compute_seconds", sample.compute_cpu_seconds);
      row.set("comm_cpu_seconds", sample.comm_cpu_seconds);
      row.set("messages", sample.messages);
      row.set("bytes", sample.bytes);
      row.set("ops", sample.ops);
      rank_rows.push_back(std::move(row));
    }
    entry.set("per_rank", std::move(rank_rows));
    steps.push_back(std::move(entry));
  }
  root.set("steps", std::move(steps));

  root.set("comm_matrix", comm_matrix_json(result.comm_matrix));

  Value per_rank = Value::array();
  for (std::size_t r = 0; r < result.per_rank_counters.size(); ++r) {
    const mpisim::PerfCounters& c = result.per_rank_counters[r];
    // 2D runs keep no cetric tallies; their columns read zero.
    const CetricRankCounters cet = r < result.per_rank_cetric.size()
                                       ? result.per_rank_cetric[r]
                                       : CetricRankCounters{};
    Value entry = Value::object();
    entry.set("rank", static_cast<std::uint64_t>(r));
    entry.set("messages_sent", c.messages_sent);
    entry.set("bytes_sent", c.bytes_sent);
    entry.set("messages_received", c.messages_received);
    entry.set("bytes_received", c.bytes_received);
    entry.set("collective_messages_sent", c.collective_messages_sent);
    entry.set("collective_bytes_sent", c.collective_bytes_sent);
    entry.set("chaos_messages_sent", c.chaos_messages_sent);
    entry.set("chaos_bytes_sent", c.chaos_bytes_sent);
    entry.set("chaos_acks_sent", c.chaos_acks_sent);
    entry.set("cetric_local_triangles", cet.local_triangles);
    entry.set("cetric_cut_triangles", cet.cut_triangles);
    entry.set("cetric_cut_wedges_sent", cet.cut_wedges_sent);
    entry.set("cetric_cut_wedge_messages_sent", cet.cut_wedge_messages_sent);
    entry.set("cetric_cut_wedge_bytes_sent", cet.cut_wedge_bytes_sent);
    entry.set("cetric_ghost_lists_fetched", cet.ghost_lists_fetched);
    entry.set("cetric_ghost_list_entries", cet.ghost_list_entries);
    entry.set("comm_cpu_seconds", c.comm_cpu_seconds);
    per_rank.push_back(std::move(entry));
  }
  root.set("per_rank", std::move(per_rank));
  return root;
}

void write_run_trace(const RunResult& result, const std::string& path) {
  build_run_trace(result).write_file(path);
}

void write_run_metrics(const RunResult& result, const std::string& path) {
  obs::json::write_file(build_run_metrics(result), path);
}

obs::Trace build_run_msgtrace(const RunResult& result,
                              const obs::MsgTrace& trace) {
  using obs::json::Value;
  obs::Trace out = trace.trace();
  // The full run description the analyzer needs to pair measurements
  // with the α–β model.
  out.other_data().set("run", run_json(result));

  // The modeled step table: what the α–β model predicts per superstep,
  // so analyze_msgtrace can report measured-vs-modeled deltas without a
  // second artifact in hand.
  Value steps = Value::array();
  for (const Superstep& step : supersteps_of(result)) {
    const PhaseBreakdown b = breakdown(step.samples);
    Value entry = Value::object();
    entry.set("name", step.name);
    entry.set("phase", step.phase);
    entry.set("modeled_seconds", b.modeled_seconds(result.model));
    entry.set("modeled_comm_seconds", b.modeled_comm_seconds(result.model));
    entry.set("hidden_seconds", b.hidden_seconds(result.model));
    entry.set("overlapped", b.overlapped);
    steps.push_back(std::move(entry));
  }
  out.other_data().set("steps", std::move(steps));
  return out;
}

void write_run_msgtrace(const RunResult& result, const obs::MsgTrace& trace,
                        const std::string& path) {
  build_run_msgtrace(result, trace).write_file(path);
}

}  // namespace tricount::core
