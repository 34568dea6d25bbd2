#include "tricount/obs/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <utility>

#include "tricount/util/table.hpp"

namespace tricount::obs::analysis {

namespace {

constexpr const char* kBenchSchema = "tricount.bench.v1";

/// Relative disagreement test for the consistency check. Values that
/// round-tripped through our own JSON (%.17g) agree bit-for-bit, so any
/// miss beyond rounding noise means the artifact was edited or the
/// producer and analyzer formulas drifted apart.
bool disagrees(double declared, double recomputed, double tolerance) {
  const double diff = std::fabs(declared - recomputed);
  if (diff <= 1e-15) return false;
  return diff > tolerance * std::max(std::fabs(declared), std::fabs(recomputed));
}

}  // namespace

RunReport RunReport::from_metrics_json(const json::Value& root) {
  if (const json::Value* schema = root.find("schema");
      schema == nullptr || !schema->is_string() ||
      schema->as_string() != kMetricsSchema) {
    throw std::runtime_error(std::string("analysis: not a ") + kMetricsSchema +
                             " document");
  }
  RunReport report;
  const json::Value& run = root.get("run");
  report.ranks = static_cast<int>(run.get("ranks").as_uint());
  report.grid_q = static_cast<int>(run.get("grid_q").as_uint());
  report.algorithm = run.get("algorithm").as_string();
  report.overlap = run.get("overlap").as_bool();
  report.chaos = run.get("chaos").as_bool();
  report.vertices = run.get("vertices").as_uint();
  report.edges = run.get("edges").as_uint();
  report.triangles = run.get("triangles").as_uint();
  const json::Value& model = run.get("model");
  report.model.alpha_seconds = model.get("alpha_seconds").as_number();
  report.model.beta_seconds_per_byte =
      model.get("beta_seconds_per_byte").as_number();

  const json::Value& steps = root.get("steps");
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const json::Value& entry = steps.at(i);
    Step step;
    step.name = entry.get("name").as_string();
    step.phase = entry.get("phase").as_string();
    step.declared_seconds = entry.get("modeled_seconds").as_number();
    step.declared_comm_seconds = entry.get("modeled_comm_seconds").as_number();
    step.overlapped = entry.get("overlapped").as_bool();
    const json::Value& per_rank = entry.get("per_rank");
    for (std::size_t r = 0; r < per_rank.size(); ++r) {
      const json::Value& row = per_rank.at(r);
      RankSample sample;
      sample.compute_seconds = row.get("compute_seconds").as_number();
      sample.comm_cpu_seconds = row.get("comm_cpu_seconds").as_number();
      sample.messages = row.get("messages").as_uint();
      sample.bytes = row.get("bytes").as_uint();
      sample.ops = row.get("ops").as_uint();
      step.ranks.push_back(sample);
    }
    report.steps.push_back(std::move(step));
  }

  report.metrics = Snapshot::from_json(root.get("metrics"));
  return report;
}

Analysis analyze(const RunReport& report, double tolerance) {
  Analysis out;
  out.pre.phase = "pre";
  out.tc.phase = "tc";
  out.total.phase = "total";

  const std::size_t nranks =
      report.ranks > 0 ? static_cast<std::size_t>(report.ranks) : 0;
  std::vector<RankSummary> ranks(nranks);
  for (std::size_t r = 0; r < nranks; ++r) {
    ranks[r].rank = static_cast<int>(r);
  }
  std::vector<double> pre_compute(nranks, 0.0);
  std::vector<double> tc_compute(nranks, 0.0);
  double total_window = 0.0;

  for (const Step& step : report.steps) {
    StepAnalysis sa;
    sa.name = step.name;
    sa.phase = step.phase;

    // Mirror of core::breakdown + PhaseBreakdown::modeled_seconds: the
    // same maxes in the same association order, so per-phase window sums
    // reproduce the artifact's ppt/tct totals exactly.
    double max_compute = 0.0;
    double sum_compute = 0.0;
    double max_comm_cpu = 0.0;
    std::uint64_t max_messages = 0;
    std::uint64_t max_bytes = 0;
    for (const RankSample& s : step.ranks) {
      max_compute = std::max(max_compute, s.compute_seconds);
      sum_compute += s.compute_seconds;
      max_comm_cpu = std::max(max_comm_cpu, s.comm_cpu_seconds);
      max_messages = std::max(max_messages, s.messages);
      max_bytes = std::max(max_bytes, s.bytes);
    }
    sa.max_compute_seconds = max_compute;
    sa.avg_compute_seconds =
        step.ranks.empty()
            ? 0.0
            : sum_compute / static_cast<double>(step.ranks.size());
    // Overlap charges only the network time that exceeds the compute it
    // hid behind; `network - 0.0` is bit-identical to `network`, so a
    // non-overlapped window is exactly compute + network (mirror of
    // PhaseBreakdown::modeled_comm_seconds).
    const double network = report.model.cost(max_messages, max_bytes);
    const double hidden =
        step.overlapped ? std::min(max_compute, network) : 0.0;
    sa.overlapped = step.overlapped;
    sa.hidden_seconds = hidden;
    sa.overlap_efficiency = network > 0.0 ? hidden / network : 0.0;
    sa.comm_seconds = network - hidden + max_comm_cpu;
    sa.window_seconds = max_compute + sa.comm_seconds;
    sa.imbalance = sa.avg_compute_seconds > 0.0
                       ? sa.max_compute_seconds / sa.avg_compute_seconds
                       : 1.0;

    double min_slack = 0.0;
    for (std::size_t r = 0; r < step.ranks.size(); ++r) {
      const RankSample& s = step.ranks[r];
      // Overlapped: the rank's network time rides behind its compute, so
      // it occupies max(compute, network) plus the packing CPU a posted
      // request cannot hide. Per-rank network cost is monotone in the
      // per-component maxes, so slack stays non-negative.
      const double rank_network = report.model.cost(s.messages, s.bytes);
      const double used =
          step.overlapped
              ? std::max(s.compute_seconds, rank_network) + s.comm_cpu_seconds
              : s.compute_seconds + (rank_network + s.comm_cpu_seconds);
      const double slack = sa.window_seconds - used;
      sa.used_seconds.push_back(used);
      sa.slack_seconds.push_back(slack);
      if (sa.bounding_rank < 0 || slack < min_slack) {
        sa.bounding_rank = static_cast<int>(r);
        min_slack = slack;
      }
      if (r < nranks) {
        ranks[r].compute_seconds += s.compute_seconds;
        ranks[r].slack_seconds += slack;
        ranks[r].messages += s.messages;
        ranks[r].bytes += s.bytes;
        (step.phase == "pre" ? pre_compute : tc_compute)[r] +=
            s.compute_seconds;
      }
    }
    if (sa.bounding_rank >= 0 &&
        static_cast<std::size_t>(sa.bounding_rank) < nranks) {
      ++ranks[static_cast<std::size_t>(sa.bounding_rank)].steps_bounded;
    }

    PhaseAnalysis& phase = step.phase == "pre" ? out.pre : out.tc;
    phase.modeled_seconds += sa.window_seconds;
    phase.comm_seconds += sa.comm_seconds;
    total_window += sa.window_seconds;

    if (disagrees(step.declared_seconds, sa.window_seconds, tolerance)) {
      out.consistency_issues.push_back({"step '" + step.name +
                                            "' modeled_seconds",
                                        step.declared_seconds,
                                        sa.window_seconds});
    }
    if (disagrees(step.declared_comm_seconds, sa.comm_seconds, tolerance)) {
      out.consistency_issues.push_back({"step '" + step.name +
                                            "' modeled_comm_seconds",
                                        step.declared_comm_seconds,
                                        sa.comm_seconds});
    }
    out.steps.push_back(std::move(sa));
  }

  auto finish_phase = [&](PhaseAnalysis& phase,
                          const std::vector<double>& compute) {
    double max_c = 0.0;
    double sum_c = 0.0;
    for (const double c : compute) {
      max_c = std::max(max_c, c);
      sum_c += c;
    }
    phase.max_compute_seconds = max_c;
    phase.avg_compute_seconds =
        compute.empty() ? 0.0 : sum_c / static_cast<double>(compute.size());
    phase.imbalance = phase.avg_compute_seconds > 0.0
                          ? phase.max_compute_seconds / phase.avg_compute_seconds
                          : 1.0;
    phase.comm_fraction = phase.modeled_seconds > 0.0
                              ? phase.comm_seconds / phase.modeled_seconds
                              : 0.0;
  };
  finish_phase(out.pre, pre_compute);
  finish_phase(out.tc, tc_compute);

  out.total.modeled_seconds = out.pre.modeled_seconds + out.tc.modeled_seconds;
  out.total.comm_seconds = out.pre.comm_seconds + out.tc.comm_seconds;
  std::vector<double> total_compute(nranks, 0.0);
  for (std::size_t r = 0; r < nranks; ++r) {
    total_compute[r] = pre_compute[r] + tc_compute[r];
  }
  finish_phase(out.total, total_compute);

  for (RankSummary& r : ranks) {
    r.slack_fraction =
        total_window > 0.0 ? r.slack_seconds / total_window : 0.0;
  }
  std::sort(ranks.begin(), ranks.end(),
            [](const RankSummary& a, const RankSummary& b) {
              if (a.slack_seconds != b.slack_seconds) {
                return a.slack_seconds < b.slack_seconds;
              }
              return a.rank < b.rank;
            });
  out.ranks = std::move(ranks);

  // Phase totals declared by the artifact's gauges vs our re-derivation.
  auto check_gauge = [&](const char* name, double recomputed) {
    const auto it = report.metrics.gauges.find(name);
    if (it == report.metrics.gauges.end()) return;
    if (disagrees(it->second, recomputed, tolerance)) {
      out.consistency_issues.push_back({name, it->second, recomputed});
    }
  };
  check_gauge("phase.pre.modeled_seconds", out.pre.modeled_seconds);
  check_gauge("phase.pre.modeled_comm_seconds", out.pre.comm_seconds);
  check_gauge("phase.tc.modeled_seconds", out.tc.modeled_seconds);
  check_gauge("phase.tc.modeled_comm_seconds", out.tc.comm_seconds);
  check_gauge("phase.total.modeled_seconds", out.total.modeled_seconds);

  return out;
}

void print_report(const RunReport& report, const Analysis& analysis,
                  int top_stragglers) {
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = report.metrics.counters.find(name);
    return it == report.metrics.counters.end() ? 0 : it->second;
  };
  const auto gauge = [&](const char* name) {
    const auto it = report.metrics.gauges.find(name);
    return it == report.metrics.gauges.end() ? 0.0 : it->second;
  };

  util::print_heading("run");
  const std::string layout =
      report.grid_q > 0 ? "grid " + std::to_string(report.grid_q) + "x" +
                              std::to_string(report.grid_q)
      : report.algorithm == "summa" ? "rectangular grid"
                                    : "1D partition";
  std::printf("algorithm %s, ranks %d (%s), %llu vertices, %llu edges, %llu "
              "triangles\n",
              report.algorithm.c_str(), report.ranks, layout.c_str(),
              static_cast<unsigned long long>(report.vertices),
              static_cast<unsigned long long>(report.edges),
              static_cast<unsigned long long>(report.triangles));
  std::printf("model: alpha %.3g s/message, beta %.3g s/byte\n",
              report.model.alpha_seconds, report.model.beta_seconds_per_byte);

  util::print_heading("phases");
  {
    util::Table table({"phase", "modeled s", "comm s", "comm %", "max comp s",
                       "avg comp s", "imbalance"});
    for (const PhaseAnalysis* phase :
         {&analysis.pre, &analysis.tc, &analysis.total}) {
      table.row()
          .cell(phase->phase)
          .cell(phase->modeled_seconds, 6)
          .cell(phase->comm_seconds, 6)
          .cell(100.0 * phase->comm_fraction, 1)
          .cell(phase->max_compute_seconds, 6)
          .cell(phase->avg_compute_seconds, 6)
          .cell(phase->imbalance, 3);
    }
    table.print();
  }

  const PhaseAnalysis& dominant =
      analysis.tc.modeled_seconds >= analysis.pre.modeled_seconds ? analysis.tc
                                                                  : analysis.pre;
  const double dominant_pct =
      analysis.total.modeled_seconds > 0.0
          ? 100.0 * dominant.modeled_seconds / analysis.total.modeled_seconds
          : 0.0;
  std::printf("\nverdict: %s dominates (%.1f%% of modeled time), %s-bound "
              "(comm %.1f%% of that phase)",
              dominant.phase == "tc" ? "triangle counting" : "preprocessing",
              dominant_pct, dominant.comm_fraction > 0.5 ? "comm" : "compute",
              100.0 * dominant.comm_fraction);
  if (!analysis.ranks.empty()) {
    const RankSummary& straggler = analysis.ranks.front();
    std::printf("; top straggler rank %d (bounds %d of %zu supersteps, "
                "slack %.1f%% of run)",
                straggler.rank, straggler.steps_bounded,
                analysis.steps.size(), 100.0 * straggler.slack_fraction);
  }
  std::printf("\n");

  util::print_heading("stragglers (least slack first)");
  {
    util::Table table({"rank", "compute s", "slack s", "slack %",
                       "steps bounded", "messages", "bytes"});
    const std::size_t limit = std::min<std::size_t>(
        top_stragglers <= 0 ? analysis.ranks.size()
                            : static_cast<std::size_t>(top_stragglers),
        analysis.ranks.size());
    for (std::size_t i = 0; i < limit; ++i) {
      const RankSummary& r = analysis.ranks[i];
      table.row()
          .cell(static_cast<std::int64_t>(r.rank))
          .cell(r.compute_seconds, 6)
          .cell(r.slack_seconds, 6)
          .cell(100.0 * r.slack_fraction, 2)
          .cell(static_cast<std::int64_t>(r.steps_bounded))
          .cell(r.messages)
          .cell(r.bytes);
    }
    table.print();
  }

  util::print_heading("supersteps (critical path)");
  {
    // The overlap columns appear only when the artifact has overlapped
    // supersteps, so overlap-off reports render unchanged.
    bool any_overlap = false;
    for (const StepAnalysis& step : analysis.steps) {
      any_overlap = any_overlap || step.overlapped;
    }
    std::vector<std::string> headers = {"phase",         "name",
                                        "window s",      "comm s",
                                        "bounding rank", "min slack s",
                                        "imbalance"};
    if (any_overlap) {
      headers.push_back("hidden s");
      headers.push_back("overlap %");
    }
    util::Table table(std::move(headers));
    for (const StepAnalysis& step : analysis.steps) {
      const double min_slack =
          step.bounding_rank >= 0
              ? step.slack_seconds[static_cast<std::size_t>(step.bounding_rank)]
              : 0.0;
      table.row()
          .cell(step.phase)
          .cell(step.name)
          .cell(step.window_seconds, 6)
          .cell(step.comm_seconds, 6)
          .cell(static_cast<std::int64_t>(step.bounding_rank))
          .cell(min_slack, 6)
          .cell(step.imbalance, 3);
      if (any_overlap) {
        if (step.overlapped) {
          table.cell(step.hidden_seconds, 6)
              .cell(100.0 * step.overlap_efficiency, 1);
        } else {
          table.dash().dash();
        }
      }
    }
    table.print();
  }

  // Kernel mix: which intersection kernels the compute phase actually
  // ran, and each one's share of the elementary-operation total — the
  // attribution behind a `--kernel` comparison.
  {
    struct KernelRow {
      const char* name;
      const char* calls_key;
      const char* ops_key;
    };
    const KernelRow rows[] = {
        {"merge", "kernel.merge_calls", "kernel.merge_steps"},
        {"galloping", "kernel.galloping_calls", "kernel.galloping_steps"},
        {"bitmap", "kernel.bitmap_calls", "kernel.bitmap_tests"},
        {"hash", "kernel.hash_calls", "kernel.hash_lookups"},
    };
    std::uint64_t total_calls = 0;
    std::uint64_t total_ops = 0;
    for (const KernelRow& row : rows) {
      total_calls += counter(row.calls_key);
      total_ops += counter(row.ops_key);
    }
    if (total_calls > 0) {
      util::print_heading("kernel mix");
      util::Table table({"kernel", "calls", "ops", "calls %", "ops %"});
      for (const KernelRow& row : rows) {
        const std::uint64_t calls = counter(row.calls_key);
        if (calls == 0 && counter(row.ops_key) == 0) continue;
        table.row()
            .cell(row.name)
            .cell(calls)
            .cell(counter(row.ops_key))
            .cell(100.0 * static_cast<double>(calls) /
                      static_cast<double>(total_calls),
                  1)
            .cell(total_ops > 0
                      ? 100.0 * static_cast<double>(counter(row.ops_key)) /
                            static_cast<double>(total_ops)
                      : 0.0,
                  1);
      }
      table.print();
      std::printf("hash builds %llu (direct %llu), bitmap builds %llu, "
                  "probes %llu, early exits %llu\n",
                  static_cast<unsigned long long>(counter("kernel.hash_builds")),
                  static_cast<unsigned long long>(
                      counter("kernel.direct_builds")),
                  static_cast<unsigned long long>(
                      counter("kernel.bitmap_builds")),
                  static_cast<unsigned long long>(counter("kernel.probes")),
                  static_cast<unsigned long long>(
                      counter("kernel.early_exits")));
    }
  }

  if (const auto it = report.metrics.histograms.find("tc.shift_compute_seconds");
      it != report.metrics.histograms.end() && it->second.count > 0) {
    util::print_heading("per-(rank, shift) compute distribution");
    const Snapshot::HistogramValue& h = it->second;
    util::Table table({"count", "p50 s", "p95 s", "p99 s", "max s"});
    table.row()
        .cell(h.count)
        .cell(h.quantile(0.50), 6)
        .cell(h.quantile(0.95), 6)
        .cell(h.quantile(0.99), 6)
        .cell(h.max, 6);
    table.print();
  }

  // Cetric classification (docs/cetric.md): the local-vs-cut split is
  // the algorithm's headline number — the share of the triangle total
  // that cost zero point-to-point messages.
  if (report.algorithm == "cetric") {
    const std::uint64_t local = counter("tc.cetric.local_triangles");
    const std::uint64_t cut = counter("tc.cetric.cut_triangles");
    const std::uint64_t total = local + cut;
    util::print_heading("cetric classification");
    util::Table table({"class", "triangles", "share %"});
    table.row().cell("local (zero-message)").cell(local).cell(
        total > 0 ? 100.0 * static_cast<double>(local) /
                        static_cast<double>(total)
                  : 0.0,
        1);
    table.row().cell("cut (wedges routed)").cell(cut).cell(
        total > 0 ? 100.0 * static_cast<double>(cut) /
                        static_cast<double>(total)
                  : 0.0,
        1);
    table.print();
    std::printf("cut wedges sent %llu in %llu messages (%llu bytes); "
                "ghost lists pulled %llu (%llu entries)\n",
                static_cast<unsigned long long>(
                    counter("tc.cetric.cut_wedges_sent")),
                static_cast<unsigned long long>(
                    counter("tc.cetric.cut_wedge_messages_sent")),
                static_cast<unsigned long long>(
                    counter("tc.cetric.cut_wedge_bytes_sent")),
                static_cast<unsigned long long>(
                    counter("tc.cetric.ghost_lists_fetched")),
                static_cast<unsigned long long>(
                    counter("tc.cetric.ghost_list_entries")));
  }

  // Chaos tallies (docs/chaos.md), shown for runs with fault injection
  // armed.
  if (report.chaos) {
    util::print_heading("chaos");
    util::Table table({"counter", "value"});
    for (const auto& [name, value] : report.metrics.counters) {
      if (name.rfind("chaos.", 0) != 0) continue;
      table.row().cell(name.substr(6)).cell(value);
    }
    for (const auto& [name, value] : report.metrics.gauges) {
      if (name.rfind("chaos.", 0) != 0) continue;
      table.row().cell(name.substr(6)).cell(value, 6);
    }
    table.print();
  }

  // Overlap summary (docs/overlap.md), shown for overlapped runs.
  if (report.overlap) {
    const double hidden = gauge("tc.overlap.hidden_seconds");
    const double exposed = gauge("tc.overlap.exposed_network_seconds");
    const double network = hidden + exposed;
    util::print_heading("overlap");
    std::printf("%llu overlapped supersteps: %.6f s of network time hidden "
                "behind compute, %.6f s exposed (%.1f%% efficiency)\n",
                static_cast<unsigned long long>(counter("tc.overlap.steps")),
                hidden, exposed, network > 0.0 ? 100.0 * hidden / network : 0.0);
  }

  util::print_heading("alpha-beta consistency");
  if (analysis.consistency_issues.empty()) {
    std::printf("OK: declared modeled times match their re-derivation from "
                "counted messages/bytes\n");
  } else {
    for (const ConsistencyIssue& issue : analysis.consistency_issues) {
      std::printf("MISMATCH %s: declared %.9g, recomputed %.9g\n",
                  issue.what.c_str(), issue.declared, issue.recomputed);
    }
  }
}

// ---------------------------------------------------------------------------
// Artifact linting

namespace {

class Linter {
 public:
  std::vector<std::string> violations;

  void flag(const std::string& what) { violations.push_back(what); }

  const json::Value* require(const json::Value& parent, const char* key,
                             const std::string& where) {
    const json::Value* v = parent.find(key);
    if (v == nullptr) flag(where + ": missing key '" + key + "'");
    return v;
  }

  /// Fetches a number that must be finite and non-negative; returns -1 on
  /// any violation (already flagged).
  double number(const json::Value& parent, const char* key,
                const std::string& where) {
    const json::Value* v = require(parent, key, where);
    if (v == nullptr) return -1.0;
    if (!v->is_number() || !std::isfinite(v->as_number())) {
      flag(where + ": '" + std::string(key) + "' is not a finite number");
      return -1.0;
    }
    if (v->as_number() < 0.0) {
      flag(where + ": '" + std::string(key) + "' is negative");
      return -1.0;
    }
    return v->as_number();
  }

  /// Same, but additionally requires an integer value.
  double counter(const json::Value& parent, const char* key,
                 const std::string& where) {
    const double n = number(parent, key, where);
    if (n >= 0.0 && std::floor(n) != n) {
      flag(where + ": '" + std::string(key) + "' is not an integer");
      return -1.0;
    }
    return n;
  }

  void boolean(const json::Value& parent, const char* key,
               const std::string& where) {
    const json::Value* v = require(parent, key, where);
    if (v != nullptr && v->type() != json::Value::Type::kBool) {
      flag(where + ": '" + std::string(key) + "' is not a boolean");
    }
  }
};

/// Sums one row of one comm-matrix field; returns false on shape errors.
bool sum_matrix_row(const json::Value& matrix, const char* field,
                    std::size_t row, std::size_t p, double& out) {
  const json::Value* rows = matrix.find(field);
  if (rows == nullptr || !rows->is_array() || rows->size() != p) return false;
  const json::Value& r = rows->at(row);
  if (!r.is_array() || r.size() != p) return false;
  for (std::size_t d = 0; d < p; ++d) {
    if (!r.at(d).is_number()) return false;
    out += r.at(d).as_number();
  }
  return true;
}

// The registry entries and columns every kMetricsSchema artifact carries
// (core/artifacts.cpp writes them all, zero when a feature is off).
constexpr const char* kRegistryCounters[] = {
    "kernel.intersection_tasks", "kernel.lookups", "kernel.hits",
    "kernel.probes", "kernel.hash_builds", "kernel.direct_builds",
    "kernel.rows_visited", "kernel.early_exits", "kernel.merge_calls",
    "kernel.merge_steps", "kernel.galloping_calls", "kernel.galloping_steps",
    "kernel.bitmap_calls", "kernel.bitmap_tests", "kernel.bitmap_builds",
    "kernel.hash_calls", "kernel.hash_lookups", "phase.pre.ops",
    "phase.tc.ops", "comm.messages_sent", "comm.bytes_sent",
    "comm.collective_messages_sent", "comm.collective_bytes_sent",
    "comm.user_messages_sent", "comm.user_bytes_sent", "tc.overlap.steps",
    "tc.cetric.local_triangles", "tc.cetric.cut_triangles",
    "tc.cetric.cut_wedges_sent", "tc.cetric.cut_wedge_messages_sent",
    "tc.cetric.cut_wedge_bytes_sent", "tc.cetric.ghost_lists_fetched",
    "tc.cetric.ghost_list_entries", "chaos.drops_injected",
    "chaos.duplicates_injected", "chaos.reorders_injected",
    "chaos.delays_injected", "chaos.acks_sent", "chaos.retransmits",
    "chaos.duplicates_discarded", "chaos.out_of_order_stashed",
    "chaos.crashes", "chaos.recoveries", "chaos.straggler_steps"};
constexpr const char* kRegistryGauges[] = {
    "phase.pre.modeled_seconds", "phase.pre.modeled_comm_seconds",
    "phase.tc.modeled_seconds", "phase.tc.modeled_comm_seconds",
    "phase.total.modeled_seconds", "comm.cpu_seconds",
    "tc.overlap.hidden_seconds", "tc.overlap.exposed_network_seconds",
    "chaos.delay_modeled_seconds", "chaos.recovery_seconds",
    "chaos.straggler_injected_seconds"};
constexpr const char* kRegistryHistograms[] = {"tc.shift_compute_seconds",
                                               "tc.overlap.step_efficiency"};
constexpr const char* kRankCounters[] = {
    "messages_sent", "bytes_sent", "messages_received", "bytes_received",
    "collective_messages_sent", "collective_bytes_sent",
    "chaos_messages_sent", "chaos_bytes_sent", "chaos_acks_sent",
    "cetric_local_triangles", "cetric_cut_triangles", "cetric_cut_wedges_sent",
    "cetric_cut_wedge_messages_sent", "cetric_cut_wedge_bytes_sent",
    "cetric_ghost_lists_fetched", "cetric_ghost_list_entries"};
constexpr const char* kMatrixFields[] = {
    "user_messages",    "user_bytes",     "collective_messages",
    "collective_bytes", "chaos_messages", "chaos_bytes"};

}  // namespace

std::vector<std::string> lint_metrics(const json::Value& root) {
  Linter lint;
  try {
    if (!root.is_object()) {
      lint.flag("document: not a JSON object");
      return lint.violations;
    }
    const json::Value* schema = root.find("schema");
    if (schema == nullptr || !schema->is_string() ||
        schema->as_string() != kMetricsSchema) {
      lint.flag(std::string("document: 'schema' is not \"") + kMetricsSchema +
                "\"");
      return lint.violations;
    }

    std::size_t ranks = 0;
    std::string algorithm;
    double declared_triangles = -1.0;
    if (const json::Value* run = lint.require(root, "run", "document")) {
      const double r = lint.counter(*run, "ranks", "run");
      const double q = lint.counter(*run, "grid_q", "run");
      if (const json::Value* algo = lint.require(*run, "algorithm", "run")) {
        if (algo->is_string()) {
          algorithm = algo->as_string();
        } else {
          lint.flag("run: 'algorithm' is not a string");
        }
      }
      lint.boolean(*run, "overlap", "run");
      lint.boolean(*run, "chaos", "run");
      if (r >= 0 && r < 1) lint.flag("run: 'ranks' must be >= 1");
      if (algorithm == "2d") {
        if (r >= 1 && q >= 0 && q * q != r) {
          lint.flag("run: grid_q^2 != ranks");
        }
      } else if (algorithm == "summa") {
        // The edge of a square grid, 0 on a rectangular one.
        if (r >= 1 && q > 0 && q * q != r) {
          lint.flag("run: summa grid_q is neither 0 nor sqrt(ranks)");
        }
      } else if (q > 0) {
        lint.flag("run: grid_q must be 0 for 1D-partitioned algorithms");
      }
      ranks = r >= 1 ? static_cast<std::size_t>(r) : 0;
      lint.counter(*run, "vertices", "run");
      lint.counter(*run, "edges", "run");
      declared_triangles = lint.counter(*run, "triangles", "run");
      if (const json::Value* model = lint.require(*run, "model", "run")) {
        lint.number(*model, "alpha_seconds", "run.model");
        lint.number(*model, "beta_seconds_per_byte", "run.model");
      }
    }

    // Hoisted out of the try so the cetric cross-checks below can see the
    // artifact's counters even though Snapshot parsing may throw.
    std::map<std::string, std::uint64_t> metric_counters;
    if (const json::Value* metrics = lint.require(root, "metrics", "document")) {
      try {
        const Snapshot snapshot = Snapshot::from_json(*metrics);
        metric_counters = snapshot.counters;
        const auto require_all = [&](const auto& present, const auto& names,
                                     const char* kind) {
          for (const char* name : names) {
            if (present.count(name) == 0) {
              lint.flag(std::string("metrics: missing ") + kind + " '" +
                        name + "'");
            }
          }
        };
        require_all(snapshot.counters, kRegistryCounters, "counter");
        require_all(snapshot.gauges, kRegistryGauges, "gauge");
        require_all(snapshot.histograms, kRegistryHistograms, "histogram");
        for (const auto& [name, value] : snapshot.gauges) {
          if (!std::isfinite(value)) {
            lint.flag("metrics: gauge '" + name + "' is not finite");
          }
        }
      } catch (const std::exception& e) {
        // Snapshot::from_json rejects, among others, negative counters.
        lint.flag(std::string("metrics: ") + e.what());
      }
    }

    if (const json::Value* steps = lint.require(root, "steps", "document")) {
      if (!steps->is_array()) {
        lint.flag("steps: not an array");
      } else {
        bool seen_tc = false;
        for (std::size_t i = 0; i < steps->size(); ++i) {
          const json::Value& entry = steps->at(i);
          const std::string where = "steps[" + std::to_string(i) + "]";
          const json::Value* phase = lint.require(entry, "phase", where);
          if (phase != nullptr) {
            const std::string p = phase->as_string();
            if (p != "pre" && p != "tc") {
              lint.flag(where + ": unknown phase '" + p + "'");
            }
            if (p == "tc") seen_tc = true;
            if (p == "pre" && seen_tc) {
              lint.flag(where + ": 'pre' step after a 'tc' step");
            }
          }
          lint.require(entry, "name", where);
          lint.number(entry, "modeled_seconds", where);
          lint.number(entry, "modeled_comm_seconds", where);
          lint.number(entry, "max_compute_seconds", where);
          lint.number(entry, "avg_compute_seconds", where);
          lint.number(entry, "max_comm_cpu_seconds", where);
          lint.counter(entry, "max_messages", where);
          lint.counter(entry, "max_bytes", where);
          lint.counter(entry, "total_bytes", where);
          lint.boolean(entry, "overlapped", where);
          const json::Value* per_rank = lint.require(entry, "per_rank", where);
          if (per_rank != nullptr) {
            if (!per_rank->is_array() || per_rank->size() != ranks) {
              lint.flag(where + ": per_rank length != run.ranks");
            } else {
              for (std::size_t r = 0; r < per_rank->size(); ++r) {
                const std::string rw = where + ".per_rank[" +
                                       std::to_string(r) + "]";
                const json::Value& row = per_rank->at(r);
                lint.number(row, "compute_seconds", rw);
                lint.number(row, "comm_cpu_seconds", rw);
                lint.counter(row, "messages", rw);
                lint.counter(row, "bytes", rw);
                lint.counter(row, "ops", rw);
              }
            }
          }
        }
      }
    }

    // Each per-rank counter column; -1 marks a missing or invalid value
    // (already flagged).
    std::map<std::string, std::vector<double>> column;
    for (const char* name : kRankCounters) column[name].assign(ranks, -1.0);
    if (const json::Value* per_rank =
            lint.require(root, "per_rank", "document")) {
      if (!per_rank->is_array() || per_rank->size() != ranks) {
        lint.flag("per_rank: length != run.ranks");
      } else {
        for (std::size_t r = 0; r < ranks; ++r) {
          const std::string where = "per_rank[" + std::to_string(r) + "]";
          const json::Value& row = per_rank->at(r);
          const double rank = lint.counter(row, "rank", where);
          if (rank >= 0 && rank != static_cast<double>(r)) {
            lint.flag(where + ": 'rank' != array index");
          }
          for (const char* name : kRankCounters) {
            column[name][r] = lint.counter(row, name, where);
          }
          lint.number(row, "comm_cpu_seconds", where);
        }
      }
    }

    if (const json::Value* matrix =
            lint.require(root, "comm_matrix", "document")) {
      const double size = lint.counter(*matrix, "size", "comm_matrix");
      if (size >= 0 && size != static_cast<double>(ranks)) {
        lint.flag("comm_matrix: size != run.ranks");
      } else {
        // Row sums must reconcile with the per-rank send totals — the
        // documented mpisim invariant, now checked on any saved artifact.
        // The user/collective cells exclude retransmissions (those live in
        // the chaos columns) while per_rank messages_sent still counts
        // every data wire attempt; acks are protocol-only zero-byte
        // messages, attributed to chaos_messages but never to
        // messages_sent. On a fault-free run the chaos terms are zero.
        for (std::size_t r = 0; r < ranks; ++r) {
          std::map<std::string, double> sum;
          bool malformed = false;
          for (const char* field : kMatrixFields) {
            malformed = malformed ||
                        !sum_matrix_row(*matrix, field, r, ranks, sum[field]);
          }
          if (malformed) {
            lint.flag("comm_matrix: rows malformed (row " + std::to_string(r) +
                      ")");
            break;
          }
          const auto at = [&](const char* name) { return column[name][r]; };
          const std::string row = "comm_matrix: row " + std::to_string(r);
          if (at("messages_sent") >= 0 && at("chaos_messages_sent") >= 0 &&
              sum["user_messages"] + sum["collective_messages"] !=
                  at("messages_sent") - at("chaos_messages_sent")) {
            lint.flag(row + " message sum != per_rank messages_sent net of "
                            "chaos retransmissions");
          }
          if (at("bytes_sent") >= 0 && at("chaos_bytes_sent") >= 0 &&
              sum["user_bytes"] + sum["collective_bytes"] !=
                  at("bytes_sent") - at("chaos_bytes_sent")) {
            lint.flag(row + " byte sum != per_rank bytes_sent net of chaos "
                            "retransmissions");
          }
          if (at("chaos_messages_sent") >= 0 && at("chaos_acks_sent") >= 0 &&
              sum["chaos_messages"] !=
                  at("chaos_messages_sent") + at("chaos_acks_sent")) {
            lint.flag(row + " chaos_messages sum != per_rank "
                            "chaos_messages_sent + chaos_acks_sent");
          }
          if (at("chaos_bytes_sent") >= 0 &&
              sum["chaos_bytes"] != at("chaos_bytes_sent")) {
            lint.flag(row + " chaos_bytes sum != per_rank chaos_bytes_sent");
          }
          // Cetric's defining property: every user-tagged message a rank
          // sends is a cut-wedge buffer, so the user-only row sums must
          // reproduce the algorithm's own wedge counters exactly (first
          // transmits stay user traffic even under chaos — retransmits
          // and acks live in the chaos columns).
          if (algorithm != "cetric") continue;
          if (at("cetric_cut_wedge_messages_sent") >= 0 &&
              sum["user_messages"] != at("cetric_cut_wedge_messages_sent")) {
            lint.flag(row + " user_messages sum != per_rank "
                            "cetric_cut_wedge_messages_sent");
          }
          if (at("cetric_cut_wedge_bytes_sent") >= 0 &&
              sum["user_bytes"] != at("cetric_cut_wedge_bytes_sent")) {
            lint.flag(row + " user_bytes sum != per_rank "
                            "cetric_cut_wedge_bytes_sent");
          }
        }
      }
    }

    // Cetric cross-checks: the classification must account for every
    // triangle the run reports, in the registry and per rank.
    if (algorithm == "cetric") {
      const auto total = [&](const char* name) -> double {
        const auto it = metric_counters.find(name);
        return it == metric_counters.end() ? -1.0
                                           : static_cast<double>(it->second);
      };
      const double local = total("tc.cetric.local_triangles");
      const double cut = total("tc.cetric.cut_triangles");
      if (local >= 0 && cut >= 0 && declared_triangles >= 0 &&
          local + cut != declared_triangles) {
        lint.flag("metrics: tc.cetric.local_triangles + cut_triangles != "
                  "run.triangles");
      }
      const std::vector<double>& local_rows = column["cetric_local_triangles"];
      const std::vector<double>& cut_rows = column["cetric_cut_triangles"];
      const bool rows_valid =
          ranks > 0 &&
          *std::min_element(local_rows.begin(), local_rows.end()) >= 0 &&
          *std::min_element(cut_rows.begin(), cut_rows.end()) >= 0;
      if (rows_valid &&
          ((local >= 0 && std::accumulate(local_rows.begin(), local_rows.end(),
                                          0.0) != local) ||
           (cut >= 0 &&
            std::accumulate(cut_rows.begin(), cut_rows.end(), 0.0) != cut))) {
        lint.flag("per_rank: cetric_* classification sums != tc.cetric.* "
                  "totals");
      }
    }
  } catch (const std::exception& e) {
    lint.flag(std::string("document: ") + e.what());
  }
  return lint.violations;
}

// ---------------------------------------------------------------------------
// Regression diff

namespace {

class DiffBuilder {
 public:
  explicit DiffBuilder(const DiffOptions& options) : options_(options) {}

  void exact(const std::string& field, double baseline, double candidate,
             const std::string& note = "") {
    if (baseline == candidate) return;
    add({DiffEntry::Kind::kExactMismatch, field, baseline, candidate,
         note.empty() ? "counts must match exactly" : note});
  }

  /// Deterministic model-derived time: percentage threshold only.
  void model_time(const std::string& field, double baseline, double candidate) {
    compare_time(field, baseline, candidate, /*floor_seconds=*/0.0);
  }

  /// Measured time: threshold plus absolute noise floor.
  void measured_time(const std::string& field, double baseline,
                     double candidate) {
    compare_time(field, baseline, candidate, options_.noise_floor_seconds);
  }

  /// Dimensionless ratio (imbalance); gates only when `gate` says the
  /// underlying measurement is large enough to be trustworthy.
  void ratio(const std::string& field, double baseline, double candidate,
             bool gate) {
    if (baseline == candidate) return;
    const double threshold = baseline * (1.0 + options_.max_regress_pct / 100.0);
    if (candidate > threshold && gate) {
      add({DiffEntry::Kind::kRegression, field, baseline, candidate,
           pct_note(baseline, candidate) + ", exceeds --max-regress " +
               format(options_.max_regress_pct) + "%"});
    } else if (candidate > threshold) {
      add({DiffEntry::Kind::kInfo, field, baseline, candidate,
           pct_note(baseline, candidate) +
               " (not gated: measurement below the noise floor)"});
    } else if (candidate < baseline) {
      add({DiffEntry::Kind::kImprovement, field, baseline, candidate,
           pct_note(baseline, candidate)});
    } else {
      add({DiffEntry::Kind::kInfo, field, baseline, candidate,
           pct_note(baseline, candidate)});
    }
  }

  void info(const std::string& field, double baseline, double candidate,
            const std::string& note) {
    add({DiffEntry::Kind::kInfo, field, baseline, candidate, note});
  }

  void mismatch(const std::string& field, const std::string& note) {
    add({DiffEntry::Kind::kExactMismatch, field, 0.0, 0.0, note});
  }

  DiffResult finish() {
    std::stable_sort(result_.entries.begin(), result_.entries.end(),
                     [](const DiffEntry& a, const DiffEntry& b) {
                       return gates(a.kind) > gates(b.kind);
                     });
    return std::move(result_);
  }

 private:
  static bool gates(DiffEntry::Kind kind) {
    return kind == DiffEntry::Kind::kExactMismatch ||
           kind == DiffEntry::Kind::kRegression;
  }

  static std::string format(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
  }

  static std::string pct_note(double baseline, double candidate) {
    if (baseline == 0.0) return "baseline is zero";
    const double pct = 100.0 * (candidate - baseline) / baseline;
    return (pct >= 0 ? "+" : "") + format(pct) + "%";
  }

  void compare_time(const std::string& field, double baseline, double candidate,
                    double floor_seconds) {
    if (baseline == candidate) return;
    const double excess = candidate - baseline;
    const bool over_pct =
        baseline == 0.0
            ? candidate > 1e-12
            : excess > baseline * (options_.max_regress_pct / 100.0);
    if (over_pct && excess > floor_seconds) {
      add({DiffEntry::Kind::kRegression, field, baseline, candidate,
           pct_note(baseline, candidate) + ", exceeds --max-regress " +
               format(options_.max_regress_pct) + "%"});
    } else if (over_pct) {
      add({DiffEntry::Kind::kInfo, field, baseline, candidate,
           pct_note(baseline, candidate) + " (within the " +
               format(floor_seconds) + "s noise floor)"});
    } else if (excess < 0.0) {
      add({DiffEntry::Kind::kImprovement, field, baseline, candidate,
           pct_note(baseline, candidate)});
    } else {
      add({DiffEntry::Kind::kInfo, field, baseline, candidate,
           pct_note(baseline, candidate)});
    }
  }

  void add(DiffEntry entry) {
    if (gates(entry.kind)) result_.ok = false;
    result_.entries.push_back(std::move(entry));
  }

  DiffOptions options_;
  DiffResult result_;
};

/// Network-only modeled time of one phase: the α–β formula over the
/// counted per-step traffic maxima, using the artifact's own model. Pure
/// function of exact counters, so identical configurations agree exactly
/// and a perturbed cost model shows up as a large, deterministic delta.
double network_seconds(const RunReport& report, const std::string& phase) {
  double total = 0.0;
  for (const Step& step : report.steps) {
    if (step.phase != phase && phase != "total") continue;
    std::uint64_t max_messages = 0;
    std::uint64_t max_bytes = 0;
    for (const RankSample& s : step.ranks) {
      max_messages = std::max(max_messages, s.messages);
      max_bytes = std::max(max_bytes, s.bytes);
    }
    total += report.model.cost(max_messages, max_bytes);
  }
  return total;
}

std::uint64_t comm_matrix_mismatches(const json::Value& a,
                                     const json::Value& b) {
  std::uint64_t mismatches = 0;
  auto compare_rows = [&](const json::Value* ra, const json::Value* rb) {
    if (ra == nullptr || rb == nullptr || ra->size() != rb->size()) {
      ++mismatches;
      return;
    }
    for (std::size_t s = 0; s < ra->size(); ++s) {
      for (std::size_t d = 0; d < ra->at(s).size(); ++d) {
        if (d >= rb->at(s).size() ||
            ra->at(s).at(d).as_number() != rb->at(s).at(d).as_number()) {
          ++mismatches;
        }
      }
    }
  };
  for (const char* field : kMatrixFields) {
    compare_rows(a.find(field), b.find(field));
  }
  return mismatches;
}

}  // namespace

DiffResult diff_metrics(const json::Value& baseline,
                        const json::Value& candidate,
                        const DiffOptions& options) {
  const RunReport base = RunReport::from_metrics_json(baseline);
  const RunReport cand = RunReport::from_metrics_json(candidate);
  DiffBuilder diff(options);

  diff.exact("run.ranks", base.ranks, cand.ranks);
  diff.exact("run.grid_q", base.grid_q, cand.grid_q);
  if (base.algorithm != cand.algorithm) {
    diff.mismatch("run.algorithm",
                  base.algorithm + " vs " + cand.algorithm);
  }
  diff.exact("run.vertices", static_cast<double>(base.vertices),
             static_cast<double>(cand.vertices));
  diff.exact("run.edges", static_cast<double>(base.edges),
             static_cast<double>(cand.edges));
  diff.exact("run.triangles", static_cast<double>(base.triangles),
             static_cast<double>(cand.triangles));

  if (base.model.alpha_seconds != cand.model.alpha_seconds ||
      base.model.beta_seconds_per_byte != cand.model.beta_seconds_per_byte) {
    diff.info("run.model", base.model.alpha_seconds, cand.model.alpha_seconds,
              "cost models differ (alpha shown); network times below reflect "
              "the change");
  }

  std::set<std::string> counter_names;
  for (const auto& [name, value] : base.metrics.counters) {
    counter_names.insert(name);
  }
  for (const auto& [name, value] : cand.metrics.counters) {
    counter_names.insert(name);
  }
  for (const std::string& name : counter_names) {
    const auto b = base.metrics.counters.find(name);
    const auto c = cand.metrics.counters.find(name);
    if (b == base.metrics.counters.end() || c == cand.metrics.counters.end()) {
      diff.mismatch("metrics." + name, "counter present in only one artifact");
      continue;
    }
    diff.exact("metrics." + name, static_cast<double>(b->second),
               static_cast<double>(c->second));
  }

  if (base.steps.size() != cand.steps.size()) {
    diff.exact("steps.count", static_cast<double>(base.steps.size()),
               static_cast<double>(cand.steps.size()),
               "superstep structure differs");
  } else {
    for (std::size_t i = 0; i < base.steps.size(); ++i) {
      const Step& b = base.steps[i];
      const Step& c = cand.steps[i];
      const std::string where = "steps[" + std::to_string(i) + "]";
      if (b.name != c.name || b.phase != c.phase) {
        diff.mismatch(where, "superstep name/phase differs: '" + b.name +
                                 "' vs '" + c.name + "'");
        continue;
      }
      // Same counts under a different overlap mode still change the
      // modeled window; flag the mode flip itself as structural.
      if (b.overlapped != c.overlapped) {
        diff.mismatch(where + " ('" + b.name + "') overlapped",
                      "comm/compute overlap mode differs");
      }
      std::uint64_t b_messages = 0, b_bytes = 0, c_messages = 0, c_bytes = 0;
      for (const RankSample& s : b.ranks) {
        b_messages += s.messages;
        b_bytes += s.bytes;
      }
      for (const RankSample& s : c.ranks) {
        c_messages += s.messages;
        c_bytes += s.bytes;
      }
      diff.exact(where + " ('" + b.name + "') messages",
                 static_cast<double>(b_messages),
                 static_cast<double>(c_messages));
      diff.exact(where + " ('" + b.name + "') bytes",
                 static_cast<double>(b_bytes), static_cast<double>(c_bytes));
    }
  }

  if (const json::Value* bm = baseline.find("comm_matrix")) {
    if (const json::Value* cm = candidate.find("comm_matrix")) {
      const std::uint64_t cells = comm_matrix_mismatches(*bm, *cm);
      if (cells != 0) {
        diff.mismatch("comm_matrix",
                      std::to_string(cells) + " cells differ");
      }
    }
  }

  for (const char* phase : {"pre", "tc", "total"}) {
    diff.model_time(std::string("network_seconds.") + phase,
                    network_seconds(base, phase),
                    network_seconds(cand, phase));
  }

  const Analysis base_analysis = analyze(base);
  const Analysis cand_analysis = analyze(cand);
  const std::pair<const PhaseAnalysis*, const PhaseAnalysis*> phases[] = {
      {&base_analysis.pre, &cand_analysis.pre},
      {&base_analysis.tc, &cand_analysis.tc},
      {&base_analysis.total, &cand_analysis.total},
  };
  for (const auto& [b, c] : phases) {
    diff.measured_time("modeled_seconds." + b->phase, b->modeled_seconds,
                       c->modeled_seconds);
    diff.measured_time("modeled_comm_seconds." + b->phase, b->comm_seconds,
                       c->comm_seconds);
    // Imbalance is a ratio of thread-CPU measurements; only gate it when
    // both runs did enough compute for the ratio to be signal, not noise.
    const bool gate =
        b->max_compute_seconds > options.noise_floor_seconds &&
        c->max_compute_seconds > options.noise_floor_seconds;
    diff.ratio("imbalance." + b->phase, b->imbalance, c->imbalance, gate);
  }

  return diff.finish();
}

DiffResult diff_bench(const json::Value& baseline, const json::Value& candidate,
                      const DiffOptions& options) {
  DiffBuilder diff(options);
  auto records_of = [](const json::Value& root) {
    std::map<std::string, const json::Value*> records;
    const json::Value& list = root.get("records");
    for (std::size_t i = 0; i < list.size(); ++i) {
      const json::Value& record = list.at(i);
      // One bench may measure several algorithms on one configuration.
      std::string key = record.get("dataset").as_string() + "|ranks=" +
                        std::to_string(record.get("ranks").as_uint());
      if (const json::Value* algorithm = record.find("algorithm")) {
        key += "|" + algorithm->as_string();
      }
      records[key] = &record;
    }
    return records;
  };
  const auto base = records_of(baseline);
  const auto cand = records_of(candidate);

  if (const json::Value* b = baseline.find("bench")) {
    if (const json::Value* c = candidate.find("bench")) {
      if (b->as_string() != c->as_string()) {
        diff.mismatch("bench", "different benches: '" + b->as_string() +
                                   "' vs '" + c->as_string() + "'");
      }
    }
  }

  for (const auto& [key, b] : base) {
    const auto it = cand.find(key);
    if (it == cand.end()) {
      diff.mismatch(key, "record missing from candidate");
      continue;
    }
    const json::Value& c = *it->second;

    const json::Value* bp = b->find("provenance");
    const json::Value* cp = c.find("provenance");
    if ((bp == nullptr) != (cp == nullptr) ||
        (bp != nullptr && bp->dump() != cp->dump())) {
      diff.mismatch(key + " provenance",
                    "records are not comparable: generator params or cost "
                    "model differ");
      continue;
    }

    for (const char* field :
         {"triangles", "vertices", "edges", "messages_sent", "bytes_sent"}) {
      if (b->find(field) != nullptr && c.find(field) != nullptr) {
        diff.exact(key + " " + field, b->get(field).as_number(),
                   c.get(field).as_number());
      }
    }
    for (const char* field :
         {"pre_modeled_seconds", "tc_modeled_seconds", "total_modeled_seconds",
          "pre_modeled_comm_seconds", "tc_modeled_comm_seconds"}) {
      if (b->find(field) != nullptr && c.find(field) != nullptr) {
        diff.measured_time(key + " " + field, b->get(field).as_number(),
                           c.get(field).as_number());
      }
    }
  }
  for (const auto& [key, c] : cand) {
    if (base.find(key) == base.end()) {
      diff.mismatch(key, "record missing from baseline");
    }
  }
  return diff.finish();
}

// ---------------------------------------------------------------------------
// Causal message-trace analysis

namespace {

/// Half-open wall-clock interval in microseconds.
using Interval = std::pair<double, double>;

/// Coalesces overlapping/adjacent intervals in place (sorted afterwards).
void merge_intervals(std::vector<Interval>& v) {
  std::sort(v.begin(), v.end());
  std::size_t out = 0;
  for (const Interval& iv : v) {
    if (iv.second <= iv.first) continue;
    if (out > 0 && iv.first <= v[out - 1].second) {
      v[out - 1].second = std::max(v[out - 1].second, iv.second);
    } else {
      v[out++] = iv;
    }
  }
  v.resize(out);
}

/// |A \ B| for already-merged interval sets, in microseconds.
double interval_difference_us(const std::vector<Interval>& a,
                              const std::vector<Interval>& b) {
  double total = 0.0;
  std::size_t j = 0;
  for (const Interval& iv : a) {
    double cur = iv.first;
    while (j < b.size() && b[j].second <= cur) ++j;
    for (std::size_t k = j; k < b.size() && b[k].first < iv.second; ++k) {
      if (b[k].first > cur) total += b[k].first - cur;
      cur = std::max(cur, b[k].second);
      if (cur >= iv.second) break;
    }
    if (cur < iv.second) total += iv.second - cur;
  }
  return total;
}

/// One logical message joined across both endpoints' records.
struct MatchedPair {
  int sender = -1;
  int receiver = -1;
  int step = -1;        ///< receiver-side superstep
  double posted_us = 0.0;   ///< receive posted (blocking wait entered)
  double arrival_us = 0.0;  ///< earliest surviving wire attempt
  double deliver_us = 0.0;  ///< receive completed
};

}  // namespace

MsgTraceReport MsgTraceReport::from_trace(const Trace& trace) {
  MsgTraceReport out;
  const json::Value& other = trace.other_data();
  const json::Value* run = other.find("run");
  if (run == nullptr) {
    throw std::runtime_error(
        "msgtrace: otherData has no run header; this reads the message "
        "traces that count --msgtrace writes");
  }
  const json::Value& rings = other.get("rings");
  // Every rank has a ring, and so does the world.
  out.ranks = other.get("ranks").as_int(
      1, static_cast<int>(std::min<std::size_t>(
             rings.size(), std::numeric_limits<int>::max())) - 1);
  out.overlap = run->get("overlap").as_bool();
  out.chaos = run->get("chaos").as_bool();
  const json::Value& model = run->get("model");
  out.model.alpha_seconds = model.get("alpha_seconds").as_number();
  out.model.beta_seconds_per_byte =
      model.get("beta_seconds_per_byte").as_number();
  for (std::size_t i = 0; i < rings.size(); ++i) {
    out.dropped += rings.at(i).get("dropped").as_uint();
  }

  const json::Value& steps = other.get("steps");
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const json::Value& entry = steps.at(i);
    MsgTraceStep step;
    step.name = entry.get("name").as_string();
    step.phase = entry.get("phase").as_string();
    step.modeled_seconds = entry.get("modeled_seconds").as_number();
    step.modeled_comm_seconds = entry.get("modeled_comm_seconds").as_number();
    step.hidden_seconds = entry.get("hidden_seconds").as_number();
    step.overlapped = entry.get("overlapped").as_bool();
    out.steps.push_back(std::move(step));
  }

  out.records.resize(static_cast<std::size_t>(out.ranks));
  for (const TraceEvent& e : trace.events()) {
    // The non-rank buffer (tid 0) has no causal position.
    if (e.ph != 'X' || e.cat != kMsgCategory || e.tid < 1 ||
        e.tid > out.ranks) {
      continue;
    }
    const auto arg = [&](const char* key) {
      const double* value = e.arg(key);
      if (value == nullptr) {
        throw std::runtime_error("msgtrace: msg span '" + e.name +
                                 "' has no " + key);
      }
      return json::Value(*value);
    };
    MsgRecord m;
    bool known = false;
    for (const MsgRecord::Kind kind :
         {MsgRecord::kSend, MsgRecord::kRecv, MsgRecord::kAck}) {
      if (e.name == to_string(kind)) {
        m.kind = kind;
        known = true;
      }
    }
    if (!known) {
      throw std::runtime_error("msgtrace: unknown msg span '" + e.name + "'");
    }
    m.collective = arg("collective").as_int(0, 1) == 1;
    m.dropped = arg("dropped").as_int(0, 1) == 1;
    m.peer = arg("peer").as_int(0, out.ranks - 1);
    m.tag = arg("tag").as_int();
    m.step = arg("step").as_int(-1);
    m.gen = arg("gen").as_int(0);
    m.id = arg("id").as_uint();
    m.seq = arg("seq").as_uint();
    m.bytes = arg("bytes").as_uint();
    m.post_us = e.ts_us;
    m.wire_us = e.ts_us + e.dur_us;
    out.records[static_cast<std::size_t>(e.tid - 1)].push_back(m);
  }
  return out;
}

CausalAnalysis analyze_msgtrace(const MsgTraceReport& report) {
  CausalAnalysis out;
  out.truncated = report.dropped > 0;

  // Join sender-side wire attempts by trace id. A logical message's
  // arrival is the earliest attempt the fault plan let through; dropped
  // attempts never reach a mailbox and cannot carry causality.
  struct SendInfo {
    int sender = -1;
    double arrival_us = 0.0;
    bool delivered = false;
    bool seen = false;
  };
  std::map<std::uint64_t, SendInfo> sends;
  double first_post_us = 0.0;
  double last_wire_us = 0.0;
  int last_rank = -1;
  bool any_event = false;
  auto note_span = [&](int rank, double post_us, double wire_us) {
    if (!any_event || post_us < first_post_us) first_post_us = post_us;
    if (!any_event || wire_us > last_wire_us) {
      last_wire_us = wire_us;
      last_rank = rank;
    } else if (wire_us == last_wire_us && rank < last_rank) {
      last_rank = rank;  // deterministic tie-break
    }
    any_event = true;
  };

  const int ranks = static_cast<int>(report.records.size());
  for (int rank = 0; rank < ranks; ++rank) {
    for (const MsgRecord& m : report.records[static_cast<std::size_t>(rank)]) {
      note_span(rank, m.post_us, m.wire_us);
      switch (m.kind) {
        case MsgRecord::Kind::kSend: {
          out.send_attempts += 1;
          if (m.gen > 0) out.retransmit_attempts += 1;
          if (m.dropped) out.dropped_attempts += 1;
          SendInfo& info = sends[m.id];
          if (!info.seen) {
            info.seen = true;
            info.sender = rank;
            out.sends += 1;
          }
          if (!m.dropped &&
              (!info.delivered || m.wire_us < info.arrival_us)) {
            info.delivered = true;
            info.arrival_us = m.wire_us;
          }
          break;
        }
        case MsgRecord::Kind::kRecv:
          out.recvs += 1;
          break;
        case MsgRecord::Kind::kAck:
          out.acks += 1;
          break;
      }
    }
  }
  if (any_event) {
    out.makespan_seconds = (last_wire_us - first_post_us) * 1e-6;
  }

  // Join receives to their sends; classify each pair's wait state.
  std::vector<MatchedPair> pairs;
  std::map<int, CausalStep> steps;  // keyed by receiver-side superstep
  for (int rank = 0; rank < ranks; ++rank) {
    for (const MsgRecord& m : report.records[static_cast<std::size_t>(rank)]) {
      if (m.kind != MsgRecord::Kind::kRecv) continue;
      const auto it = sends.find(m.id);
      if (it == sends.end() || !it->second.delivered) {
        // The sender's buffer was truncated (or the send raced capture
        // teardown); without the send side there is no causal edge.
        out.unmatched_recvs += 1;
        continue;
      }
      out.matched += 1;
      MatchedPair pair;
      pair.sender = it->second.sender;
      pair.receiver = rank;
      pair.step = m.step;
      pair.posted_us = m.post_us;
      // The arrival stamp comes from the sender's thread and the deliver
      // stamp from the receiver's; a sender descheduled between handing
      // the message over and stamping it can stamp *after* delivery.
      // Data cannot be available later than it was delivered, so clamp —
      // this also keeps path segments and in-flight intervals ordered.
      pair.arrival_us = std::min(it->second.arrival_us, m.wire_us);
      pair.deliver_us = m.wire_us;
      pairs.push_back(pair);

      // Scalasca classification: late-sender is receiver time blocked
      // before the data arrived; late-receiver is data time parked in
      // the mailbox before the receive was posted; transfer is the rest
      // of the post->deliver window.
      const double late_sender = std::max(
          0.0, std::min(pair.arrival_us, pair.deliver_us) - pair.posted_us);
      const double late_receiver =
          std::max(0.0, pair.posted_us - pair.arrival_us);
      const double transfer = std::max(
          0.0, pair.deliver_us - std::max(pair.arrival_us, pair.posted_us));
      CausalStep& bucket = steps[m.step];
      bucket.step = m.step;
      bucket.pairs += 1;
      bucket.late_sender_seconds += late_sender * 1e-6;
      bucket.late_receiver_seconds += late_receiver * 1e-6;
      bucket.transfer_seconds += transfer * 1e-6;
    }
  }

  // Measured critical path: walk backwards from the globally last wire
  // event. At each position the blocking dependency is the latest
  // delivery into the current rank whose data the rank actually waited
  // for (arrival after post — a late-sender edge); everything since that
  // delivery is the rank's own progress. Jumping to the sender at the
  // arrival time makes consecutive segments share endpoints, so the
  // path telescopes to exactly the makespan.
  if (any_event) {
    std::vector<std::vector<const MatchedPair*>> inbound(
        static_cast<std::size_t>(ranks));
    for (const MatchedPair& pair : pairs) {
      inbound[static_cast<std::size_t>(pair.receiver)].push_back(&pair);
    }
    for (auto& list : inbound) {
      std::sort(list.begin(), list.end(),
                [](const MatchedPair* a, const MatchedPair* b) {
                  return a->deliver_us < b->deliver_us;
                });
    }
    int cur_rank = last_rank;
    double cur_us = last_wire_us;
    for (std::size_t guard = 0; guard <= pairs.size(); ++guard) {
      const MatchedPair* edge = nullptr;
      if (cur_rank >= 0) {
        const auto& list = inbound[static_cast<std::size_t>(cur_rank)];
        for (auto it = list.rbegin(); it != list.rend(); ++it) {
          const MatchedPair* p = *it;
          if (p->deliver_us > cur_us) continue;
          if (p->arrival_us > p->posted_us && p->arrival_us < cur_us) {
            edge = p;
            break;
          }
        }
      }
      if (edge == nullptr) break;
      if (cur_us > edge->deliver_us) {
        out.path.push_back(
            {cur_rank, -1, "compute", edge->deliver_us, cur_us});
      }
      out.path.push_back({cur_rank, edge->sender, "transfer",
                          edge->arrival_us, edge->deliver_us});
      cur_rank = edge->sender;
      cur_us = edge->arrival_us;
    }
    if (cur_us > first_post_us) {
      out.path.push_back({cur_rank, -1, "compute", first_post_us, cur_us});
    }
    std::reverse(out.path.begin(), out.path.end());
    for (const CriticalSegment& segment : out.path) {
      out.path_seconds += segment.seconds();
    }
  }

  // Measured overlap, per superstep: wall time data was sitting
  // delivered for some rank while that rank was *not* blocked receiving
  // — transfer progress genuinely hidden behind the rank's own work.
  // Window quantities, so take the max over ranks (like the α–β model's
  // max-based superstep window), then cap at the modeled hidden time so
  // measured <= modeled holds by construction and the shortfall is the
  // readable delta.
  std::map<int, std::vector<std::vector<Interval>>> blocked;
  std::map<int, std::vector<std::vector<Interval>>> in_flight;
  for (const MatchedPair& pair : pairs) {
    auto ensure = [&](std::map<int, std::vector<std::vector<Interval>>>& m)
        -> std::vector<std::vector<Interval>>& {
      return m.try_emplace(pair.step, static_cast<std::size_t>(ranks))
          .first->second;
    };
    const std::size_t r = static_cast<std::size_t>(pair.receiver);
    ensure(blocked)[r].push_back({pair.posted_us, pair.deliver_us});
    ensure(in_flight)[r].push_back({pair.arrival_us, pair.deliver_us});
  }

  // Map superstep buckets to the artifact's modeled step table: record
  // step s is the s-th "tc" entry; step -1 groups pre-phase traffic,
  // modeled as the sum of the "pre" entries.
  std::vector<const MsgTraceStep*> tc_steps;
  double pre_hidden = 0.0;
  for (const MsgTraceStep& step : report.steps) {
    out.modeled_total_seconds += step.modeled_seconds;
    if (step.phase == "tc") {
      tc_steps.push_back(&step);
    } else {
      pre_hidden += step.hidden_seconds;
    }
  }
  for (auto& [step, bucket] : steps) {
    if (step < 0) {
      bucket.name = "pre";
      bucket.modeled_hidden_seconds = pre_hidden;
    } else if (static_cast<std::size_t>(step) < tc_steps.size()) {
      bucket.name = tc_steps[static_cast<std::size_t>(step)]->name;
      bucket.modeled_hidden_seconds =
          tc_steps[static_cast<std::size_t>(step)]->hidden_seconds;
    } else {
      bucket.name = "tc[" + std::to_string(step) + "]";
    }
    const auto bit = blocked.find(step);
    const auto fit = in_flight.find(step);
    double concurrent_us = 0.0;
    if (bit != blocked.end() && fit != in_flight.end()) {
      for (int r = 0; r < ranks; ++r) {
        auto& f = fit->second[static_cast<std::size_t>(r)];
        auto& b = bit->second[static_cast<std::size_t>(r)];
        if (f.empty()) continue;
        merge_intervals(f);
        merge_intervals(b);
        concurrent_us = std::max(concurrent_us, interval_difference_us(f, b));
      }
    }
    bucket.concurrent_seconds = concurrent_us * 1e-6;
    bucket.measured_hidden_seconds =
        std::min(bucket.concurrent_seconds, bucket.modeled_hidden_seconds);

    out.late_sender_seconds += bucket.late_sender_seconds;
    out.late_receiver_seconds += bucket.late_receiver_seconds;
    out.transfer_seconds += bucket.transfer_seconds;
    out.concurrent_wall_seconds += bucket.concurrent_seconds;
    out.measured_hidden_seconds += bucket.measured_hidden_seconds;
    out.modeled_hidden_seconds += bucket.modeled_hidden_seconds;
    out.steps.push_back(bucket);
  }

  return out;
}

void print_causal_report(const MsgTraceReport& report,
                         const CausalAnalysis& analysis, int top_segments) {
  util::print_heading("causal trace");
  std::printf("%llu sends (%llu wire attempts, %llu retransmits, %llu "
              "dropped), %llu recvs (%llu matched, %llu unmatched), %llu "
              "acks\n",
              static_cast<unsigned long long>(analysis.sends),
              static_cast<unsigned long long>(analysis.send_attempts),
              static_cast<unsigned long long>(analysis.retransmit_attempts),
              static_cast<unsigned long long>(analysis.dropped_attempts),
              static_cast<unsigned long long>(analysis.recvs),
              static_cast<unsigned long long>(analysis.matched),
              static_cast<unsigned long long>(analysis.unmatched_recvs),
              static_cast<unsigned long long>(analysis.acks));
  if (analysis.truncated) {
    std::printf("WARNING: capture dropped %llu records (buffer capacity); "
                "results below are partial\n",
                static_cast<unsigned long long>(report.dropped));
  }

  util::print_heading("measured critical path");
  std::printf("makespan %.6f s, extracted path %.6f s over %zu segments "
              "(reconciliation delta %.3g s)\n",
              analysis.makespan_seconds, analysis.path_seconds,
              analysis.path.size(),
              std::abs(analysis.makespan_seconds - analysis.path_seconds));
  {
    std::vector<const CriticalSegment*> longest;
    for (const CriticalSegment& segment : analysis.path) {
      longest.push_back(&segment);
    }
    std::stable_sort(longest.begin(), longest.end(),
                     [](const CriticalSegment* a, const CriticalSegment* b) {
                       return a->seconds() > b->seconds();
                     });
    const std::size_t limit = std::min<std::size_t>(
        top_segments <= 0 ? longest.size()
                          : static_cast<std::size_t>(top_segments),
        longest.size());
    util::Table table({"rank", "kind", "peer", "begin s", "end s", "span s"});
    for (std::size_t i = 0; i < limit; ++i) {
      const CriticalSegment& segment = *longest[i];
      table.row()
          .cell(static_cast<std::int64_t>(segment.rank))
          .cell(segment.kind);
      if (segment.peer >= 0) {
        table.cell(static_cast<std::int64_t>(segment.peer));
      } else {
        table.dash();
      }
      table.cell(segment.begin_us * 1e-6, 6)
          .cell(segment.end_us * 1e-6, 6)
          .cell(segment.seconds(), 6);
    }
    table.print();
  }

  util::print_heading("wait states (per superstep)");
  {
    util::Table table({"step", "pairs", "late-sender s", "late-receiver s",
                       "transfer s"});
    for (const CausalStep& step : analysis.steps) {
      table.row()
          .cell(step.name)
          .cell(step.pairs)
          .cell(step.late_sender_seconds, 6)
          .cell(step.late_receiver_seconds, 6)
          .cell(step.transfer_seconds, 6);
    }
    table.row()
        .cell("total")
        .cell(analysis.matched)
        .cell(analysis.late_sender_seconds, 6)
        .cell(analysis.late_receiver_seconds, 6)
        .cell(analysis.transfer_seconds, 6);
    table.print();
  }

  util::print_heading("overlap: measured vs alpha-beta model");
  {
    util::Table table({"step", "concurrent s", "measured hidden s",
                       "modeled hidden s", "delta s"});
    for (const CausalStep& step : analysis.steps) {
      table.row()
          .cell(step.name)
          .cell(step.concurrent_seconds, 6)
          .cell(step.measured_hidden_seconds, 6)
          .cell(step.modeled_hidden_seconds, 6)
          .cell(step.modeled_hidden_seconds - step.measured_hidden_seconds, 6);
    }
    table.row()
        .cell("total")
        .cell(analysis.concurrent_wall_seconds, 6)
        .cell(analysis.measured_hidden_seconds, 6)
        .cell(analysis.modeled_hidden_seconds, 6)
        .cell(analysis.modeled_hidden_seconds -
                  analysis.measured_hidden_seconds,
              6);
    table.print();
  }
  std::printf("\nmeasured times are wall clock on the simulator host; "
              "modeled times are the alpha-beta abstract machine — compare "
              "shape, not absolutes (modeled run total %.6f s vs measured "
              "makespan %.6f s)\n",
              analysis.modeled_total_seconds, analysis.makespan_seconds);
}

DiffResult diff_msgtrace(const Trace& baseline, const Trace& candidate,
                         const DiffOptions& options) {
  const MsgTraceReport base = MsgTraceReport::from_trace(baseline);
  const MsgTraceReport cand = MsgTraceReport::from_trace(candidate);
  const CausalAnalysis ba = analyze_msgtrace(base);
  const CausalAnalysis ca = analyze_msgtrace(cand);
  DiffBuilder diff(options);

  diff.exact("run.ranks", base.ranks, cand.ranks);
  if (base.overlap != cand.overlap) {
    diff.mismatch("run.overlap", "comm/compute overlap mode differs");
  }
  if (base.chaos != cand.chaos) {
    diff.mismatch("run.chaos", "fault injection mode differs");
  }
  if (ba.truncated || ca.truncated) {
    diff.info("capture.dropped", static_cast<double>(base.dropped),
              static_cast<double>(cand.dropped),
              "capture truncated; counts and times are partial");
  }

  // Logical traffic is deterministic on the fault-free path; under
  // chaos the wire-attempt census depends on the fault schedule, so it
  // is informational only.
  if (!base.chaos && !cand.chaos && !ba.truncated && !ca.truncated) {
    diff.exact("sends", static_cast<double>(ba.sends),
               static_cast<double>(ca.sends));
    diff.exact("recvs", static_cast<double>(ba.recvs),
               static_cast<double>(ca.recvs));
    diff.exact("matched_pairs", static_cast<double>(ba.matched),
               static_cast<double>(ca.matched));
  } else {
    diff.info("send_attempts", static_cast<double>(ba.send_attempts),
              static_cast<double>(ca.send_attempts),
              "wire attempts vary with the fault schedule");
  }

  diff.measured_time("makespan_seconds", ba.makespan_seconds,
                     ca.makespan_seconds);
  diff.measured_time("late_sender_seconds", ba.late_sender_seconds,
                     ca.late_sender_seconds);
  diff.measured_time("late_receiver_seconds", ba.late_receiver_seconds,
                     ca.late_receiver_seconds);
  // The step table's modeled seconds embed each superstep's measured
  // max-compute (like the metrics artifact's phase times), so they get
  // the noise floor, not the pct-only model gate.
  diff.measured_time("modeled_total_seconds", ba.modeled_total_seconds,
                     ca.modeled_total_seconds);

  // The tentpole check: how far measurement drifted from the α–β
  // overlap prediction. A candidate whose divergence grows past the
  // noise floor is flagged even if its absolute times improved.
  diff.measured_time(
      "overlap_model_divergence_seconds",
      std::abs(ba.modeled_hidden_seconds - ba.measured_hidden_seconds),
      std::abs(ca.modeled_hidden_seconds - ca.measured_hidden_seconds));

  return diff.finish();
}

DiffResult diff_artifacts(const json::Value& baseline,
                          const json::Value& candidate,
                          const DiffOptions& options) {
  // A message trace is a Chrome trace, which names no schema.
  constexpr const char* kTrace = "Chrome trace";
  const auto format_of = [&](const json::Value& doc) -> std::string {
    return doc.find("traceEvents") != nullptr ? kTrace
                                              : doc.get("schema").as_string();
  };
  const std::string base_format = format_of(baseline);
  const std::string cand_format = format_of(candidate);
  if (base_format != cand_format) {
    DiffBuilder diff(options);
    diff.mismatch("schema", "'" + base_format + "' vs '" + cand_format + "'");
    return diff.finish();
  }
  if (base_format == kMetricsSchema) {
    return diff_metrics(baseline, candidate, options);
  }
  if (base_format == kBenchSchema) {
    return diff_bench(baseline, candidate, options);
  }
  if (base_format == kTrace) {
    return diff_msgtrace(Trace::from_json(baseline),
                         Trace::from_json(candidate), options);
  }
  throw std::runtime_error("diff: unsupported schema '" + base_format +
                           "' (reads " + kMetricsSchema + ", " + kBenchSchema +
                           " and the message traces of count --msgtrace)");
}

}  // namespace tricount::obs::analysis
