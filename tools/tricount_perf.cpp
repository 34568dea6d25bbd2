// tricount_perf — perf-doctor over saved run artifacts.
//
// Usage:
//   tricount_perf report <metrics.json> [--top N] [--flight-dir DIR]
//                        [--msgtrace TRACE] [--compare OTHER.json]
//                        [--require-less-comm]
//       Human-readable bottleneck report: dominant phase, comm fractions,
//       load imbalance, top straggler ranks, per-superstep critical path,
//       cetric local-vs-cut classification (when the artifact came from
//       the communication-avoiding counter), chaos fault tallies (when
//       the artifact came from a chaos run), and the α–β consistency
//       check. With --flight-dir, also a section correlating the
//       directory's flight.json dump (dump reason, last recorded
//       superstep, crash markers) with the run. With --msgtrace, also
//       the causal section from the given tricount.msgtrace.v1 artifact:
//       measured critical path, wait states, and measured-vs-modeled
//       overlap. With --compare, also a communication-volume table
//       against a second artifact of the same graph (e.g. cetric vs 2d);
//       --require-less-comm turns that table into a gate — exit 1 unless
//       the primary artifact moved strictly fewer user bytes than the
//       comparison target.
//       Exit 1 when the consistency check fails, 0 otherwise.
//
//   tricount_perf diff <baseline.json> <candidate.json>
//                      [--max-regress PCT] [--noise-floor SECONDS]
//       Field-by-field regression gate between two artifacts of the same
//       schema (tricount.metrics.v3, tricount.bench.v1, or
//       tricount.msgtrace.v1). Counts and structure compare exactly;
//       model-derived network times by the --max-regress threshold;
//       measured CPU times and imbalance gate only past both the
//       threshold and the absolute noise floor. For msgtrace artifacts
//       the gate also covers the measured-vs-modeled overlap divergence.
//       Exit 1 on any gating difference, 0 when clean.
//
//   tricount_perf watch [--file PATH] [--once] [--jsonl] [--interval-ms N]
//       Streams a live run's tricount.telemetry.v1 snapshot (published
//       via tricount_cli count --flight-telemetry) as a refreshing table
//       or JSONL feed — the same view as tricount_top.
//
// Exit code 2 signals usage or I/O errors.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "tricount/obs/analysis.hpp"
#include "tricount/obs/json.hpp"
#include "tricount/obs/telemetry.hpp"
#include "tricount/obs/trace.hpp"
#include "tricount/util/build.hpp"
#include "tricount/util/table.hpp"

namespace {

using namespace tricount;
namespace analysis = obs::analysis;

int usage() {
  std::fprintf(
      stderr,
      "usage: tricount_perf report <metrics.json> [--top N] "
      "[--flight-dir DIR] [--msgtrace TRACE]\n"
      "                     [--compare OTHER.json] [--require-less-comm]\n"
      "       tricount_perf diff <baseline.json> <candidate.json>\n"
      "                     [--max-regress PCT] [--noise-floor SECONDS]\n"
      "       tricount_perf watch [--file PATH] [--once] [--jsonl]\n"
      "                     [--interval-ms N]\n"
      "       tricount_perf --version\n");
  return 2;
}

bool parse_double(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

/// The `report --flight-dir` section: one row per ring of the flight
/// dump `dir`/flight.json, correlating the dump reason and each ring's
/// final recorded superstep (plus any chaos.crash marker) with the run the
/// metrics artifact describes. Returns 2 on a missing directory or an
/// unreadable dump.
int print_flight_section(const std::string& dir) {
  if (!std::filesystem::is_directory(dir)) {
    std::fprintf(stderr, "tricount_perf: --flight-dir %s: not a directory\n",
                 dir.c_str());
    return 2;
  }
  const std::string path = dir + "/flight.json";
  std::printf("\n== flight dump (%s) ==\n", path.c_str());
  if (!std::filesystem::exists(path)) {
    std::printf("no flight dump found — the run completed without a "
                "crash/hang/signal trigger\n");
    return 0;
  }
  try {
    const obs::Trace trace = obs::Trace::from_json(obs::json::read_file(path));
    const std::size_t violations = obs::lint_trace(trace).size();
    const obs::json::Value& other = trace.other_data();
    const obs::json::Value& rings = other.get("rings");
    util::Table table({"ring", "reason", "recorded", "dropped",
                       "last superstep", "crash step", "lint"});
    for (std::size_t i = 0; i < rings.size(); ++i) {
      const obs::json::Value& ring = rings.at(i);
      const int tid = ring.get("tid").as_int();
      double last_superstep = -1.0;
      double crash_step = -1.0;
      for (const obs::TraceEvent& e : trace.events()) {
        if (e.tid != tid || e.args.empty()) continue;
        if (e.ph == 'C' && e.name == "superstep") {
          last_superstep = e.args.front().second;
        } else if (e.ph == 'i' && e.name == "chaos.crash") {
          crash_step = e.args.front().second;
        }
      }
      char label[16] = "world";
      if (tid != 0) std::snprintf(label, sizeof label, "r%d", tid - 1);
      table.row()
          .cell(std::string(label))
          .cell(other.get("reason").as_string())
          .cell(ring.get("recorded").as_number(), 0)
          .cell(ring.get("dropped").as_number(), 0)
          .cell(last_superstep, 0)
          .cell(crash_step, 0)
          .cell(violations == 0
                    ? std::string("clean")
                    : std::to_string(violations) + " violation(s)");
    }
    table.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tricount_perf: %s: %s\n", path.c_str(), e.what());
    return 2;
  }
  std::printf("(last superstep / crash step are -1 when the ring carries "
              "no such event; correlate the crashing rank's crash step "
              "with the chaos tallies above; lint is the whole file's)\n");
  return 0;
}

/// The `report --msgtrace` section: the causal analysis of a saved
/// tricount.msgtrace.v1 artifact. Returns 2 on unreadable artifacts.
int print_causal_section(const std::string& path, int top) {
  analysis::MsgTraceReport report;
  try {
    report = analysis::MsgTraceReport::from_json(obs::json::read_file(path));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tricount_perf: %s: %s\n", path.c_str(), e.what());
    return 2;
  }
  const analysis::CausalAnalysis causal = analysis::analyze_msgtrace(report);
  analysis::print_causal_report(report, causal, top);
  return 0;
}

/// The `report --compare` section: communication-volume comparison of two
/// metrics artifacts over the same graph (the headline cetric-vs-2D
/// table). Returns 2 on unreadable input, 1 when `require_less_comm` is
/// set and the primary artifact did not move strictly fewer user bytes,
/// 0 otherwise.
int print_compare_section(const analysis::RunReport& primary,
                          const std::string& primary_path,
                          const std::string& compare_path,
                          bool require_less_comm) {
  analysis::RunReport other;
  try {
    other = analysis::RunReport::from_metrics_json(
        obs::json::read_file(compare_path));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tricount_perf: %s: %s\n", compare_path.c_str(),
                 e.what());
    return 2;
  }
  if (primary.vertices != other.vertices || primary.edges != other.edges ||
      primary.triangles != other.triangles) {
    std::fprintf(stderr,
                 "tricount_perf: --compare artifacts describe different "
                 "graphs (%llu/%llu/%llu vs %llu/%llu/%llu "
                 "vertices/edges/triangles)\n",
                 static_cast<unsigned long long>(primary.vertices),
                 static_cast<unsigned long long>(primary.edges),
                 static_cast<unsigned long long>(primary.triangles),
                 static_cast<unsigned long long>(other.vertices),
                 static_cast<unsigned long long>(other.edges),
                 static_cast<unsigned long long>(other.triangles));
    return 2;
  }

  const auto counter = [](const analysis::RunReport& r, const char* name) {
    const auto it = r.metrics.counters.find(name);
    return it == r.metrics.counters.end() ? std::uint64_t{0} : it->second;
  };
  util::print_heading("comm volume vs " + compare_path);
  util::Table table({"artifact", "algorithm", "ranks", "user msgs",
                     "user bytes", "collective bytes", "total bytes"});
  const auto row = [&](const analysis::RunReport& r, const std::string& path) {
    table.row()
        .cell(path)
        .cell(r.algorithm)
        .cell(static_cast<std::int64_t>(r.ranks))
        .cell(counter(r, "comm.user_messages_sent"))
        .cell(counter(r, "comm.user_bytes_sent"))
        .cell(counter(r, "comm.collective_bytes_sent"))
        .cell(counter(r, "comm.bytes_sent"));
  };
  row(primary, primary_path);
  row(other, compare_path);
  table.print();
  const std::uint64_t primary_user = counter(primary, "comm.user_bytes_sent");
  const std::uint64_t other_user = counter(other, "comm.user_bytes_sent");
  if (other_user > 0) {
    std::printf("user-byte ratio: %.3f (%s moves %.1f%% of %s's "
                "point-to-point volume)\n",
                static_cast<double>(primary_user) /
                    static_cast<double>(other_user),
                primary.algorithm.c_str(),
                100.0 * static_cast<double>(primary_user) /
                    static_cast<double>(other_user),
                other.algorithm.c_str());
  }
  if (require_less_comm && primary_user >= other_user) {
    std::printf("GATE: %s user bytes (%llu) not strictly below %s's "
                "(%llu)\n",
                primary.algorithm.c_str(),
                static_cast<unsigned long long>(primary_user),
                other.algorithm.c_str(),
                static_cast<unsigned long long>(other_user));
    return 1;
  }
  return 0;
}

int cmd_report(const std::vector<std::string>& args) {
  std::string path;
  std::string flight_dir;
  std::string msgtrace_path;
  std::string compare_path;
  bool require_less_comm = false;
  int top = 5;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--top" && i + 1 < args.size()) {
      top = std::atoi(args[++i].c_str());
    } else if (args[i] == "--flight-dir" && i + 1 < args.size()) {
      flight_dir = args[++i];
    } else if (args[i] == "--msgtrace" && i + 1 < args.size()) {
      msgtrace_path = args[++i];
    } else if (args[i] == "--compare" && i + 1 < args.size()) {
      compare_path = args[++i];
    } else if (args[i] == "--require-less-comm") {
      require_less_comm = true;
    } else if (path.empty() && args[i][0] != '-') {
      path = args[i];
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();
  if (require_less_comm && compare_path.empty()) return usage();

  analysis::RunReport report;
  try {
    report = analysis::RunReport::from_metrics_json(obs::json::read_file(path));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tricount_perf: %s: %s\n", path.c_str(), e.what());
    return 2;
  }
  const analysis::Analysis result = analysis::analyze(report);
  analysis::print_report(report, result, top);
  if (!flight_dir.empty()) {
    const int rc = print_flight_section(flight_dir);
    if (rc != 0) return rc;
  }
  if (!msgtrace_path.empty()) {
    const int rc = print_causal_section(msgtrace_path, top);
    if (rc != 0) return rc;
  }
  if (!compare_path.empty()) {
    const int rc =
        print_compare_section(report, path, compare_path, require_less_comm);
    if (rc != 0) return rc;
  }
  return result.consistency_issues.empty() ? 0 : 1;
}

const char* kind_name(analysis::DiffEntry::Kind kind) {
  switch (kind) {
    case analysis::DiffEntry::Kind::kExactMismatch: return "MISMATCH";
    case analysis::DiffEntry::Kind::kRegression: return "REGRESS";
    case analysis::DiffEntry::Kind::kImprovement: return "improved";
    case analysis::DiffEntry::Kind::kInfo: return "info";
  }
  return "?";
}

int cmd_diff(const std::vector<std::string>& args) {
  std::vector<std::string> paths;
  analysis::DiffOptions options;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--max-regress" && i + 1 < args.size()) {
      if (!parse_double(args[++i].c_str(), options.max_regress_pct)) {
        return usage();
      }
    } else if (args[i] == "--noise-floor" && i + 1 < args.size()) {
      if (!parse_double(args[++i].c_str(), options.noise_floor_seconds)) {
        return usage();
      }
    } else if (args[i][0] != '-') {
      paths.push_back(args[i]);
    } else {
      return usage();
    }
  }
  if (paths.size() != 2) return usage();

  analysis::DiffResult result;
  try {
    result = analysis::diff_artifacts(obs::json::read_file(paths[0]),
                                      obs::json::read_file(paths[1]), options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tricount_perf: %s\n", e.what());
    return 2;
  }

  if (result.entries.empty()) {
    std::printf("diff: identical within thresholds (%s vs %s)\n",
                paths[0].c_str(), paths[1].c_str());
    return 0;
  }
  util::Table table({"status", "field", "baseline", "candidate", "note"});
  for (const analysis::DiffEntry& entry : result.entries) {
    table.row()
        .cell(kind_name(entry.kind))
        .cell(entry.field)
        .cell(entry.baseline, 6)
        .cell(entry.candidate, 6)
        .cell(entry.note);
  }
  table.print();
  if (result.ok) {
    std::printf("diff: OK — no regression past --max-regress %g%%\n",
                options.max_regress_pct);
    return 0;
  }
  std::printf("diff: FAILED — candidate regresses past --max-regress %g%% "
              "(or counts/structure changed)\n",
              options.max_regress_pct);
  return 1;
}

int cmd_watch(const std::vector<std::string>& args) {
  std::string path = "live.json";
  bool once = false;
  bool jsonl = false;
  long interval_ms = 500;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--file" && i + 1 < args.size()) {
      path = args[++i];
    } else if (args[i] == "--once") {
      once = true;
    } else if (args[i] == "--jsonl") {
      jsonl = true;
    } else if (args[i] == "--interval-ms" && i + 1 < args.size()) {
      interval_ms = std::max(10L, std::atol(args[++i].c_str()));
    } else {
      return usage();
    }
  }

  // Wait briefly for the publisher to create the snapshot, then stream
  // it — the same view tricount_top renders. The publisher rewrites the
  // file on every interval, so a read can race the writer and observe a
  // torn or truncated snapshot: once a snapshot has been seen, parse and
  // render failures are treated as transient and retried, and only a
  // sustained run of consecutive failures (the publisher is gone or the
  // file was replaced with garbage) ends the stream.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  constexpr int kMaxConsecutiveFailures = 100;  // ~5 s at the 50 ms retry
  int consecutive_failures = 0;
  std::string last_rendered;
  bool seen = false;
  for (;;) {
    obs::json::Value snapshot;
    std::string rendered;
    try {
      snapshot = obs::json::read_file(path);
      if (!jsonl) rendered = obs::render_telemetry(snapshot);
    } catch (const std::exception& e) {
      if (!seen && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      if (seen && ++consecutive_failures < kMaxConsecutiveFailures) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      std::fprintf(stderr, "tricount_perf: %s\n", e.what());
      return 2;
    }
    seen = true;
    consecutive_failures = 0;
    if (jsonl) {
      std::printf("%s\n", snapshot.dump().c_str());
      std::fflush(stdout);
    } else if (rendered != last_rendered) {
      if (!once && !last_rendered.empty()) std::printf("\n");
      std::fputs(rendered.c_str(), stdout);
      std::fflush(stdout);
      last_rendered = std::move(rendered);
    }
    if (once) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "--version") {
    std::printf("tricount_perf %s\n", util::build_summary().c_str());
    return 0;
  }
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "report") return cmd_report(args);
  if (command == "diff") return cmd_diff(args);
  if (command == "watch") return cmd_watch(args);
  return usage();
}
