// tricount_top — streaming view of a live run.
//
// `tricount_cli count --flight-telemetry live.json ...` (or `tricountd
// --telemetry live.json`) publishes the flight recorder's live view, a
// Chrome trace, atomically every interval; this tool polls that file and
// renders the per-rank table (phase, superstep progress, queue depths,
// memory gauges, counts), plus the daemon's health line, without
// stopping the run. See docs/observability.md for a walkthrough.
//
// Examples:
//   tricount_top --file live.json                # refreshing table
//   tricount_top --file live.json --once         # one snapshot, then exit
//   tricount_top --file live.json --jsonl        # machine-readable feed
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>

#include "tricount/obs/flight.hpp"
#include "tricount/obs/json.hpp"
#include "tricount/util/argparse.hpp"

namespace {

using namespace tricount;

/// Reads and renders one snapshot, tolerating the race where the
/// publisher has not created the file yet, is mid-rename on a
/// non-atomic filesystem, or is mid-rewrite (a torn/truncated snapshot
/// parses but fails to render, or fails to parse at all).
bool try_read(const std::string& path, bool jsonl, obs::json::Value& out,
              std::string& rendered, std::string& error) {
  try {
    out = obs::json::read_file(path);
    if (!jsonl) rendered = obs::render_telemetry(obs::Trace::from_json(out));
    return true;
  } catch (const std::exception& e) {
    error = e.what();
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("tricount_top",
                       "Streaming view of a live run's published "
                       "live view.");
  args.add_option("file", "live.json",
                  "live view path (the run's --flight-telemetry)");
  args.add_flag("once", false, "print one snapshot and exit");
  args.add_flag("jsonl", false,
                "emit one compact JSON line per refresh instead of a table");
  args.add_option("interval-ms", "500", "refresh interval in milliseconds");
  args.add_option("wait-ms", "5000",
                  "how long to wait for the snapshot file to appear");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 1;

  const std::string path = args.get("file");
  const bool once = args.get_bool("once");
  const bool jsonl = args.get_bool("jsonl");
  const auto interval = std::chrono::milliseconds(
      std::max<long long>(args.get_int("interval-ms"), 10));
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(std::max<long long>(args.get_int("wait-ms"), 0));

  // Once a snapshot has been seen, failures are treated as transient
  // (the publisher rewrites the file every interval, so reads can race
  // the writer); only a sustained run of consecutive failures ends the
  // stream.
  constexpr int kMaxConsecutiveFailures = 100;  // ~5 s at the 50 ms retry
  int consecutive_failures = 0;
  std::string last_rendered;
  bool seen = false;
  for (;;) {
    obs::json::Value snapshot;
    std::string rendered;
    std::string error;
    if (!try_read(path, jsonl, snapshot, rendered, error)) {
      if (!seen && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      if (seen && ++consecutive_failures < kMaxConsecutiveFailures) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      std::fprintf(stderr, "tricount_top: %s\n", error.c_str());
      return 1;
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
    std::this_thread::sleep_for(interval);
  }
}
