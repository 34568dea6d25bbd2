// Shared infrastructure for the experiment-reproduction benches: the
// scaled dataset roster standing in for the paper's Table 1 datasets, the
// rank schedule of the paper's experiments, and small report helpers.
//
// Dataset mapping (DESIGN.md §1): the paper's graphs are billions of
// edges on a 29-node cluster; these surrogates keep the same generator
// families and degree-distribution character at a scale a single
// simulated host covers in seconds. Every bench accepts --scale and
// --ranks to push the sweep larger.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "tricount/chaos/options.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/kernels/kernels.hpp"
#include "tricount/obs/build_info.hpp"
#include "tricount/obs/json.hpp"
#include "tricount/util/argparse.hpp"
#include "tricount/util/table.hpp"

namespace tricount::bench {

struct Dataset {
  std::string name;
  graph::RmatParams params;
};

/// The four main datasets of Table 2, scaled: two Graph500 surrogates and
/// the two social-network surrogates. `scale` sets the g500 sizes; the
/// social graphs track it one step smaller (as in the paper, where the
/// social graphs are the smaller inputs).
inline std::vector<Dataset> paper_datasets(int scale) {
  std::vector<Dataset> datasets;
  {
    graph::RmatParams p;
    p.scale = scale - 1;
    p.seed = 260;
    datasets.push_back({"g500-s" + std::to_string(p.scale), p});
  }
  {
    graph::RmatParams p;
    p.scale = scale;
    p.seed = 290;
    datasets.push_back({"g500-s" + std::to_string(p.scale), p});
  }
  datasets.push_back({"twitter-like", graph::twitter_like_params(scale - 2)});
  datasets.push_back(
      {"friendster-like", graph::friendster_like_params(scale - 1)});
  return datasets;
}

/// The single large dataset used by the overhead analyses (the paper uses
/// g500-s29 there).
inline Dataset overhead_dataset(int scale) {
  graph::RmatParams p;
  p.scale = scale;
  p.seed = 290;
  return {"g500-s" + std::to_string(p.scale) + " (s29 surrogate)", p};
}

/// The paper's rank schedule: every perfect square from 16 to 169.
inline std::vector<int> paper_rank_schedule() {
  return {16, 25, 36, 49, 64, 81, 100, 121, 144, 169};
}

inline std::vector<int> ranks_from_args(const util::ArgParser& args) {
  std::vector<int> ranks;
  for (const std::int64_t r : args.get_int_list("ranks")) {
    ranks.push_back(static_cast<int>(r));
  }
  return ranks;
}

/// Registers the options every bench shares.
inline void add_common_options(util::ArgParser& args, int default_scale,
                               const std::string& default_ranks) {
  args.add_option("scale", std::to_string(default_scale),
                  "base graph scale (n = 2^scale for the largest g500 surrogate)");
  args.add_option("ranks", default_ranks, "comma-separated rank counts");
  args.add_option("model", "",
                  "alpha-beta network model override as 'alpha,beta'");
  args.add_option("kernel", "auto",
                  "intersection kernel: auto | merge | galloping | bitmap | "
                  "hash (docs/kernels.md)");
  args.add_flag("overlap", false,
                "overlap block shifts / panel broadcasts with intersections "
                "(docs/overlap.md)");
  args.add_option("reps", "3",
                  "repetitions per configuration; the median run (by "
                  "overall modeled time) is reported, damping scheduler "
                  "noise in the per-rank CPU samples");
  args.add_option("csv", "",
                  "also write the table data as CSV to this path (multi-"
                  "dataset benches insert the dataset name before the "
                  "extension)");
  args.add_option("json", "",
                  "also write machine-readable run records as "
                  "BENCH_<name>.json into this directory ('.' for cwd)");
  // Fault-injection knobs (inert without --chaos-seed); lets any bench
  // measure the algorithm's behavior on a faulty fabric (docs/chaos.md).
  chaos::add_chaos_options(args);
}

/// The chaos plan the bench's --chaos-* options describe for a `ranks`-
/// rank world, or nullptr when chaos is off. Re-resolve per rank count:
/// the seed-derived straggler/crash ranks depend on the world size.
inline std::shared_ptr<const chaos::FaultPlan> chaos_from_args(
    const util::ArgParser& args, int ranks) {
  return chaos::plan_from_args(args, ranks);
}

/// Writes `table` to the --csv path if one was given. `tag` (e.g. the
/// dataset name) is inserted before the extension when non-empty.
inline void maybe_write_csv(const util::Table& table, const std::string& base,
                            const std::string& tag = "") {
  if (base.empty()) return;
  std::string path = base;
  if (!tag.empty()) {
    std::string safe = tag;
    for (char& c : safe) {
      if (c == '/' || c == ' ') c = '_';
    }
    const std::size_t dot = path.rfind('.');
    if (dot == std::string::npos) {
      path += "." + safe;
    } else {
      path.insert(dot, "." + safe);
    }
  }
  table.write_csv(path);
  std::printf("[csv] wrote %s\n", path.c_str());
}

/// Runs the pipeline `reps` times and merges them by taking, for every
/// (rank, superstep) sample, the *median* CPU time across repetitions.
///
/// Rationale: the modeled superstep time is a max over ranks, and on an
/// oversubscribed host any single rank's CPU reading can be inflated by
/// scheduler interference (cold caches after preemption). The per-sample
/// median is a robust estimator of each rank's true work; traffic and
/// operation counters are deterministic, so they are taken from the first
/// run unchanged.
/// `run_once(csr, ranks, options)` produces one repetition; the overload
/// below defaults it to the 2D pipeline, and benches sweeping other
/// algorithms (e.g. --algo cetric) pass their own counter.
template <typename Runner>
inline core::RunResult median_run(const graph::Csr& csr, int ranks,
                                  const core::RunOptions& options, int reps,
                                  Runner&& run_once) {
  std::vector<core::RunResult> runs;
  runs.reserve(static_cast<std::size_t>(std::max(1, reps)));
  for (int i = 0; i < std::max(1, reps); ++i) {
    runs.push_back(run_once(csr, ranks, options));
  }
  core::RunResult merged = runs.front();
  auto median_of = [&](auto getter) {
    std::vector<double> values;
    values.reserve(runs.size());
    for (const core::RunResult& r : runs) values.push_back(getter(r));
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
  };
  for (std::size_t rank = 0; rank < merged.per_rank.size(); ++rank) {
    auto& stats = merged.per_rank[rank];
    for (std::size_t s = 0; s < stats.pre_steps.size(); ++s) {
      stats.pre_steps[s].second.compute_cpu_seconds =
          median_of([&](const core::RunResult& r) {
            return r.per_rank[rank].pre_steps[s].second.compute_cpu_seconds;
          });
      stats.pre_steps[s].second.comm_cpu_seconds =
          median_of([&](const core::RunResult& r) {
            return r.per_rank[rank].pre_steps[s].second.comm_cpu_seconds;
          });
    }
    for (std::size_t s = 0; s < stats.shifts.size(); ++s) {
      stats.shifts[s].compute_cpu_seconds =
          median_of([&](const core::RunResult& r) {
            return r.per_rank[rank].shifts[s].compute_cpu_seconds;
          });
      stats.shifts[s].comm_cpu_seconds =
          median_of([&](const core::RunResult& r) {
            return r.per_rank[rank].shifts[s].comm_cpu_seconds;
          });
    }
  }
  return merged;
}

inline core::RunResult median_run(const graph::Csr& csr, int ranks,
                                  const core::RunOptions& options, int reps) {
  return median_run(csr, ranks, options, reps,
                    [](const graph::Csr& c, int r, const core::RunOptions& o) {
                      return core::count_triangles_2d(c, r, o);
                    });
}

/// Collects one JSON record per (dataset, rank count) configuration and
/// writes them as BENCH_<name>.json — the machine-readable counterpart of
/// the printed table, with a fixed schema so plots and regression checks
/// can consume any bench's output uniformly.
class JsonReport {
 public:
  /// `name` is the bench name without the BENCH_ prefix / .json suffix.
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  /// Appends one run's record. Extra bench-specific values can be attached
  /// to the returned object before the report is written.
  obs::json::Value& add_record(const std::string& dataset,
                               const core::RunResult& r) {
    obs::json::Value record = obs::json::Value::object();
    record.set("dataset", dataset);
    record.set("ranks", r.ranks);
    record.set("algorithm", r.algorithm);
    record.set("triangles", static_cast<std::uint64_t>(r.triangles));
    record.set("vertices", static_cast<std::uint64_t>(r.num_vertices));
    record.set("edges", static_cast<std::uint64_t>(r.num_edges));
    record.set("pre_modeled_seconds", r.pre_modeled_seconds());
    record.set("tc_modeled_seconds", r.tc_modeled_seconds());
    record.set("total_modeled_seconds", r.total_modeled_seconds());
    record.set("pre_modeled_comm_seconds", r.pre_modeled_comm_seconds());
    record.set("tc_modeled_comm_seconds", r.tc_modeled_comm_seconds());
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    for (const mpisim::PerfCounters& c : r.per_rank_counters) {
      messages += c.messages_sent;
      bytes += c.bytes_sent;
    }
    record.set("messages_sent", messages);
    record.set("bytes_sent", bytes);
    records_.push_back(std::move(record));
    return records_.back();
  }

  /// Same, but with the dataset's generator parameters and the run's cost
  /// model embedded as a `provenance` object — `tricount_perf diff`
  /// refuses to compare records whose provenance differs, so two
  /// BENCH_*.json files only gate each other when they measured the same
  /// configuration.
  obs::json::Value& add_record(const Dataset& dataset,
                               const core::RunResult& r) {
    obs::json::Value& record = add_record(dataset.name, r);
    obs::json::Value generator = obs::json::Value::object();
    generator.set("scale", dataset.params.scale);
    generator.set("edge_factor", dataset.params.edge_factor);
    generator.set("a", dataset.params.a);
    generator.set("b", dataset.params.b);
    generator.set("c", dataset.params.c);
    generator.set("d", dataset.params.d);
    generator.set("scramble_ids", dataset.params.scramble_ids);
    generator.set("seed", dataset.params.seed);
    obs::json::Value provenance = obs::json::Value::object();
    provenance.set("generator", std::move(generator));
    provenance.set("ranks", r.ranks);
    // Part of provenance so `tricount_perf diff` never gates a cetric
    // record against a 2D one.
    provenance.set("algorithm", r.algorithm);
    obs::json::Value model = obs::json::Value::object();
    model.set("alpha_seconds", r.model.alpha_seconds);
    model.set("beta_seconds_per_byte", r.model.beta_seconds_per_byte);
    provenance.set("model", std::move(model));
    record.set("provenance", std::move(provenance));
    return record;
  }

  /// Writes BENCH_<name>.json into `directory` (no-op when empty — the
  /// --json option was not given).
  void maybe_write(const std::string& directory) const {
    if (directory.empty()) return;
    obs::json::Value root = obs::json::Value::object();
    root.set("schema", "tricount.bench.v1");
    root.set("bench", name_);
    // Build provenance at the top level — outside each record's
    // `provenance` object, which tricount_perf diff compares for
    // equality, so records from different builds still gate each other.
    root.set("build", obs::build_info_json());
    obs::json::Value list = obs::json::Value::array();
    for (const obs::json::Value& record : records_) list.push_back(record);
    root.set("records", std::move(list));
    const std::string path = directory + "/BENCH_" + name_ + ".json";
    obs::json::write_file(root, path);
    std::printf("[json] wrote %s\n", path.c_str());
  }

 private:
  std::string name_;
  std::vector<obs::json::Value> records_;
};

/// Parses --model; exits loudly on a malformed spec so a sweep script
/// can't silently benchmark with the default model.
inline util::AlphaBetaModel model_from_args(const util::ArgParser& args) {
  const std::string spec = args.get("model");
  if (spec.empty()) return util::AlphaBetaModel{};
  try {
    return util::AlphaBetaModel::from_string(spec.c_str());
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bad --model: %s\n", e.what());
    std::exit(1);
  }
}

/// Parses --kernel; exits loudly on an unknown spelling so a sweep script
/// can't silently fall back to the default kernel.
inline kernels::KernelPolicy kernel_from_args(const util::ArgParser& args) {
  kernels::KernelPolicy policy = kernels::KernelPolicy::kAuto;
  if (!kernels::parse_policy(args.get("kernel"), policy)) {
    std::fprintf(stderr, "unknown --kernel '%s'\n", args.get("kernel").c_str());
    std::exit(1);
  }
  return policy;
}

/// Prints the bench banner with the paper reference for the experiment.
inline void banner(const std::string& experiment, const std::string& note) {
  std::printf("=== %s ===\n", experiment.c_str());
  std::printf("%s\n", note.c_str());
}

}  // namespace tricount::bench
