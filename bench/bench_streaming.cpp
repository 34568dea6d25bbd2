// Streaming-maintenance bench: the reason src/tricount/stream exists.
//
// Plays a schedule of small mixed edge batches (default 1% of the edge
// count, half inserts / half deletes) against a resident StreamState and
// times, per batch,
//
//   maintenance — count_delta (delta wedges only, per grid cell, on the
//                 persistent world) + apply;
//   recount     — what the service would otherwise do after a mutation:
//                 preprocess_resident on the mutated edge list + a full
//                 count_resident sweep.
//
// Every batch also cross-checks the recount's triangle total against the
// maintained one, so the bench doubles as an end-to-end differential.
// Reports per-batch means, the ratio of summed recount to summed
// maintenance time, and the median of the per-batch ratios with its
// quartiles (the noise floor). With --min-speedup > 0 it exits nonzero
// when the median per-batch ratio falls short (the
// `streaming_speedup_gate` ctest): one stalled thread wake-up slows one
// batch and moves the median by at most one rank, where it could sink a
// ratio of sums. Writes BENCH_streaming.json (tricount.bench.v1) with
// --json.
#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "tricount/core/resident.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/obs/build_info.hpp"
#include "tricount/obs/json.hpp"
#include "tricount/stream/stream.hpp"
#include "tricount/util/argparse.hpp"
#include "tricount/util/rng.hpp"
#include "tricount/util/table.hpp"
#include "tricount/util/time.hpp"

namespace {

using namespace tricount;
using graph::Edge;
using graph::VertexId;

std::uint64_t edge_key(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// A mixed batch: ~half deletes sampled from the live edges, ~half
/// inserts of absent pairs, each undirected edge at most once.
stream::Batch mixed_batch(util::Xoshiro256& rng,
                          const stream::StreamState& state,
                          std::size_t ops) {
  stream::Batch batch;
  const graph::EdgeList live = state.edge_list();
  const VertexId n = state.num_vertices();
  std::unordered_set<std::uint64_t> used;
  for (int guard = 0; batch.ops.size() < ops && guard < 100000; ++guard) {
    if (batch.ops.size() % 2 == 0 && !live.edges.empty()) {
      const Edge e = live.edges[static_cast<std::size_t>(
          rng.bounded(live.edges.size()))];
      if (!used.insert(edge_key(e.u, e.v)).second) continue;
      batch.ops.push_back(stream::DeltaOp{false, e});
    } else {
      const auto u = static_cast<VertexId>(rng.bounded(n));
      const auto v = static_cast<VertexId>(rng.bounded(n));
      if (u == v || state.has_edge(u, v)) continue;
      if (!used.insert(edge_key(u, v)).second) continue;
      batch.ops.push_back(
          stream::DeltaOp{true, Edge{std::min(u, v), std::max(u, v)}});
    }
  }
  return batch;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_streaming",
                       "Incremental maintenance vs full recount on the "
                       "resident partition (docs/streaming.md).");
  args.add_option("scale", "8", "RMAT scale of the resident graph");
  args.add_option("edge-factor", "8", "RMAT edge factor");
  args.add_option("seed", "1", "RMAT seed (also seeds the schedule)");
  args.add_option("ranks", "4", "world size (perfect square)");
  args.add_option("batches", "10", "timed batches in the schedule");
  args.add_option("batch-percent", "1.0",
                  "batch size as a percentage of the edge count");
  args.add_option("kernel", "auto",
                  "delta intersection kernel: auto | merge | galloping | "
                  "bitmap | hash");
  args.add_option("min-speedup", "0",
                  "fail (exit 1) when the median per-batch maintenance "
                  "speedup is below this (0 = report only)");
  args.add_option("json", "", "write BENCH_streaming.json into this directory");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 1;

  graph::RmatParams params;
  params.scale = static_cast<int>(args.get_int("scale"));
  params.edge_factor = args.get_double("edge-factor");
  params.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const graph::EdgeList graph = graph::rmat(params);
  const int ranks = static_cast<int>(args.get_int("ranks"));
  const int batches = std::max(1, static_cast<int>(args.get_int("batches")));
  const std::string dataset = "rmat_s" + std::to_string(params.scale);

  stream::DeltaConfig config;
  if (!kernels::parse_policy(args.get("kernel"), config.kernel)) {
    std::fprintf(stderr, "bench_streaming: bad --kernel\n");
    return 1;
  }

  stream::StreamState state = stream::StreamState::from_graph(graph);
  const std::size_t batch_ops = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(state.num_edges()) *
                                  args.get_double("batch-percent") / 100.0));
  std::printf("=== streaming maintenance: %s, %d ranks, %d x %zu-op batches "
              "===\n",
              dataset.c_str(), ranks, batches, batch_ops);

  mpisim::PersistentWorld world(ranks);
  util::Xoshiro256 rng(util::stream_seed(params.seed, 0x57e4));

  double maintenance_seconds = 0.0;
  double recount_seconds = 0.0;
  std::vector<double> batch_speedups;  ///< recount / maintenance per batch
  std::uint64_t edges_applied = 0;
  for (int i = 0; i < batches; ++i) {
    const stream::Batch batch = mixed_batch(rng, state, batch_ops);
    if (batch.ops.empty()) break;
    edges_applied += batch.ops.size();

    double start = util::wall_seconds();
    const stream::DeltaResult delta =
        stream::count_delta(world, state, batch, config);
    stream::apply(state, batch, delta);
    const double maintenance = util::wall_seconds() - start;
    maintenance_seconds += maintenance;

    // A full recount: re-preprocess the mutated graph and run a
    // full counting sweep on the resident blocks. (The service patches
    // its resident blocks for the batch instead; docs/service.md.)
    const graph::EdgeList snapshot = state.edge_list();
    start = util::wall_seconds();
    core::RunOptions run_options;
    const core::ResidentPartition partition =
        core::preprocess_resident(world, snapshot, run_options);
    const core::RunResult recount =
        core::count_resident(world, partition, run_options.config);
    const double recount_time = util::wall_seconds() - start;
    recount_seconds += recount_time;
    if (maintenance > 0.0) batch_speedups.push_back(recount_time / maintenance);

    if (recount.triangles != state.triangles()) {
      std::fprintf(stderr,
                   "bench_streaming: maintained %llu != recount %llu at "
                   "batch %d\n",
                   static_cast<unsigned long long>(state.triangles()),
                   static_cast<unsigned long long>(recount.triangles), i);
      return 1;
    }
  }

  const double speedup =
      maintenance_seconds > 0.0 ? recount_seconds / maintenance_seconds : 0.0;
  // Quantile q of the per-batch ratios, interpolating between ranks.
  std::sort(batch_speedups.begin(), batch_speedups.end());
  auto batch_quantile = [&](double q) {
    if (batch_speedups.empty()) return 0.0;
    const double rank = q * static_cast<double>(batch_speedups.size() - 1);
    const auto below = static_cast<std::size_t>(rank);
    const std::size_t above = std::min(below + 1, batch_speedups.size() - 1);
    const double frac = rank - static_cast<double>(below);
    return batch_speedups[below] * (1.0 - frac) + batch_speedups[above] * frac;
  };
  const double median_speedup = batch_quantile(0.5);
  const double q25_speedup = batch_quantile(0.25);
  const double q75_speedup = batch_quantile(0.75);
  util::Table table({"metric", "value"});
  table.row().cell("batches").cell(static_cast<std::uint64_t>(batches));
  table.row().cell("ops per batch").cell(static_cast<std::uint64_t>(batch_ops));
  table.row().cell("edges applied").cell(edges_applied);
  table.row()
      .cell("maintenance mean (s)")
      .cell(maintenance_seconds / batches, 6);
  table.row().cell("recount mean (s)").cell(recount_seconds / batches, 6);
  table.row().cell("maintenance speedup, ratio of sums (x)").cell(speedup, 1);
  table.row()
      .cell("per-batch speedup median (x)")
      .cell(median_speedup, 2);
  table.row().cell("per-batch speedup q25 (x)").cell(q25_speedup, 2);
  table.row().cell("per-batch speedup q75 (x)").cell(q75_speedup, 2);
  table.row().cell("triangles (final)").cell(state.triangles());
  std::fputs(table.str().c_str(), stdout);

  const std::string json_dir = args.get("json");
  if (!json_dir.empty()) {
    obs::json::Value record = obs::json::Value::object();
    record.set("dataset", dataset);
    record.set("ranks", ranks);
    record.set("batches", static_cast<std::uint64_t>(batches));
    record.set("batch_ops", static_cast<std::uint64_t>(batch_ops));
    record.set("edges_applied", edges_applied);
    record.set("kernel", args.get("kernel"));
    record.set("maintenance_seconds", maintenance_seconds);
    record.set("recount_seconds", recount_seconds);
    record.set("maintenance_speedup", speedup);
    record.set("batch_speedup_median", median_speedup);
    record.set("batch_speedup_q25", q25_speedup);
    record.set("batch_speedup_q75", q75_speedup);
    record.set("triangles_final", state.triangles());

    obs::json::Value root = obs::json::Value::object();
    root.set("schema", "tricount.bench.v1");
    root.set("bench", "streaming");
    root.set("build", obs::build_info_json());
    obs::json::Value records = obs::json::Value::array();
    records.push_back(std::move(record));
    root.set("records", std::move(records));
    const std::string path = json_dir + "/BENCH_streaming.json";
    obs::json::write_file(root, path);
    std::printf("[json] wrote %s\n", path.c_str());
  }

  const double min_speedup = args.get_double("min-speedup");
  if (min_speedup > 0.0 && median_speedup < min_speedup) {
    std::fprintf(stderr,
                 "bench_streaming: median per-batch speedup %.2fx (quartiles "
                 "%.2f-%.2fx) below the %.1fx gate\n",
                 median_speedup, q25_speedup, q75_speedup, min_speedup);
    return 1;
  }
  return 0;
}
