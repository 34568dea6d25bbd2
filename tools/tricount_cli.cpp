// tricount — command-line front end to the library.
//
// Subcommands:
//   generate   create a graph file (rmat / er / ws / twitter / friendster)
//   stats      structural statistics of a graph file
//   count      distributed triangle counting (2d / cetric / summa / aop /
//              push / wedge)
//   pervertex  distributed per-vertex counts and clustering coefficients
//   truss      k-truss decomposition summary
//   convert    convert between edge-list / MatrixMarket / binary formats
//   summary    pretty-print a metrics JSON saved by count --metrics-out
//
// Examples:
//   tricount_cli generate --type rmat --scale 14 --out g.mtx
//   tricount_cli count --file g.mtx --ranks 16
//   tricount_cli count --file g.mtx --trace-out t.json --metrics-out m.json
//   tricount_cli count --file g.mtx --algorithm summa --grid-rows 2 --grid-cols 8
//   tricount_cli pervertex --file g.mtx --ranks 9 --top 5
//   tricount_cli summary --file m.json --comm-matrix
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "tricount/baselines/aop1d.hpp"
#include "tricount/baselines/push_based1d.hpp"
#include "tricount/baselines/wedge_counting.hpp"
#include "tricount/cetric/cetric.hpp"
#include "tricount/chaos/options.hpp"
#include "tricount/core/artifacts.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/core/per_vertex.hpp"
#include "tricount/core/summa2d.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/io.hpp"
#include "tricount/graph/ktruss.hpp"
#include "tricount/graph/serial_count.hpp"
#include "tricount/graph/stats.hpp"
#include "tricount/kernels/kernels.hpp"
#include "tricount/obs/analysis.hpp"
#include "tricount/obs/flight.hpp"
#include "tricount/obs/graceful.hpp"
#include "tricount/obs/msgtrace.hpp"
#include "tricount/util/argparse.hpp"
#include "tricount/util/build.hpp"
#include "tricount/util/log.hpp"
#include "tricount/util/table.hpp"

namespace {

using namespace tricount;

bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void store(const graph::EdgeList& g, const std::string& path) {
  if (has_suffix(path, ".mtx")) {
    graph::write_matrix_market(g, path);
  } else if (has_suffix(path, ".bin")) {
    graph::write_binary(g, path);
  } else {
    graph::write_edge_list(g, path);
  }
}

int cmd_generate(int argc, const char* const* argv) {
  util::ArgParser args("tricount_cli generate", "Generate a graph file.");
  args.add_option("type", "rmat", "rmat | er | ws | twitter | friendster");
  args.add_option("scale", "12", "log2 vertex count (rmat-family types)");
  args.add_option("edge-factor", "16", "edges per vertex (rmat)");
  args.add_option("n", "1024", "vertices (er / ws)");
  args.add_option("edges", "8192", "edges (er)");
  args.add_option("k", "6", "ring-lattice degree (ws, even)");
  args.add_option("beta", "0.1", "rewiring probability (ws)");
  args.add_option("seed", "1", "random seed");
  args.add_option("out", "graph.mtx", "output path (.txt / .mtx / .bin)");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 1;

  const std::string type = args.get("type");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  graph::EdgeList g;
  if (type == "rmat" || type == "twitter" || type == "friendster") {
    graph::RmatParams params;
    const int scale = static_cast<int>(args.get_int("scale"));
    if (type == "twitter") {
      params = graph::twitter_like_params(scale, seed);
    } else if (type == "friendster") {
      params = graph::friendster_like_params(scale, seed);
    } else {
      params.scale = scale;
      params.edge_factor = args.get_double("edge-factor");
      params.seed = seed;
    }
    g = graph::rmat(params);
  } else if (type == "er") {
    g = graph::erdos_renyi(static_cast<graph::VertexId>(args.get_int("n")),
                           static_cast<graph::EdgeIndex>(args.get_int("edges")),
                           seed);
  } else if (type == "ws") {
    g = graph::watts_strogatz(static_cast<graph::VertexId>(args.get_int("n")),
                              static_cast<int>(args.get_int("k")),
                              args.get_double("beta"), seed);
  } else {
    std::fprintf(stderr, "unknown --type '%s'\n", type.c_str());
    return 1;
  }
  store(g, args.get("out"));
  std::printf("wrote %s: %u vertices, %zu edges\n", args.get("out").c_str(),
              g.num_vertices, g.edges.size());
  return 0;
}

int cmd_stats(int argc, const char* const* argv) {
  util::ArgParser args("tricount_cli stats", "Graph statistics.");
  args.add_option("file", "", "input graph (.txt / .mtx / .bin)");
  args.add_flag("truss", false, "also compute the k-truss decomposition");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 1;

  const graph::EdgeList g = graph::simplify(graph::read_graph(args.get("file")));
  const graph::Csr csr = graph::Csr::from_edges(g);
  const auto triangles = graph::count_triangles_serial(csr);
  util::Table table({"metric", "value"});
  table.row().cell("vertices").cell(static_cast<std::uint64_t>(g.num_vertices));
  table.row().cell("edges").cell(static_cast<std::uint64_t>(g.edges.size()));
  table.row().cell("max degree").cell(static_cast<std::uint64_t>(csr.max_degree()));
  const double avg_deg =
      g.num_vertices == 0 ? 0.0
                          : 2.0 * static_cast<double>(g.edges.size()) /
                                static_cast<double>(g.num_vertices);
  table.row().cell("avg degree").cell(avg_deg, 2);
  table.row().cell("triangles").cell(static_cast<std::uint64_t>(triangles));
  table.row().cell("wedges").cell(static_cast<std::uint64_t>(graph::count_wedges(csr)));
  table.row().cell("transitivity").cell(graph::transitivity(csr), 6);
  table.row().cell("avg local clustering").cell(graph::average_local_clustering(csr), 6);
  const graph::DegreeStats deg = graph::degree_stats(csr);
  table.row().cell("median degree").cell(deg.median_degree, 1);
  table.row().cell("degree CoV (skew)").cell(deg.coefficient_of_variation, 3);
  table.row().cell("isolated vertices").cell(static_cast<std::uint64_t>(deg.isolated_vertices));
  table.row().cell("assortativity").cell(graph::degree_assortativity(csr), 4);
  const graph::ComponentStats cc = graph::connected_components(csr);
  table.row().cell("components").cell(static_cast<std::uint64_t>(cc.num_components));
  table.row().cell("largest component").cell(static_cast<std::uint64_t>(cc.largest_component));
  table.row().cell("2-core size").cell(static_cast<std::uint64_t>(graph::two_core_size(g)));
  if (args.get_bool("truss")) {
    const graph::KtrussResult truss = graph::ktruss_decomposition(g);
    table.row().cell("max k-truss").cell(static_cast<std::int64_t>(truss.max_k));
    table.row().cell("max-truss edges").cell(static_cast<std::uint64_t>(
        truss.truss_edges(g, truss.max_k).size()));
  }
  table.print();
  return 0;
}

/// Renders a p×p traffic matrix as a heatmap table: each cell shows its
/// byte count plus an ASCII intensity mark scaled to the largest cell.
void print_comm_heatmap(const std::vector<std::vector<std::uint64_t>>& bytes) {
  static const char kRamp[] = " .:-=+*#%@";
  std::uint64_t max_cell = 0;
  for (const auto& row : bytes) {
    for (const std::uint64_t b : row) max_cell = std::max(max_cell, b);
  }
  std::vector<std::string> headers{"src\\dst"};
  for (std::size_t d = 0; d < bytes.size(); ++d) {
    headers.push_back(std::to_string(d));
  }
  headers.push_back("row total");
  util::Table table(std::move(headers));
  for (std::size_t s = 0; s < bytes.size(); ++s) {
    table.row().cell(std::to_string(s));
    std::uint64_t row_total = 0;
    for (const std::uint64_t b : bytes[s]) {
      row_total += b;
      const std::size_t level =
          max_cell == 0 ? 0
                        : (static_cast<std::size_t>(
                               static_cast<double>(b) /
                               static_cast<double>(max_cell) * 9.0));
      table.cell(std::to_string(b) + " " + kRamp[std::min<std::size_t>(level, 9)]);
    }
    table.cell(row_total);
  }
  table.row().cell("col total");
  std::uint64_t grand = 0;
  for (std::size_t d = 0; d < bytes.size(); ++d) {
    std::uint64_t col_total = 0;
    for (std::size_t s = 0; s < bytes.size(); ++s) col_total += bytes[s][d];
    grand += col_total;
    table.cell(col_total);
  }
  table.cell(grand);
  table.print();
}

void print_comm_heatmap(const mpisim::CommMatrix& matrix) {
  std::vector<std::vector<std::uint64_t>> bytes(
      static_cast<std::size_t>(matrix.size()),
      std::vector<std::uint64_t>(static_cast<std::size_t>(matrix.size()), 0));
  for (int s = 0; s < matrix.size(); ++s) {
    for (int d = 0; d < matrix.size(); ++d) {
      bytes[static_cast<std::size_t>(s)][static_cast<std::size_t>(d)] =
          matrix.at(s, d).bytes();
    }
  }
  util::print_heading("communication matrix (bytes, user + collective)");
  print_comm_heatmap(bytes);
}

/// Owns the flight recorder and the optional publisher thread of its live
/// view for one `count` run (docs/observability.md). Scope
/// exit tears everything down — including during exception unwinding, so
/// a watchdog-stall ChaosError still leaves the auto dump behind and no
/// installed recorder dangling.
class FlightSession {
 public:
  FlightSession(const util::ArgParser& args, int ranks) {
    if (args.get("flight") == "off") return;
    const auto capacity = static_cast<std::size_t>(
        std::max<long long>(args.get_int("flight-capacity"), 1));
    dump_dir_ = args.get("flight-dump");
    dump_on_exit_ = args.get_bool("flight-dump-on-exit");
    recorder_ = std::make_unique<obs::FlightRecorder>(ranks, capacity);
    recorder_->set_auto_dump_dir(dump_dir_);
    recorder_->install();
    obs::FlightRecorder::install_signal_handlers();
    telemetry_path_ = args.get("flight-telemetry");
    // Operator signals (ctrl-C, kill) salvage the same artifacts the
    // fatal-signal path does, then exit 0 instead of dying mid-run.
    obs::set_shutdown_telemetry(telemetry_path_);
    obs::install_shutdown_handlers(obs::ShutdownMode::kFlushAndExit);
    if (!telemetry_path_.empty()) {
      const auto interval = std::chrono::milliseconds(std::max<long long>(
          args.get_int("flight-telemetry-interval-ms"), 10));
      publisher_ = std::thread([this, interval] {
        util::set_thread_label("tlm");
        std::unique_lock<std::mutex> lock(mutex_);
        while (!stop_) {
          lock.unlock();
          try {
            recorder_->live_trace().publish(telemetry_path_);
          } catch (const std::exception&) {
            // Best-effort: a failed snapshot must never fail the run.
          }
          lock.lock();
          cv_.wait_for(lock, interval, [this] { return stop_; });
        }
      });
    }
  }

  ~FlightSession() {
    obs::set_shutdown_telemetry("");
    if (publisher_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
      }
      cv_.notify_all();
      publisher_.join();
      try {
        recorder_->live_trace().publish(telemetry_path_);  // post-run view
      } catch (const std::exception&) {
      }
    }
    if (recorder_ != nullptr) {
      if (dump_on_exit_ && !recorder_->auto_dumped()) {
        try {
          recorder_->dump(dump_dir_, "exit");
        } catch (const std::exception& e) {
          std::fprintf(stderr, "flight: exit dump failed: %s\n", e.what());
        }
      }
      recorder_->uninstall();
    }
  }

  FlightSession(const FlightSession&) = delete;
  FlightSession& operator=(const FlightSession&) = delete;

 private:
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::thread publisher_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool dump_on_exit_ = false;
  std::string dump_dir_;
  std::string telemetry_path_;
};

/// Owns the causal message-trace capture for one `count` run. Separate
/// from FlightSession because msgtrace is off by default (capture adds a
/// record per message; the flight recorder is cheap enough to stay on):
/// no --msgtrace means no MsgTrace is ever constructed, so the capture
/// sites record nothing and no message trace is written.
class MsgTraceSession {
 public:
  MsgTraceSession(const util::ArgParser& args, int ranks) {
    if (!args.get_bool("msgtrace")) return;
    const auto capacity = static_cast<std::size_t>(
        std::max<long long>(args.get_int("msgtrace-capacity"), 1));
    trace_ = std::make_unique<obs::MsgTrace>(ranks, capacity);
    trace_->install();
  }

  ~MsgTraceSession() {
    if (trace_ != nullptr) trace_->uninstall();
  }

  MsgTraceSession(const MsgTraceSession&) = delete;
  MsgTraceSession& operator=(const MsgTraceSession&) = delete;

  const obs::MsgTrace* trace() const { return trace_.get(); }

 private:
  std::unique_ptr<obs::MsgTrace> trace_;
};

int cmd_count(int argc, const char* const* argv) {
  util::ArgParser args("tricount_cli count",
                       "Distributed triangle counting.");
  args.add_option("file", "", "input graph (.txt / .mtx / .bin)");
  args.add_option("ranks", "16", "simulated ranks (perfect square for 2d)");
  args.add_option("algorithm", "2d",
                  "2d | cetric | summa | aop | push | wedge");
  args.add_option("algo", "", "alias for --algorithm");
  args.add_option("grid-rows", "0", "summa grid rows (0 = auto)");
  args.add_option("grid-cols", "0", "summa grid cols (0 = auto)");
  args.add_option("enumeration", "jik", "jik | ijk");
  args.add_option("kernel", "auto",
                  "intersection kernel: auto | merge | galloping | bitmap | "
                  "hash (docs/kernels.md)");
  args.add_flag("doubly-sparse", true, "doubly sparse traversal (§5.2)");
  args.add_flag("modified-hashing", true, "probe-free hashing (§5.2)");
  args.add_flag("backward-exit", true, "backward early exit (§5.2)");
  args.add_flag("blob", true, "blob communication (§5.2)");
  args.add_flag("overlap", false,
                "overlap block shifts / panel broadcasts with intersections "
                "(2d and summa; docs/overlap.md)");
  args.add_option("trace-out", "",
                  "write a Chrome trace-event JSON timeline");
  args.add_option("metrics-out", "", "write the metrics JSON artifact");
  args.add_flag("comm-matrix", false, "print the p x p traffic heatmap");
  args.add_option("model", "",
                  "alpha,beta cost-model override, e.g. 1.5e-6,2.9e-10");
  args.add_flag("analyze", false, "print the perf-doctor bottleneck report");
  args.add_option("watchdog", "0",
                  "hang-watchdog budget in seconds (0 = auto, negative = "
                  "off; see docs/chaos.md)");
  args.add_option("flight", "on",
                  "flight recorder and its live view: on | off "
                  "(docs/observability.md)");
  args.add_option("flight-capacity", "4096",
                  "flight ring capacity in records per rank");
  args.add_option("flight-dump", "flight-dumps",
                  "directory for automatic flight dumps (written only on "
                  "chaos crash, watchdog stall, fatal signal, or "
                  "--flight-dump-on-exit)");
  args.add_flag("flight-dump-on-exit", false,
                "also dump the flight rings when the run ends");
  args.add_option("flight-telemetry", "",
                  "publish the flight recorder's live view, a Chrome "
                  "trace, to this path (read by tricount_top)");
  args.add_option("flight-telemetry-interval-ms", "200",
                  "telemetry publish interval in milliseconds");
  args.add_flag("msgtrace", false,
                "capture causal message traces and write them as a Chrome "
                "trace of per-rank msg spans and flows "
                "(docs/observability.md)");
  args.add_option("msgtrace-out", "msgtrace.json",
                  "path for the message trace (with --msgtrace)");
  args.add_option("msgtrace-capacity", "65536",
                  "msgtrace buffer capacity in records per rank");
  chaos::add_chaos_options(args);
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 1;

  const graph::EdgeList g = graph::simplify(graph::read_graph(args.get("file")));
  const int ranks = static_cast<int>(args.get_int("ranks"));
  const std::string algorithm = args.get("algo").empty()
                                    ? args.get("algorithm")
                                    : args.get("algo");

  core::Config config;
  config.enumeration = args.get("enumeration") == "ijk"
                           ? core::Enumeration::kIJK
                           : core::Enumeration::kJIK;
  if (!kernels::parse_policy(args.get("kernel"), config.kernel)) {
    std::fprintf(stderr, "unknown --kernel '%s'\n", args.get("kernel").c_str());
    return 1;
  }
  config.doubly_sparse = args.get_bool("doubly-sparse");
  config.modified_hashing = args.get_bool("modified-hashing");
  config.backward_early_exit = args.get_bool("backward-exit");
  config.blob_comm = args.get_bool("blob");
  config.overlap = args.get_bool("overlap");
  const double watchdog = args.get_double("watchdog");

  const bool baseline =
      algorithm == "aop" || algorithm == "push" || algorithm == "wedge";
  if (!baseline && algorithm != "2d" && algorithm != "cetric" &&
      algorithm != "summa") {
    std::fprintf(stderr, "unknown --algorithm '%s'\n", algorithm.c_str());
    return 1;
  }
  // Every counter returns a full core::RunResult, so the entire artifact
  // pipeline (trace, metrics, msgtrace, heatmap, analyzer) is shared.
  // SummaOptions is RunOptions plus the SUMMA grid.
  core::SummaOptions options;
  options.config = config;
  int world = ranks;
  if (algorithm == "summa") {
    int rows = static_cast<int>(args.get_int("grid-rows"));
    int cols = static_cast<int>(args.get_int("grid-cols"));
    if (rows <= 0 || cols <= 0) {
      // Auto: most-square factorization of `ranks`.
      rows = 1;
      for (int r = 1; r * r <= ranks; ++r) {
        if (ranks % r == 0) rows = r;
      }
      cols = ranks / rows;
    }
    options.grid_rows = rows;
    options.grid_cols = cols;
    world = rows * cols;
  }
  options.chaos = chaos::plan_from_args(args, world);
  if (baseline && options.chaos != nullptr) {
    std::fprintf(stderr,
                 "count: --algorithm %s runs no fault injection; drop "
                 "--chaos-seed and --chaos-replay\n",
                 algorithm.c_str());
    return 1;
  }
  options.watchdog_seconds = watchdog;
  if (!args.get("model").empty()) {
    try {
      options.model =
          util::AlphaBetaModel::from_string(args.get("model").c_str());
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "bad --model: %s\n", e.what());
      return 1;
    }
  }
  FlightSession flight_session(args, world);
  MsgTraceSession msgtrace_session(args, world);
  const core::RunResult result = [&] {
    if (algorithm == "summa") return core::count_triangles_summa(g, options);
    if (algorithm == "cetric") {
      return cetric::count_triangles_cetric(g, ranks, options);
    }
    if (algorithm == "aop") {
      baselines::AopOptions aop;
      aop.model = options.model;
      aop.kernel = config.kernel;
      return baselines::count_triangles_aop1d(g, ranks, aop);
    }
    if (algorithm == "push") {
      baselines::PushOptions push;
      push.model = options.model;
      push.kernel = config.kernel;
      return baselines::count_triangles_push1d(g, ranks, push);
    }
    if (algorithm == "wedge") {
      baselines::WedgeOptions wedge;
      wedge.model = options.model;
      return baselines::count_triangles_wedge(g, ranks, wedge);
    }
    return core::count_triangles_2d(g, ranks, options);
  }();
  if (algorithm == "cetric") {
    const core::CetricRankCounters cet = result.total_cetric();
    std::printf("cetric: %llu local + %llu cut triangles, %llu cut "
                "wedges sent\n",
                static_cast<unsigned long long>(cet.local_triangles),
                static_cast<unsigned long long>(cet.cut_triangles),
                static_cast<unsigned long long>(cet.cut_wedges_sent));
  } else if (algorithm == "summa") {
    std::printf("summa: grid %dx%d, %zu panel steps\n", options.grid_rows,
                options.grid_cols, result.num_shifts());
  } else if (algorithm == "wedge") {
    std::printf("wedge: %llu wedges checked, %llu vertices peeled\n",
                static_cast<unsigned long long>(result.tc_ops()),
                static_cast<unsigned long long>(result.pre_ops()));
  }
  std::printf("triangles: %llu\n",
              static_cast<unsigned long long>(result.triangles));
  std::printf("modeled ppt/tct/overall: %.4f / %.4f / %.4f s\n",
              result.pre_modeled_seconds(), result.tc_modeled_seconds(),
              result.total_modeled_seconds());
  if (result.chaos_enabled) {
    const mpisim::ChaosCounters c = result.total_chaos();
    std::printf("chaos: %llu faults injected (drop %llu, dup %llu, "
                "reorder %llu, delay %llu), %llu retransmits, %llu dups "
                "discarded, %llu crash(es) recovered\n",
                static_cast<unsigned long long>(c.total_injected()),
                static_cast<unsigned long long>(c.drops_injected),
                static_cast<unsigned long long>(c.duplicates_injected),
                static_cast<unsigned long long>(c.reorders_injected),
                static_cast<unsigned long long>(c.delays_injected),
                static_cast<unsigned long long>(c.retransmits),
                static_cast<unsigned long long>(c.duplicates_discarded),
                static_cast<unsigned long long>(c.crashes));
  }
  if (!args.get("trace-out").empty()) {
    core::write_run_trace(result, args.get("trace-out"));
    std::printf("wrote trace: %s\n", args.get("trace-out").c_str());
  }
  if (!args.get("metrics-out").empty()) {
    core::write_run_metrics(result, args.get("metrics-out"));
    std::printf("wrote metrics: %s\n", args.get("metrics-out").c_str());
  }
  if (msgtrace_session.trace() != nullptr) {
    core::write_run_msgtrace(result, *msgtrace_session.trace(),
                             args.get("msgtrace-out"));
    std::printf("wrote msgtrace: %s\n", args.get("msgtrace-out").c_str());
  }
  if (args.get_bool("comm-matrix")) {
    print_comm_heatmap(result.comm_matrix);
  }
  if (args.get_bool("analyze")) {
    const obs::analysis::RunReport report = core::build_run_report(result);
    obs::analysis::print_report(report, obs::analysis::analyze(report));
  }
  return 0;
}

int cmd_pervertex(int argc, const char* const* argv) {
  util::ArgParser args("tricount_cli pervertex",
                       "Distributed per-vertex triangle counts.");
  args.add_option("file", "", "input graph (.txt / .mtx / .bin)");
  args.add_option("ranks", "16", "simulated ranks (perfect square)");
  args.add_option("top", "10", "print the top-N triangle-dense vertices");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 1;

  const graph::EdgeList g = graph::simplify(graph::read_graph(args.get("file")));
  const graph::Csr csr = graph::Csr::from_edges(g);
  const auto result = core::count_per_vertex_2d(
      g, static_cast<int>(args.get_int("ranks")));
  std::printf("triangles: %llu\n",
              static_cast<unsigned long long>(result.total_triangles));

  std::vector<graph::VertexId> order(result.counts.size());
  for (graph::VertexId v = 0; v < order.size(); ++v) order[v] = v;
  const auto top = std::min<std::size_t>(
      static_cast<std::size_t>(args.get_int("top")), order.size());
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(top),
                    order.end(), [&](graph::VertexId a, graph::VertexId b) {
                      return result.counts[a] > result.counts[b];
                    });
  util::Table table({"vertex", "triangles", "degree", "local clustering"});
  for (std::size_t i = 0; i < top; ++i) {
    const graph::VertexId v = order[i];
    table.row()
        .cell(static_cast<std::uint64_t>(v))
        .cell(static_cast<std::uint64_t>(result.counts[v]))
        .cell(static_cast<std::uint64_t>(csr.degree(v)))
        .cell(result.local_clustering(v, csr.degree(v)), 4);
  }
  table.print();
  return 0;
}

int cmd_truss(int argc, const char* const* argv) {
  util::ArgParser args("tricount_cli truss", "k-truss decomposition.");
  args.add_option("file", "", "input graph (.txt / .mtx / .bin)");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 1;

  const graph::EdgeList g = graph::simplify(graph::read_graph(args.get("file")));
  const graph::KtrussResult result = graph::ktruss_decomposition(g);
  std::printf("max k-truss: %d\n", result.max_k);
  util::Table table({"k", "edges in k-truss"});
  for (int k = 2; k <= result.max_k; ++k) {
    table.row()
        .cell(static_cast<std::int64_t>(k))
        .cell(static_cast<std::uint64_t>(result.truss_edges(g, k).size()));
  }
  table.print();
  return 0;
}

int cmd_convert(int argc, const char* const* argv) {
  util::ArgParser args("tricount_cli convert",
                       "Convert between graph formats (by extension).");
  args.add_option("in", "", "input path");
  args.add_option("out", "", "output path");
  args.add_flag("simplify", true, "canonicalize to a simple graph");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 1;

  graph::EdgeList g = graph::read_graph(args.get("in"));
  if (args.get_bool("simplify")) g = graph::simplify(std::move(g));
  store(g, args.get("out"));
  std::printf("wrote %s: %u vertices, %zu edges\n", args.get("out").c_str(),
              g.num_vertices, g.edges.size());
  return 0;
}

int cmd_summary(int argc, const char* const* argv) {
  util::ArgParser args("tricount_cli summary",
                       "Pretty-print a metrics JSON artifact saved by "
                       "'count --metrics-out'.");
  args.add_option("file", "", "metrics JSON path");
  args.add_flag("comm-matrix", false, "also print the traffic heatmap");
  args.add_flag("steps", true, "print the per-superstep breakdown");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 1;

  const obs::json::Value root = obs::json::read_file(args.get("file"));
  if (const obs::json::Value* schema = root.find("schema");
      schema == nullptr || !schema->is_string() ||
      schema->as_string() != obs::analysis::kMetricsSchema) {
    std::fprintf(stderr, "summary: %s is not a %s file\n",
                 args.get("file").c_str(), obs::analysis::kMetricsSchema);
    return 1;
  }

  const obs::json::Value& run = root.get("run");
  util::print_heading("run");
  {
    util::Table table({"field", "value"});
    for (const auto& [key, value] : run.members()) {
      if (value.is_number()) {
        table.row().cell(key).cell(value.as_number(), 0);
      } else if (value.is_object()) {
        for (const auto& [sub, subval] : value.members()) {
          table.row().cell(key + "." + sub).cell(subval.dump());
        }
      } else {
        table.row().cell(key).cell(value.dump());
      }
    }
    table.print();
  }

  const obs::Snapshot snapshot = obs::Snapshot::from_json(root.get("metrics"));
  util::print_heading("counters");
  {
    util::Table table({"name", "value"});
    for (const auto& [name, value] : snapshot.counters) {
      table.row().cell(name).cell(value);
    }
    table.print();
  }
  util::print_heading("gauges");
  {
    util::Table table({"name", "value"});
    for (const auto& [name, value] : snapshot.gauges) {
      table.row().cell(name).cell(value, 6);
    }
    table.print();
  }
  if (!snapshot.histograms.empty()) {
    util::print_heading("histograms");
    util::Table table(
        {"name", "count", "sum", "min", "p50", "p95", "p99", "max", "mean"});
    for (const auto& [name, h] : snapshot.histograms) {
      const double mean =
          h.count == 0 ? 0.0 : h.sum / static_cast<double>(h.count);
      table.row().cell(name).cell(h.count).cell(h.sum, 6).cell(h.min, 6)
          .cell(h.quantile(0.50), 6).cell(h.quantile(0.95), 6)
          .cell(h.quantile(0.99), 6).cell(h.max, 6).cell(mean, 6);
    }
    table.print();
  }

  if (args.get_bool("steps")) {
    const obs::json::Value& steps = root.get("steps");
    util::print_heading("supersteps");
    util::Table table({"phase", "name", "modeled s", "comm s", "max comp s",
                       "avg comp s", "max bytes"});
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const obs::json::Value& s = steps.at(i);
      table.row()
          .cell(s.get("phase").as_string())
          .cell(s.get("name").as_string())
          .cell(s.get("modeled_seconds").as_number(), 6)
          .cell(s.get("modeled_comm_seconds").as_number(), 6)
          .cell(s.get("max_compute_seconds").as_number(), 6)
          .cell(s.get("avg_compute_seconds").as_number(), 6)
          .cell(s.get("max_bytes").as_uint());
    }
    table.print();
  }

  if (args.get_bool("comm-matrix")) {
    const obs::json::Value& matrix = root.get("comm_matrix");
    const std::size_t p = matrix.get("size").as_uint();
    std::vector<std::vector<std::uint64_t>> bytes(
        p, std::vector<std::uint64_t>(p, 0));
    const obs::json::Value& user = matrix.get("user_bytes");
    const obs::json::Value& coll = matrix.get("collective_bytes");
    for (std::size_t s = 0; s < p; ++s) {
      for (std::size_t d = 0; d < p; ++d) {
        bytes[s][d] = user.at(s).at(d).as_uint() + coll.at(s).at(d).as_uint();
      }
    }
    util::print_heading("communication matrix (bytes, user + collective)");
    print_comm_heatmap(bytes);
  }
  return 0;
}

void usage() {
  std::puts(
      "usage: tricount_cli "
      "<generate|stats|count|pervertex|truss|convert|summary> [options]\n"
      "Run 'tricount_cli <subcommand> --help' for subcommand options;\n"
      "'tricount_cli --version' prints the build provenance.");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string subcommand = argv[1];
  if (subcommand == "--version") {
    std::printf("tricount_cli %s\n", util::build_summary().c_str());
    return 0;
  }
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  try {
    if (subcommand == "generate") return cmd_generate(sub_argc, sub_argv);
    if (subcommand == "stats") return cmd_stats(sub_argc, sub_argv);
    if (subcommand == "count") return cmd_count(sub_argc, sub_argv);
    if (subcommand == "pervertex") return cmd_pervertex(sub_argc, sub_argv);
    if (subcommand == "truss") return cmd_truss(sub_argc, sub_argv);
    if (subcommand == "convert") return cmd_convert(sub_argc, sub_argv);
    if (subcommand == "summary") return cmd_summary(sub_argc, sub_argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tricount_cli: %s\n", e.what());
    return 1;
  }
  usage();
  return 1;
}
