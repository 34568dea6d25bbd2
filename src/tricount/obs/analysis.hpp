// Perf-doctor: critical-path and imbalance analysis over run artifacts.
//
// Consumes a `tricount.metrics.v3` artifact (parsed JSON, or the same
// structure freshly built in memory by core/artifacts) and answers the
// questions the paper's evaluation section asks of a run:
//
//  * critical-path attribution — which rank bounds each superstep, and
//    how much slack every other rank has inside that superstep's window
//    (window = modeled superstep time; slack = window minus the rank's
//    own compute + modeled comm). Windows are recomputed with exactly
//    the arithmetic of PhaseBreakdown::modeled_seconds, so the per-phase
//    window sums equal the artifact's ppt/tct totals bit-for-bit (the
//    JSON layer round-trips doubles exactly).
//  * load imbalance — max/avg compute per phase and per superstep, the
//    definition of the paper's Table 3.
//  * comm-vs-compute fractions per phase (Figure 3).
//  * an α–β consistency check — modeled times re-derived from the
//    counted messages/bytes must match the values the artifact declares,
//    catching schema drift and hand-edited or corrupted artifacts.
//
// The same module hosts the artifact schema linter (trace_lint --metrics)
// and the regression diff used by `tricount_perf diff` and the `perf`
// ctest label. Diff gating policy (docs/observability.md): counts and
// structure compare exactly; model-derived network times compare by the
// --max-regress threshold (they are deterministic re-runs of the α–β
// formula over exact counts, so identical configs diff clean); measured
// CPU times and imbalance factors additionally require the regression to
// exceed an absolute noise floor before they gate, because thread-CPU
// readings on small runs are scheduler noise.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tricount/obs/json.hpp"
#include "tricount/obs/metrics.hpp"
#include "tricount/obs/msgtrace.hpp"
#include "tricount/util/cost_model.hpp"

namespace tricount::obs::analysis {

/// The metrics artifact's schema, written by core::build_run_metrics and
/// required by every reader. One layout serves every run: the overlap,
/// chaos and cetric keys are always present, and zero when the run did
/// not use the feature.
inline constexpr const char* kMetricsSchema = "tricount.metrics.v3";

/// One rank's measurements inside one superstep (a `steps[].per_rank`
/// row of the artifact — the obs-side mirror of core::PhaseSample).
struct RankSample {
  double compute_seconds = 0.0;
  double comm_cpu_seconds = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t ops = 0;
};

/// One superstep as declared by the artifact: per-rank samples plus the
/// producer's own modeled numbers (kept for the consistency check).
struct Step {
  std::string name;
  std::string phase;  ///< "pre" or "tc"
  std::vector<RankSample> ranks;
  double declared_seconds = 0.0;       ///< steps[].modeled_seconds
  double declared_comm_seconds = 0.0;  ///< steps[].modeled_comm_seconds
  /// steps[].overlapped — produced with comm/compute overlap, so the
  /// window charges max(compute, network) instead of the sum.
  bool overlapped = false;
};

/// A parsed metrics artifact — everything the analyzer needs.
struct RunReport {
  int ranks = 0;
  int grid_q = 0;
  /// run.algorithm — "2d", "cetric" for the communication-avoiding
  /// counter, or "summa".
  std::string algorithm = "2d";
  bool overlap = false;  ///< run.overlap — comm/compute overlap was on
  bool chaos = false;    ///< run.chaos — a fault injector was installed
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
  std::uint64_t triangles = 0;
  util::AlphaBetaModel model;
  std::vector<Step> steps;
  Snapshot metrics;  ///< the artifact's registry snapshot, as recorded

  /// Parses a kMetricsSchema document. Throws std::runtime_error on any
  /// other schema, missing keys or type mismatches (run lint_metrics for a full,
  /// non-throwing violation list).
  static RunReport from_metrics_json(const json::Value& root);
};

/// Critical-path view of one superstep.
struct StepAnalysis {
  std::string name;
  std::string phase;
  double window_seconds = 0.0;  ///< modeled superstep time (recomputed)
  double comm_seconds = 0.0;    ///< modeled comm share of the window
  double max_compute_seconds = 0.0;
  double avg_compute_seconds = 0.0;
  double imbalance = 1.0;  ///< max/avg compute (1.0 when no compute)
  int bounding_rank = -1;  ///< rank with the least slack (-1: no ranks)
  /// Overlap view (zeros for non-overlapped steps): the α–β network
  /// seconds hidden behind compute, and hidden / network — the fraction
  /// of the wire time this step did not pay for.
  bool overlapped = false;
  double hidden_seconds = 0.0;
  double overlap_efficiency = 0.0;
  /// Per rank: time in use (own compute + α–β comm + packing CPU; with
  /// overlap, max(compute, α–β comm) + packing CPU) and slack (window -
  /// used; non-negative by construction of the window).
  std::vector<double> used_seconds;
  std::vector<double> slack_seconds;
};

/// Per-phase rollup ("pre", "tc", or "total").
struct PhaseAnalysis {
  std::string phase;
  double modeled_seconds = 0.0;  ///< sum of this phase's windows, in order
  double comm_seconds = 0.0;
  double comm_fraction = 0.0;  ///< comm_seconds / modeled_seconds (0 if empty)
  double max_compute_seconds = 0.0;  ///< max over ranks of phase compute total
  double avg_compute_seconds = 0.0;
  double imbalance = 1.0;  ///< Table 3: max/avg (1.0 when no compute)
};

/// Whole-run view of one rank, for the straggler table.
struct RankSummary {
  int rank = 0;
  double compute_seconds = 0.0;  ///< total across supersteps
  double slack_seconds = 0.0;    ///< total slack across supersteps
  double slack_fraction = 0.0;   ///< slack / total window time
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  int steps_bounded = 0;  ///< supersteps where this rank is the critical rank
};

/// One declared-vs-recomputed mismatch found by the α–β consistency check.
struct ConsistencyIssue {
  std::string what;
  double declared = 0.0;
  double recomputed = 0.0;
};

struct Analysis {
  std::vector<StepAnalysis> steps;
  PhaseAnalysis pre, tc, total;
  /// Sorted by slack ascending: ranks.front() is the top straggler.
  std::vector<RankSummary> ranks;
  /// Empty when every declared modeled time matches its α–β re-derivation.
  std::vector<ConsistencyIssue> consistency_issues;
};

/// Runs the full analysis. `tolerance` is the relative tolerance of the
/// α–β consistency check (the default admits only rounding noise; an
/// artifact that round-tripped through our own JSON matches exactly).
Analysis analyze(const RunReport& report, double tolerance = 1e-9);

/// Prints the human-readable bottleneck report to stdout: run header,
/// phase table with comm fractions and imbalance, dominant-phase verdict,
/// top-`top_stragglers` straggler ranks, the per-superstep slack table,
/// shift-compute quantiles, and the consistency-check outcome.
void print_report(const RunReport& report, const Analysis& analysis,
                  int top_stragglers = 5);

/// Schema validation of a kMetricsSchema document: every key of the
/// layout, per-rank array lengths vs the declared rank count,
/// non-negative counters, and comm-matrix row sums that reconcile with
/// the per-rank traffic totals (and, on cetric runs, with the cut-wedge
/// counters). Returns human-readable violations (empty = valid).
std::vector<std::string> lint_metrics(const json::Value& root);

// --- regression diff -------------------------------------------------------

struct DiffOptions {
  /// Times regress when the candidate exceeds the baseline by more than
  /// this percentage.
  double max_regress_pct = 10.0;
  /// Measured (noise-prone) quantities additionally need an absolute
  /// excess above this many seconds to gate; model-derived times and
  /// counts are exempt.
  double noise_floor_seconds = 0.05;
};

struct DiffEntry {
  enum class Kind {
    kExactMismatch,  ///< counts/structure differ — always gates
    kRegression,     ///< time-like field regressed past threshold — gates
    kImprovement,    ///< got better; never gates
    kInfo,           ///< changed but below threshold/floor; never gates
  };
  Kind kind;
  std::string field;
  double baseline = 0.0;
  double candidate = 0.0;
  std::string note;
};

struct DiffResult {
  std::vector<DiffEntry> entries;  ///< gating entries first
  bool ok = true;                  ///< false when any entry gates
};

/// Field-by-field comparison of two kMetricsSchema artifacts.
DiffResult diff_metrics(const json::Value& baseline,
                        const json::Value& candidate,
                        const DiffOptions& options = {});

/// Record-by-record comparison of two tricount.bench.v1 reports; records
/// pair up by (dataset, ranks, algorithm) and must carry matching
/// provenance.
DiffResult diff_bench(const json::Value& baseline, const json::Value& candidate,
                      const DiffOptions& options = {});

/// Dispatches on the documents' "schema" field (both must agree); two
/// Chrome traces (a `traceEvents` array, no schema) diff as message
/// traces through diff_msgtrace.
DiffResult diff_artifacts(const json::Value& baseline,
                          const json::Value& candidate,
                          const DiffOptions& options = {});

// --- causal message-trace analysis (count --msgtrace) ---------------------
//
// The message trace (obs::MsgTrace::trace() plus the run header and the
// modeled step table) carries what the metrics artifact cannot: wall
// clock causality. Every logical message joins the sender's wire
// attempts (post/wire timestamps, retransmit generations) with the
// receiver's delivery, so the analyzer can derive the run's *measured*
// critical path, its per-superstep wait states (Scalasca's late-sender /
// late-receiver classification), and the comm/compute overlap that
// actually materialized — the cross-check for the α–β predictions the
// rest of the toolchain is built on. Measured times are wall-clock
// microseconds on the simulator host; the α–β numbers model an abstract
// machine, so the two totals are compared for *shape*, and the exact
// reconciliation guarantee is internal: the extracted critical path
// telescopes to the observed makespan.

/// One modeled superstep from the trace's `otherData.steps` (produced by
/// core::build_run_msgtrace with exactly PhaseBreakdown's arithmetic).
struct MsgTraceStep {
  std::string name;
  std::string phase;  ///< "pre" or "tc"
  double modeled_seconds = 0.0;
  double modeled_comm_seconds = 0.0;
  double hidden_seconds = 0.0;  ///< α–β network time modeled as hidden
  bool overlapped = false;
};

/// A message trace read back into records.
struct MsgTraceReport {
  int ranks = 0;
  bool overlap = false;
  bool chaos = false;
  util::AlphaBetaModel model;
  std::vector<MsgTraceStep> steps;
  /// Per-rank causal records, in recording order: the `msg` spans of
  /// tids 1..ranks. The non-rank buffer's (tid 0) are not included.
  std::vector<std::vector<MsgRecord>> records;
  std::uint64_t dropped = 0;  ///< records lost to buffer capacity

  /// Reads the `msg` spans and `otherData` of a message trace. Throws
  /// std::runtime_error on a trace without a run header, on missing keys
  /// or args, and on an integer outside its range (run lint_trace for a
  /// full, non-throwing violation list).
  static MsgTraceReport from_trace(const Trace& trace);
};

/// One segment of the measured critical path, in microseconds since the
/// trace epoch. kind is "compute" (the rank was the cause of progress —
/// includes any wait the path does not route through) or "transfer" (the
/// path crosses from `peer` to `rank` through a message in flight).
struct CriticalSegment {
  int rank = -1;
  int peer = -1;  ///< sending rank for transfer segments, -1 otherwise
  std::string kind;
  double begin_us = 0.0;
  double end_us = 0.0;
  double seconds() const { return (end_us - begin_us) * 1e-6; }
};

/// Wait-state and overlap rollup of one superstep (step -1 = pre-phase
/// traffic, before the counting loop declares its first superstep).
struct CausalStep {
  int step = -1;
  std::string name;
  std::uint64_t pairs = 0;  ///< matched send/recv pairs delivered here
  /// Scalasca-style classification of receiver-side blocking:
  /// late-sender = the receive was posted before the data arrived (the
  /// receiver idled on the wire); late-receiver = the data sat delivered
  /// in the mailbox before the receive was posted.
  double late_sender_seconds = 0.0;
  double late_receiver_seconds = 0.0;
  /// Residual delivery time outside both wait states.
  double transfer_seconds = 0.0;
  /// Measured overlap: wall time messages were in flight toward some
  /// rank while that rank was *not* blocked receiving (max over ranks),
  /// and the same capped at the α–β hidden-time prediction so the
  /// shortfall (modeled - measured >= 0) is directly readable.
  double concurrent_seconds = 0.0;
  double measured_hidden_seconds = 0.0;
  double modeled_hidden_seconds = 0.0;
};

struct CausalAnalysis {
  // Record census.
  std::uint64_t sends = 0;           ///< logical messages with a send record
  std::uint64_t send_attempts = 0;   ///< wire attempts incl. retransmits
  std::uint64_t retransmit_attempts = 0;
  std::uint64_t dropped_attempts = 0;  ///< attempts eaten by injected drops
  std::uint64_t recvs = 0;
  std::uint64_t acks = 0;
  std::uint64_t matched = 0;         ///< recvs joined to a surviving attempt
  std::uint64_t unmatched_recvs = 0;
  bool truncated = false;  ///< capture dropped records; results are partial

  // Measured whole-run view (wall seconds).
  double makespan_seconds = 0.0;  ///< first post to last wire event
  /// Length of the extracted critical path. Equals makespan_seconds by
  /// construction (the backward walk telescopes), so |path - makespan|
  /// beyond float noise means the walk or the trace is broken.
  double path_seconds = 0.0;
  std::vector<CriticalSegment> path;  ///< in time order

  // Wait-state totals plus the per-superstep table.
  double late_sender_seconds = 0.0;
  double late_receiver_seconds = 0.0;
  double transfer_seconds = 0.0;
  std::vector<CausalStep> steps;

  // Overlap: measured vs modeled.
  double concurrent_wall_seconds = 0.0;
  double measured_hidden_seconds = 0.0;
  double modeled_hidden_seconds = 0.0;
  /// Sum of the artifact's modeled step table (α–β whole-run time).
  double modeled_total_seconds = 0.0;
};

CausalAnalysis analyze_msgtrace(const MsgTraceReport& report);

/// Prints the "causal" section: record census, measured critical path
/// (reconciliation against the makespan plus the longest segments),
/// per-superstep wait states, and the measured-vs-modeled overlap table
/// with their deltas.
void print_causal_report(const MsgTraceReport& report,
                         const CausalAnalysis& analysis,
                         int top_segments = 8);

/// Regression diff between two message traces: structure and
/// (chaos-free) counts exactly; measured times past the noise floor; and
/// the measured-vs-modeled overlap divergence, so a candidate whose α–β
/// prediction drifts away from measurement is flagged.
DiffResult diff_msgtrace(const Trace& baseline, const Trace& candidate,
                         const DiffOptions& options = {});

}  // namespace tricount::obs::analysis
