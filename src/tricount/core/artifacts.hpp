// Machine-readable run artifacts: the modeled per-rank trace and the
// metrics snapshot for a completed 2D counting run.
//
// The trace is a virtual timeline rebuilt from the per-(rank, superstep)
// samples the pipeline records: superstep boundaries are aligned across
// ranks (the algorithm is bulk-synchronous per shift) and each superstep
// is stretched to its PhaseBreakdown::modeled_seconds, so the "modeled"
// summary timeline's per-phase span sums equal pre/tc_modeled_seconds
// exactly. Each rank's row shows its own measured compute time and its
// own α–β-modeled communication inside the superstep window — the
// per-shift load imbalance of Table 3, readable in Perfetto.
//
// The metrics artifact routes every measured quantity (KernelCounters,
// phase times, traffic totals) through an obs::Registry snapshot and
// attaches the p×p communication matrix. Schema: docs/observability.md.
#pragma once

#include <string>

#include "tricount/core/driver.hpp"
#include "tricount/obs/analysis.hpp"
#include "tricount/obs/json.hpp"
#include "tricount/obs/metrics.hpp"
#include "tricount/obs/msgtrace.hpp"
#include "tricount/obs/trace.hpp"

namespace tricount::core {

/// Chrome trace-event timeline of the run: tid 0 is the modeled
/// cross-rank summary, tid r+1 is rank r. Rank spans carry the analyzer's
/// critical-path annotations (slack_seconds, straggler flag); the modeled
/// row records each superstep's bounding_rank and imbalance.
obs::Trace build_run_trace(const RunResult& result);

/// The analyzer's input built directly from a RunResult, bit-identical to
/// parsing the saved metrics artifact (the JSON layer round-trips doubles
/// exactly). Feeds `tricount_cli count --analyze` without a temp file.
obs::analysis::RunReport build_run_report(const RunResult& result);

/// Registry snapshot of every run measurement (kernel.*, phase.*, comm.*,
/// tc.overlap.*, tc.cetric.*, chaos.*; the last three are zero when the
/// run did not use the feature) — see docs/observability.md.
obs::Snapshot build_run_snapshot(const RunResult& result);

/// Full obs::analysis::kMetricsSchema artifact: run metadata + registry
/// snapshot + per-step breakdowns + the p×p comm matrix + per-rank
/// traffic counters. Its keys are the same for every run.
obs::json::Value build_run_metrics(const RunResult& result);

/// The message trace of the run: obs::MsgTrace::trace() with the run
/// header (`run`) and the modeled per-step table (`steps`) the analyzer
/// compares measurements against added to its otherData.
obs::Trace build_run_msgtrace(const RunResult& result,
                              const obs::MsgTrace& trace);

void write_run_trace(const RunResult& result, const std::string& path);
void write_run_metrics(const RunResult& result, const std::string& path);
void write_run_msgtrace(const RunResult& result, const obs::MsgTrace& trace,
                        const std::string& path);

}  // namespace tricount::core
