// Perf-doctor analysis layer: critical-path slack reconciliation against
// the driver's modeled phase totals, degenerate-input safety, artifact
// linting (one metrics schema, every key required), the regression diff,
// and histogram quantile estimates.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tricount/cetric/cetric.hpp"
#include "tricount/core/artifacts.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/core/summa2d.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/obs/analysis.hpp"
#include "tricount/obs/json.hpp"
#include "tricount/obs/metrics.hpp"

namespace {

using namespace tricount;
namespace analysis = obs::analysis;

core::RunResult run_2d(const graph::EdgeList& g, int ranks,
                       core::RunOptions options = {}) {
  return core::count_triangles_2d(g, ranks, options);
}

graph::EdgeList small_rmat() {
  graph::RmatParams params;
  params.scale = 6;
  params.edge_factor = 8;
  params.seed = 1;
  return graph::simplify(graph::rmat(params));
}

/// `object` without its member `key`.
obs::json::Value without(const obs::json::Value& object, const char* key) {
  obs::json::Value out = obs::json::Value::object();
  for (const auto& [k, v] : object.members()) {
    if (k != key) out.set(k, v);
  }
  return out;
}

/// True when some violation mentions `needle`.
bool mentions(const std::vector<std::string>& violations,
              const std::string& needle) {
  for (const std::string& v : violations) {
    if (v.find(needle) != std::string::npos) return true;
  }
  return false;
}

void expect_all_finite(const analysis::Analysis& a) {
  for (const analysis::StepAnalysis& step : a.steps) {
    EXPECT_TRUE(std::isfinite(step.window_seconds)) << step.name;
    EXPECT_TRUE(std::isfinite(step.imbalance)) << step.name;
    for (const double slack : step.slack_seconds) {
      EXPECT_TRUE(std::isfinite(slack)) << step.name;
    }
  }
  for (const analysis::PhaseAnalysis* phase : {&a.pre, &a.tc, &a.total}) {
    EXPECT_TRUE(std::isfinite(phase->modeled_seconds)) << phase->phase;
    EXPECT_TRUE(std::isfinite(phase->comm_fraction)) << phase->phase;
    EXPECT_TRUE(std::isfinite(phase->imbalance)) << phase->phase;
  }
  for (const analysis::RankSummary& r : a.ranks) {
    EXPECT_TRUE(std::isfinite(r.slack_seconds));
    EXPECT_TRUE(std::isfinite(r.slack_fraction));
  }
}

// ---------------------------------------------------------------------------
// Critical-path reconciliation

// The acceptance criterion: per-phase window sums must equal the driver's
// ppt/tct totals bit-for-bit, both in-memory and through a JSON file.
TEST(Analysis, SlackWindowSumsReconcileExactly) {
  const core::RunResult result = run_2d(small_rmat(), 4);
  const analysis::RunReport report = core::build_run_report(result);
  const analysis::Analysis a = analysis::analyze(report);

  double pre = 0.0, tc = 0.0;
  for (const analysis::StepAnalysis& step : a.steps) {
    (step.phase == "pre" ? pre : tc) += step.window_seconds;
  }
  EXPECT_EQ(pre, result.pre_modeled_seconds());
  EXPECT_EQ(tc, result.tc_modeled_seconds());
  EXPECT_EQ(a.pre.modeled_seconds, result.pre_modeled_seconds());
  EXPECT_EQ(a.tc.modeled_seconds, result.tc_modeled_seconds());
  EXPECT_EQ(a.pre.modeled_seconds + a.tc.modeled_seconds,
            result.total_modeled_seconds());
  EXPECT_TRUE(a.consistency_issues.empty());
}

TEST(Analysis, JsonRoundTripPreservesExactReconciliation) {
  const core::RunResult result = run_2d(small_rmat(), 9);
  const obs::json::Value artifact = core::build_run_metrics(result);
  // Serialize and reparse: %.17g round-trips doubles exactly.
  const obs::json::Value reparsed =
      obs::json::Value::parse(artifact.dump(2));
  const analysis::RunReport report =
      analysis::RunReport::from_metrics_json(reparsed);
  const analysis::Analysis a = analysis::analyze(report);

  EXPECT_EQ(a.pre.modeled_seconds, result.pre_modeled_seconds());
  EXPECT_EQ(a.tc.modeled_seconds, result.tc_modeled_seconds());
  EXPECT_TRUE(a.consistency_issues.empty());
}

TEST(Analysis, SlackIsNonNegativeAndAccountsForWindow) {
  const core::RunResult result = run_2d(small_rmat(), 4);
  const analysis::RunReport report = core::build_run_report(result);
  const analysis::Analysis a = analysis::analyze(report);

  for (const analysis::StepAnalysis& step : a.steps) {
    ASSERT_EQ(step.used_seconds.size(), 4u);
    ASSERT_GE(step.bounding_rank, 0);
    ASSERT_LT(step.bounding_rank, 4);
    for (std::size_t r = 0; r < step.used_seconds.size(); ++r) {
      EXPECT_GE(step.slack_seconds[r], 0.0) << step.name;
      // a + (w - a) can differ from w by one ulp; allow that much.
      EXPECT_DOUBLE_EQ(step.used_seconds[r] + step.slack_seconds[r],
                       step.window_seconds)
          << step.name;
    }
    // The bounding rank has the least slack of any rank.
    const double bound_slack =
        step.slack_seconds[static_cast<std::size_t>(step.bounding_rank)];
    for (const double slack : step.slack_seconds) {
      EXPECT_GE(slack, bound_slack) << step.name;
    }
  }
  // Every superstep's bound is attributed to exactly one rank.
  int bounded = 0;
  for (const analysis::RankSummary& r : a.ranks) bounded += r.steps_bounded;
  EXPECT_EQ(static_cast<std::size_t>(bounded), a.steps.size());
}

TEST(Analysis, CommFractionsAndImbalanceAreWellFormed) {
  const core::RunResult result = run_2d(small_rmat(), 4);
  const analysis::Analysis a =
      analysis::analyze(core::build_run_report(result));
  for (const analysis::PhaseAnalysis* phase : {&a.pre, &a.tc, &a.total}) {
    EXPECT_GE(phase->comm_fraction, 0.0);
    EXPECT_LE(phase->comm_fraction, 1.0);
    EXPECT_GE(phase->imbalance, 1.0);  // max/avg >= 1 by definition
  }
}

// ---------------------------------------------------------------------------
// Degenerate inputs (satellite): no div-by-zero, no NaN imbalance.

TEST(AnalysisDegenerate, EmptyGraph) {
  graph::EdgeList empty;
  empty.num_vertices = 0;
  const core::RunResult result = run_2d(empty, 4);
  const analysis::RunReport report = core::build_run_report(result);
  const analysis::Analysis a = analysis::analyze(report);
  expect_all_finite(a);
  EXPECT_TRUE(a.consistency_issues.empty());
  analysis::print_report(report, a);  // must not crash or divide by zero
}

TEST(AnalysisDegenerate, SingleRank) {
  const core::RunResult result = run_2d(small_rmat(), 1);
  const analysis::Analysis a =
      analysis::analyze(core::build_run_report(result));
  expect_all_finite(a);
  for (const analysis::StepAnalysis& step : a.steps) {
    EXPECT_EQ(step.bounding_rank, 0);  // only rank is always critical
  }
  ASSERT_EQ(a.ranks.size(), 1u);
  EXPECT_EQ(static_cast<std::size_t>(a.ranks[0].steps_bounded),
            a.steps.size());
}

TEST(AnalysisDegenerate, MoreRankSquaresThanVertices) {
  // ranks^2 = 256 >> 10 vertices: most blocks are empty.
  const graph::EdgeList g = graph::complete_graph(10);
  const core::RunResult result = run_2d(g, 16);
  const analysis::RunReport report = core::build_run_report(result);
  const analysis::Analysis a = analysis::analyze(report);
  expect_all_finite(a);
  EXPECT_TRUE(a.consistency_issues.empty());
  analysis::print_report(report, a);
}

// ---------------------------------------------------------------------------
// Linting (satellite)

TEST(LintMetrics, AcceptsFreshArtifact) {
  const core::RunResult result = run_2d(small_rmat(), 4);
  const obs::json::Value artifact = core::build_run_metrics(result);
  EXPECT_TRUE(analysis::lint_metrics(artifact).empty());
}

TEST(LintMetrics, FlagsTamperedArtifacts) {
  const core::RunResult result = run_2d(small_rmat(), 4);
  const obs::json::Value artifact = core::build_run_metrics(result);

  {
    obs::json::Value bad = artifact;
    bad.set("schema", "tricount.metrics.v0");
    EXPECT_FALSE(analysis::lint_metrics(bad).empty());
  }
  {
    obs::json::Value bad = artifact;
    bad.set("per_rank", obs::json::Value::array());  // wrong length
    EXPECT_FALSE(analysis::lint_metrics(bad).empty());
  }
  {
    obs::json::Value bad = artifact;
    obs::json::Value run = bad.get("run");
    run.set("vertices", -3.0);  // negative counter
    bad.set("run", std::move(run));
    EXPECT_FALSE(analysis::lint_metrics(bad).empty());
  }
  {
    obs::json::Value bad = artifact;
    obs::json::Value run = bad.get("run");
    run.set("grid_q", std::uint64_t{7});  // grid_q^2 != ranks
    bad.set("run", std::move(run));
    EXPECT_FALSE(analysis::lint_metrics(bad).empty());
  }
  // Every key of the layout is required, those of features the run did
  // not use included.
  {
    obs::json::Value bad = artifact;
    bad.set("run", without(bad.get("run"), "algorithm"));
    EXPECT_TRUE(mentions(analysis::lint_metrics(bad), "'algorithm'"));
  }
  {
    obs::json::Value bad = artifact;
    obs::json::Value metrics = bad.get("metrics");
    metrics.set("counters", without(metrics.get("counters"), "chaos.crashes"));
    bad.set("metrics", std::move(metrics));
    EXPECT_TRUE(mentions(analysis::lint_metrics(bad), "'chaos.crashes'"));
  }
  {
    obs::json::Value bad = artifact;
    obs::json::Value steps = obs::json::Value::array();
    for (std::size_t i = 0; i < artifact.get("steps").size(); ++i) {
      steps.push_back(without(artifact.get("steps").at(i), "overlapped"));
    }
    bad.set("steps", std::move(steps));
    EXPECT_TRUE(mentions(analysis::lint_metrics(bad), "'overlapped'"));
  }
  {
    obs::json::Value bad = artifact;
    obs::json::Value rows = obs::json::Value::array();
    for (std::size_t r = 0; r < artifact.get("per_rank").size(); ++r) {
      rows.push_back(without(artifact.get("per_rank").at(r),
                             "cetric_cut_wedge_bytes_sent"));
    }
    bad.set("per_rank", std::move(rows));
    EXPECT_TRUE(
        mentions(analysis::lint_metrics(bad), "'cetric_cut_wedge_bytes_sent'"));
  }
  {
    obs::json::Value bad = artifact;
    bad.set("comm_matrix", without(bad.get("comm_matrix"), "chaos_bytes"));
    EXPECT_TRUE(mentions(analysis::lint_metrics(bad), "rows malformed"));
  }
}

TEST(LintMetrics, ReconcilesCetricWedgeTraffic) {
  const core::RunResult result =
      cetric::count_triangles_cetric(small_rmat(), 4);
  const obs::json::Value artifact = core::build_run_metrics(result);
  ASSERT_TRUE(analysis::lint_metrics(artifact).empty());

  // One more wedge byte than rank 0's user row moved: caught only by the
  // cetric reconciliation, which runs because run.algorithm is "cetric".
  obs::json::Value bad = artifact;
  obs::json::Value rows = obs::json::Value::array();
  for (std::size_t r = 0; r < artifact.get("per_rank").size(); ++r) {
    obs::json::Value row = artifact.get("per_rank").at(r);
    if (r == 0) {
      row.set("cetric_cut_wedge_bytes_sent",
              row.get("cetric_cut_wedge_bytes_sent").as_uint() + 1);
    }
    rows.push_back(std::move(row));
  }
  bad.set("per_rank", std::move(rows));
  const std::vector<std::string> violations = analysis::lint_metrics(bad);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("cetric_cut_wedge_bytes_sent"),
            std::string::npos);
}

// A SUMMA artifact's grid_q is the edge of a square grid or 0 on a
// rectangular one; any other value is flagged.
TEST(LintMetrics, ChecksSummaGridEdge) {
  const auto artifact = [](int rows, int cols) {
    core::SummaOptions options;
    options.grid_rows = rows;
    options.grid_cols = cols;
    return core::build_run_metrics(
        core::count_triangles_summa(small_rmat(), options));
  };
  const auto with_grid_q = [](obs::json::Value doc, std::uint64_t q) {
    obs::json::Value run = doc.get("run");
    run.set("grid_q", q);
    doc.set("run", std::move(run));
    return doc;
  };
  const obs::json::Value square = artifact(2, 2);
  const obs::json::Value rectangular = artifact(2, 3);
  EXPECT_TRUE(analysis::lint_metrics(square).empty());
  EXPECT_TRUE(analysis::lint_metrics(rectangular).empty());
  EXPECT_EQ(square.get("run").get("grid_q").as_uint(), 2u);
  EXPECT_EQ(rectangular.get("run").get("grid_q").as_uint(), 0u);
  EXPECT_TRUE(mentions(analysis::lint_metrics(with_grid_q(square, 3)),
                       "summa grid_q"));
  EXPECT_TRUE(mentions(analysis::lint_metrics(with_grid_q(rectangular, 2)),
                       "summa grid_q"));
}

// Readers accept exactly one schema; an older document is refused with a
// message that names the one they read.
TEST(MetricsSchema, V2DocumentsAreRejectedNamingV3) {
  obs::json::Value v2 = core::build_run_metrics(run_2d(small_rmat(), 4));
  v2.set("schema", "tricount.metrics.v2");

  const std::vector<std::string> violations = analysis::lint_metrics(v2);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("tricount.metrics.v3"), std::string::npos)
      << violations[0];

  try {
    analysis::RunReport::from_metrics_json(v2);
    ADD_FAILURE() << "from_metrics_json accepted a v2 document";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("tricount.metrics.v3"),
              std::string::npos)
        << e.what();
  }
}

// `tricount_cli summary` prints a v3 artifact and refuses a v2 one. The
// CLI path comes from ctest via TRICOUNT_CLI.
TEST(MetricsSchema, CliSummaryReadsOnlyV3) {
  const char* cli = std::getenv("TRICOUNT_CLI");
  if (cli == nullptr || *cli == '\0') {
    GTEST_SKIP() << "TRICOUNT_CLI not set (run via ctest)";
  }
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "tricount_analysis_test";
  std::filesystem::create_directories(dir);
  // Writes `artifact` and runs summary on it; returns stdout + stderr.
  const auto summary = [&](const obs::json::Value& artifact,
                           const char* name, int& status) {
    const std::string path = (dir / name).string();
    obs::json::write_file(artifact, path);
    const std::string command =
        std::string(cli) + " summary --file " + path + " 2>&1";
    FILE* pipe = popen(command.c_str(), "r");
    std::string output;
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
      output.append(buffer, n);
    }
    status = pclose(pipe);
    return output;
  };

  obs::json::Value artifact = core::build_run_metrics(run_2d(small_rmat(), 4));
  int status = -1;
  const std::string v3_output = summary(artifact, "v3.json", status);
  EXPECT_EQ(status, 0) << v3_output;

  artifact.set("schema", "tricount.metrics.v2");
  const std::string v2_output = summary(artifact, "v2.json", status);
  EXPECT_NE(status, 0);
  EXPECT_NE(v2_output.find("tricount.metrics.v3"), std::string::npos)
      << v2_output;
}

TEST(LintMetrics, ConsistencyCheckCatchesEditedModeledTime) {
  const core::RunResult result = run_2d(small_rmat(), 4);
  obs::json::Value artifact = core::build_run_metrics(result);

  // Double the first step's declared modeled time; the re-derivation from
  // counted traffic no longer matches.
  const obs::json::Value& steps = artifact.get("steps");
  obs::json::Value edited = obs::json::Value::array();
  for (std::size_t i = 0; i < steps.size(); ++i) {
    obs::json::Value entry = steps.at(i);
    if (i == 0) {
      entry.set("modeled_seconds",
                entry.get("modeled_seconds").as_number() * 2.0 + 1.0);
    }
    edited.push_back(std::move(entry));
  }
  artifact.set("steps", std::move(edited));

  const analysis::Analysis a = analysis::analyze(
      analysis::RunReport::from_metrics_json(artifact));
  ASSERT_FALSE(a.consistency_issues.empty());
  EXPECT_NE(a.consistency_issues[0].what.find("modeled_seconds"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Regression diff

TEST(Diff, IdenticalRunsDiffClean) {
  const graph::EdgeList g = small_rmat();
  const obs::json::Value a = core::build_run_metrics(run_2d(g, 4));
  const obs::json::Value b = core::build_run_metrics(run_2d(g, 4));
  const analysis::DiffResult diff = analysis::diff_artifacts(a, b);
  for (const analysis::DiffEntry& entry : diff.entries) {
    EXPECT_NE(entry.kind, analysis::DiffEntry::Kind::kExactMismatch)
        << entry.field << ": " << entry.note;
    EXPECT_NE(entry.kind, analysis::DiffEntry::Kind::kRegression)
        << entry.field << ": " << entry.note;
  }
  EXPECT_TRUE(diff.ok);
}

TEST(Diff, PerturbedAlphaIsCaught) {
  const graph::EdgeList g = small_rmat();
  const obs::json::Value baseline = core::build_run_metrics(run_2d(g, 4));
  core::RunOptions perturbed;
  perturbed.model.alpha_seconds *= 10.0;
  const obs::json::Value candidate =
      core::build_run_metrics(run_2d(g, 4, perturbed));

  const analysis::DiffResult diff =
      analysis::diff_artifacts(baseline, candidate);
  EXPECT_FALSE(diff.ok);
  bool network_regressed = false;
  for (const analysis::DiffEntry& entry : diff.entries) {
    if (entry.kind == analysis::DiffEntry::Kind::kRegression &&
        entry.field.find("network_seconds") != std::string::npos) {
      network_regressed = true;
      EXPECT_FALSE(entry.note.empty());
    }
  }
  EXPECT_TRUE(network_regressed);
}

TEST(Diff, TamperedTriangleCountIsExactMismatch) {
  const graph::EdgeList g = small_rmat();
  const obs::json::Value baseline = core::build_run_metrics(run_2d(g, 4));
  obs::json::Value candidate = baseline;
  obs::json::Value run = candidate.get("run");
  run.set("triangles", run.get("triangles").as_uint() + 1);
  candidate.set("run", std::move(run));

  const analysis::DiffResult diff =
      analysis::diff_artifacts(baseline, candidate);
  EXPECT_FALSE(diff.ok);
  ASSERT_FALSE(diff.entries.empty());
  // Gating entries sort first.
  EXPECT_EQ(diff.entries[0].kind, analysis::DiffEntry::Kind::kExactMismatch);
}

TEST(Diff, MismatchedSchemasGate) {
  obs::json::Value a = obs::json::Value::object();
  a.set("schema", analysis::kMetricsSchema);
  obs::json::Value b = obs::json::Value::object();
  b.set("schema", "tricount.bench.v1");
  const analysis::DiffResult diff = analysis::diff_artifacts(a, b);
  EXPECT_FALSE(diff.ok);
}

// A bench that measures two algorithms on one configuration (table 6
// writes a 2D and a cetric record per dataset and rank count) diffs every
// record: a 2D regression does not hide behind the cetric record.
TEST(Diff, BenchRecordsPairByAlgorithm) {
  const auto record = [](const char* algorithm, std::uint64_t triangles) {
    obs::json::Value r = obs::json::Value::object();
    r.set("dataset", "rmat_s10");
    r.set("ranks", 16);
    r.set("algorithm", algorithm);
    r.set("triangles", triangles);
    obs::json::Value provenance = obs::json::Value::object();
    provenance.set("ranks", 16);
    provenance.set("algorithm", algorithm);
    r.set("provenance", std::move(provenance));
    return r;
  };
  const auto report = [&](std::uint64_t triangles_2d) {
    obs::json::Value root = obs::json::Value::object();
    root.set("schema", "tricount.bench.v1");
    root.set("bench", "table6_other_algorithms");
    obs::json::Value records = obs::json::Value::array();
    records.push_back(record("2d", triangles_2d));
    records.push_back(record("cetric", 1000));
    root.set("records", std::move(records));
    return root;
  };

  EXPECT_TRUE(analysis::diff_artifacts(report(1000), report(1000)).ok);
  const analysis::DiffResult diff =
      analysis::diff_artifacts(report(1000), report(999));
  EXPECT_FALSE(diff.ok);
  ASSERT_EQ(diff.entries.size(), 1u);
  EXPECT_EQ(diff.entries[0].kind, analysis::DiffEntry::Kind::kExactMismatch);
  EXPECT_NE(diff.entries[0].field.find("|2d triangles"), std::string::npos)
      << diff.entries[0].field;
}

// ---------------------------------------------------------------------------
// Histogram quantiles (satellite)

TEST(HistogramQuantile, EmptySingleAndOrdering) {
  obs::Snapshot::HistogramValue empty;
  EXPECT_EQ(empty.quantile(0.5), 0.0);

  obs::Histogram one(1.0);
  one.observe(3.0);
  obs::Registry registry;
  registry.histogram("h").observe(3.0);
  const obs::Snapshot::HistogramValue h =
      registry.snapshot().histograms.at("h");
  // One sample: every quantile collapses to it (clamped to [min, max]).
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0);
}

TEST(HistogramQuantile, EstimatesAreMonotoneAndBracketed) {
  obs::Registry registry;
  obs::Histogram& h = registry.histogram("lat", /*scale=*/1.0);
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  const obs::Snapshot::HistogramValue snap =
      registry.snapshot().histograms.at("lat");

  const double p50 = snap.quantile(0.50);
  const double p95 = snap.quantile(0.95);
  const double p99 = snap.quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, snap.min);
  EXPECT_LE(p99, snap.max);
  // Power-of-two buckets bound the error to one bucket span: the true
  // p50 of 1..1000 is 500, inside bucket (256, 512].
  EXPECT_GT(p50, 256.0);
  EXPECT_LE(p50, 512.0);
  EXPECT_GT(p99, 512.0);
  EXPECT_LE(p99, snap.max);
}

}  // namespace
