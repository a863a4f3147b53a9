// Registry smoke test: run studies end-to-end at tiny trial counts and
// assert the artifact bytes (stdout, CSV, metrics JSON) are identical for
// --threads 1 and --threads 2 — the determinism contract every study in
// the catalog promises. A fast one-per-group subset runs in tier-1; the
// full-catalog sweep is guarded by XRES_SMOKE_ALL=1.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "study/capture.hpp"
#include "study/options.hpp"
#include "study/registry.hpp"
#include "study/runlog.hpp"
#include "study/study_main.hpp"

namespace xres::study {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct SmokeArtifacts {
  int exit_code{-1};
  std::string stdout_bytes;
  std::string csv_bytes;
  std::string metrics_bytes;
};

/// Runs \p def with every trial/pattern/trace count set to \p count and
/// the run ledger off; \p adjust (optional) edits the harness options last,
/// and \p bindings (optional) set further parameters.
SmokeArtifacts run_smoke(
    const StudyDefinition& def, unsigned threads, const char* count = "2",
    const std::function<void(HarnessOptions&)>& adjust = {},
    const std::vector<std::pair<std::string, std::string>>& bindings = {}) {
  // Named after the running test too: ctest runs tests as parallel
  // processes, and two tests running one study must not share files.
  const std::string base =
      ::testing::TempDir() + "smoke_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" + def.name +
      "_t" + std::to_string(threads);
  ParamSet params{def};
  for (const char* key : {"trials", "patterns", "traces"}) {
    if (def.find_param(key) != nullptr) params.set(key, count);
  }
  for (const auto& [key, value] : bindings) params.set(key, value);
  HarnessOptions options = default_harness_options(def);
  options.ledger = false;
  if (def.options.threads) options.threads = threads;
  if (def.options.csv) {
    options.csv = true;
    options.csv_path = base + ".csv";
  }
  if (def.options.obs != StudyOptionsSpec::Obs::kNone) {
    options.obs.metrics_path = base + ".metrics.json";
  }
  if (adjust) adjust(options);

  SmokeArtifacts result;
  // Route run status (wall-clock phase timings, "written to" notices) to
  // stderr so the captured stdout is a pure function of the seed — exactly
  // what the suite runner does.
  set_status_stream(stderr);
  {
    StdoutCapture capture{base + ".txt"};
    result.exit_code = run_study(def, std::move(params), options);
    capture.finish();
  }
  set_status_stream(stdout);

  result.stdout_bytes = read_file(base + ".txt");
  if (!options.csv_path.empty()) result.csv_bytes = read_file(options.csv_path);
  if (!options.obs.metrics_path.empty()) {
    result.metrics_bytes = read_file(options.obs.metrics_path);
  }
  return result;
}

void expect_threads_invariant(const std::string& name) {
  const StudyDefinition* def = StudyRegistry::instance().find(name);
  ASSERT_NE(def, nullptr) << name;
  const SmokeArtifacts one = run_smoke(*def, 1);
  ASSERT_EQ(one.exit_code, 0) << name;
  EXPECT_FALSE(one.stdout_bytes.empty()) << name;
  // Serial-sweep studies expose no --threads; the single run is the smoke.
  if (!def->options.threads) return;
  const SmokeArtifacts two = run_smoke(*def, 2);
  ASSERT_EQ(two.exit_code, 0) << name;
  EXPECT_EQ(one.stdout_bytes, two.stdout_bytes) << name;
  EXPECT_EQ(one.csv_bytes, two.csv_bytes) << name;
  EXPECT_EQ(one.metrics_bytes, two.metrics_bytes) << name;
}

// A test run must not record itself in the run ledger that `xres run`
// appends to by default, results/ledger.jsonl under the working directory.
TEST(StudySmoke, RunLeavesTheWorkingDirectoryLedgerAlone) {
  const std::string ledger = "results/ledger.jsonl";
  const bool existed = std::filesystem::exists(ledger);
  const std::string before = read_file(ledger);
  const StudyDefinition* def = StudyRegistry::instance().find("table1_app_types");
  ASSERT_NE(def, nullptr);
  ASSERT_EQ(run_smoke(*def, 1).exit_code, 0);
  EXPECT_EQ(std::filesystem::exists(ledger), existed);
  EXPECT_EQ(read_file(ledger), before);
}

// The ledger records the workers a run took: a definition without
// --threads runs on one, whatever the harness options ask for.
TEST(StudySmoke, LedgerRecordsTheWorkersTheRunUsed) {
  const std::string ledger = ::testing::TempDir() + "smoke_ledger_threads.jsonl";
  std::remove(ledger.c_str());
  const StudyDefinition* def = StudyRegistry::instance().find("table1_app_types");
  ASSERT_NE(def, nullptr);
  ASSERT_FALSE(def->options.threads);
  ASSERT_EQ(run_smoke(*def, 1, "2",
                      [&](HarnessOptions& options) {
                        options.threads = 4;
                        options.ledger = true;
                        options.ledger_path = ledger;
                      })
                .exit_code,
            0);
  const std::vector<obs::RunRecord> records = load_ledger(ledger);
  std::remove(ledger.c_str());
  ASSERT_EQ(records.size(), 1U);
  EXPECT_EQ(records.front().threads, 1U);
  EXPECT_NE(obs::to_ledger_json(records.front()).find("\"threads\":1"), std::string::npos);
}

// Fast tier-1 subset: one study per harness shape — static table, figure
// pipeline, workload figure, executor ablation, extension.
TEST(StudySmoke, FastSubsetThreadsInvariant) {
  for (const char* name :
       {"table1_app_types", "fig1_efficiency_a32", "fig4_resource_management",
        "ablation_severity_pmf", "ext_semi_blocking"}) {
    expect_threads_invariant(name);
  }
}

// Full-catalog sweep, too slow for tier-1:
//   XRES_SMOKE_ALL=1 ./xres_tests --gtest_filter='StudySmoke.*'
TEST(StudySmoke, FullCatalogThreadsInvariant) {
  if (std::getenv("XRES_SMOKE_ALL") == nullptr) {
    GTEST_SKIP() << "set XRES_SMOKE_ALL=1 to sweep the full catalog";
  }
  for (const StudyDefinition* def : StudyRegistry::instance().all()) {
    expect_threads_invariant(def->name);
  }
}

/// Compares \p bytes with the golden file \p path (rewrites it instead
/// when XRES_REGEN_GOLDEN is set).
void expect_golden(const std::string& path, const std::string& bytes) {
  if (std::getenv("XRES_REGEN_GOLDEN") != nullptr) {
    std::ofstream out{path, std::ios::binary};
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << bytes;
    return;
  }
  std::ifstream in{path, std::ios::binary};
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with XRES_REGEN_GOLDEN=1)";
  EXPECT_EQ(bytes, read_file(path))
      << path << " drifted; regenerate with XRES_REGEN_GOLDEN=1 only if the "
      << "change is intentional";
}

// Byte-identity guard for the shared-PFS path: the contention ablations'
// reports and --metrics JSON at one pattern per cell are pinned to goldens,
// so any change to how the shared PFS serves checkpoint storms shows up
// here rather than only in inequality checks. The topology variant drives
// the fat-tree PfsDevice, the event queue's heaviest cancel/reschedule user.
TEST(StudySmoke, PfsContentionMatchesGolden) {
  for (const char* name : {"ablation_pfs_contention", "ablation_pfs_contention_topology"}) {
    const StudyDefinition* def = StudyRegistry::instance().find(name);
    ASSERT_NE(def, nullptr) << name;
    const SmokeArtifacts run = run_smoke(*def, 1, "1");
    ASSERT_EQ(run.exit_code, 0) << name;
    const std::string base = std::string{XRES_TEST_DATA_DIR} + "/" + name + "_p1";
    expect_golden(base + ".txt", run.stdout_bytes);
    expect_golden(base + ".metrics.json", run.metrics_bytes);
  }
}

// Byte-identity guard for the single-app figures, where each trial's
// runtime is a lone holder ordered against its failures by horizon seqs:
// Figures 1-3 at two trials per cell, report, CSV and --metrics JSON
// pinned to goldens.
TEST(StudySmoke, EfficiencyFiguresMatchGolden) {
  for (const char* name :
       {"fig1_efficiency_a32", "fig2_efficiency_d64", "fig3_efficiency_d64_mtbf2p5"}) {
    const StudyDefinition* def = StudyRegistry::instance().find(name);
    ASSERT_NE(def, nullptr) << name;
    const SmokeArtifacts run = run_smoke(*def, 1, "2");
    ASSERT_EQ(run.exit_code, 0) << name;
    const std::string base = std::string{XRES_TEST_DATA_DIR} + "/" + name + "_t2";
    expect_golden(base + ".txt", run.stdout_bytes);
    expect_golden(base + ".csv", run.csv_bytes);
    expect_golden(base + ".metrics.json", run.metrics_bytes);
  }
}

// Byte-identity guard for the surrogate modes of the efficiency loop:
// Figure 2 at two trials per cell answers its interior sizes from the
// anchors (analytic), or simulates the cells whose bound exceeds the auto
// threshold (auto: 25 anchors, 8 fallbacks, 7 answered cells), so both
// passes are pinned. Report, CSV and --metrics JSON.
TEST(StudySmoke, EfficiencySurrogateModesMatchGolden) {
  const StudyDefinition* def = StudyRegistry::instance().find("fig2_efficiency_d64");
  ASSERT_NE(def, nullptr);
  for (const char* mode : {"analytic", "auto"}) {
    const SmokeArtifacts run = run_smoke(*def, 1, "2", {}, {{"surrogate", mode}});
    ASSERT_EQ(run.exit_code, 0) << mode;
    const std::string base =
        std::string{XRES_TEST_DATA_DIR} + "/fig2_efficiency_d64_t2_" + mode;
    expect_golden(base + ".txt", run.stdout_bytes);
    expect_golden(base + ".csv", run.csv_bytes);
    expect_golden(base + ".metrics.json", run.metrics_bytes);
  }
}

// Byte-identity guard for the multi-app workload engine: the Figure 4 and
// Figure 5 studies and the burst-failure ablation (where one failure
// callback reaches several runtimes) at one pattern per cell, report and
// --metrics JSON pinned to goldens.
TEST(StudySmoke, WorkloadFiguresMatchGolden) {
  for (const char* name : {"fig4_resource_management", "fig5_resilience_selection",
                           "ablation_burst_failures"}) {
    const StudyDefinition* def = StudyRegistry::instance().find(name);
    ASSERT_NE(def, nullptr) << name;
    const SmokeArtifacts run = run_smoke(*def, 1, "1");
    ASSERT_EQ(run.exit_code, 0) << name;
    const std::string base = std::string{XRES_TEST_DATA_DIR} + "/" + name + "_p1";
    expect_golden(base + ".txt", run.stdout_bytes);
    expect_golden(base + ".metrics.json", run.metrics_bytes);
  }
}

// The workload ablations at two patterns per cell, where each row's workload
// study reduces every technique over several pattern runs: reports without
// --metrics pinned to goldens.
TEST(StudySmoke, WorkloadAblationsMatchGoldenAtTwoPatterns) {
  for (const char* name : {"ablation_burst_failures", "ablation_pfs_contention",
                           "ablation_pfs_contention_topology"}) {
    const StudyDefinition* def = StudyRegistry::instance().find(name);
    ASSERT_NE(def, nullptr) << name;
    const SmokeArtifacts run = run_smoke(
        *def, 1, "2", [](HarnessOptions& options) { options.obs.metrics_path.clear(); });
    ASSERT_EQ(run.exit_code, 0) << name;
    expect_golden(std::string{XRES_TEST_DATA_DIR} + "/" + name + "_p2.txt",
                  run.stdout_bytes);
  }
}

/// \p report without its "Instrumented breakdown" block: the blank line
/// before the heading through the breakdown table's bottom border (its
/// third border line).
std::string without_breakdown(const std::string& report) {
  const std::size_t heading = report.find("\n\nInstrumented breakdown");
  if (heading == std::string::npos) return report;
  std::size_t border = heading + 2;
  for (int i = 0; i < 3; ++i) border = report.find("\n+", border) + 1;
  return report.substr(0, heading + 1) + report.substr(report.find('\n', border) + 1);
}

// Without --metrics the runtimes are unobserved and the workload engine runs
// them in lookahead windows; with --metrics (the test above) they take the
// exact path. The reports must carry the same results tables.
TEST(StudySmoke, WorkloadFiguresMatchGoldenWithoutMetrics) {
  for (const char* name : {"fig4_resource_management", "fig5_resilience_selection",
                           "ablation_burst_failures"}) {
    const StudyDefinition* def = StudyRegistry::instance().find(name);
    ASSERT_NE(def, nullptr) << name;
    const SmokeArtifacts run = run_smoke(
        *def, 1, "1", [](HarnessOptions& options) { options.obs.metrics_path.clear(); });
    ASSERT_EQ(run.exit_code, 0) << name;
    EXPECT_TRUE(run.metrics_bytes.empty()) << name;
    const std::string golden =
        read_file(std::string{XRES_TEST_DATA_DIR} + "/" + name + "_p1.txt");
    ASSERT_NE(golden.find("Instrumented breakdown"), std::string::npos) << name;
    EXPECT_EQ(run.stdout_bytes, without_breakdown(golden)) << name;
  }
}

// A workload ablation's journal written without --metrics holds no per-run
// metrics, so resuming it with --metrics must re-run those pattern runs
// instead of merging holes: the resumed report and metrics must equal the
// uninterrupted goldens.
TEST(StudySmoke, PfsContentionResumeRestoresMetrics) {
  const StudyDefinition* def =
      StudyRegistry::instance().find("ablation_pfs_contention");
  ASSERT_NE(def, nullptr);
  const std::string journal = ::testing::TempDir() + "smoke_pfs_resume.jsonl";
  const SmokeArtifacts first = run_smoke(*def, 1, "1", [&](HarnessOptions& options) {
    options.obs.metrics_path.clear();
    options.recovery.journal_path = journal;
  });
  ASSERT_EQ(first.exit_code, 0);
  const SmokeArtifacts resumed = run_smoke(*def, 1, "1", [&](HarnessOptions& options) {
    options.recovery.journal_path = journal;
    options.recovery.resume = true;
  });
  std::remove(journal.c_str());
  ASSERT_EQ(resumed.exit_code, 0);
  const std::string base =
      std::string{XRES_TEST_DATA_DIR} + "/ablation_pfs_contention_p1";
  EXPECT_EQ(resumed.stdout_bytes, read_file(base + ".txt"));
  EXPECT_EQ(resumed.metrics_bytes, read_file(base + ".metrics.json"));
}

}  // namespace
}  // namespace xres::study
