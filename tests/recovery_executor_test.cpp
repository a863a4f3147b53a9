// Tests for the executor's crash-safety envelope (for_each_controlled and
// the journaled loop behind run_batch and run_workload_study): resume
// determinism, stale-record detection, watchdog timeouts, bounded same-seed
// retry with quarantine, and graceful shutdown draining — the invariants
// docs/ROBUSTNESS.md promises, for both unit result types.

#include "core/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/app_type.hpp"
#include "core/single_app_study.hpp"
#include "core/workload_record.hpp"
#include "core/workload_study.hpp"
#include "recovery/journal.hpp"
#include "recovery/shutdown.hpp"
#include "util/deadline.hpp"

namespace xres {
namespace {

using recovery::BatchReport;
using recovery::JournalMeta;
using recovery::ResumeIndex;
using recovery::TrialJournal;
using recovery::TrialRecoveryOptions;

struct TempPath {
  std::string path;
  explicit TempPath(const std::string& name) : path{"/tmp/xres_" + name} {
    std::remove(path.c_str());
  }
  ~TempPath() { std::remove(path.c_str()); }
};

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

JournalMeta test_meta() {
  JournalMeta meta;
  meta.study = "executor-test";
  meta.root_seed = 7;
  return meta;
}

std::vector<TrialSpec> small_specs(std::size_t count) {
  SingleAppTrialConfig config;
  config.app = AppSpec{app_type_by_name("C64"), 30000, 360};
  config.technique = TechniqueKind::kMultilevel;
  std::vector<TrialSpec> specs;
  specs.reserve(count);
  for (std::uint64_t t = 0; t < count; ++t) {
    specs.push_back(TrialSpec{config, {t}});
  }
  return specs;
}

TEST(ForEachControlled, PlainLoopBehaviorWhenDefaulted) {
  const TrialExecutor executor{2};
  std::vector<int> hits(16, 0);
  BatchReport report;
  executor.for_each_controlled(
      hits.size(), [&](std::size_t i) { hits[i] = 1; }, TrialLoopControl{}, &report);
  for (const int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(report.executed, 16U);
  EXPECT_EQ(report.resumed, 0U);
  EXPECT_FALSE(report.interrupted);
}

TEST(ForEachControlled, AlreadyDoneSkipsAndCounts) {
  const TrialExecutor executor{2};
  std::vector<int> hits(10, 0);
  TrialLoopControl control;
  control.already_done = [](std::size_t i) { return i % 2 == 0; };
  BatchReport report;
  executor.for_each_controlled(
      hits.size(), [&](std::size_t i) { hits[i] = 1; }, control, &report);
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], i % 2 == 0 ? 0 : 1);
  EXPECT_EQ(report.executed, 5U);
  EXPECT_EQ(report.resumed, 5U);
}

TEST(ForEachControlled, RetriesTransientFailuresWithSameIndex) {
  const TrialExecutor executor{2};
  std::vector<std::atomic<int>> attempts(8);
  TrialLoopControl control;
  control.trial_attempts = 3;
  control.quarantine = [](std::size_t, const std::string&) { FAIL(); };
  BatchReport report;
  executor.for_each_controlled(
      attempts.size(),
      [&](std::size_t i) {
        // Index 5 fails twice, then succeeds within its attempt budget.
        if (i == 5 && attempts[i].fetch_add(1) < 2) {
          throw std::runtime_error{"transient"};
        }
      },
      control, &report);
  EXPECT_EQ(attempts[5].load(), 3);
  EXPECT_EQ(report.executed, 8U);
  EXPECT_EQ(report.retried, 2U);
  EXPECT_EQ(report.quarantined, 0U);
}

TEST(ForEachControlled, QuarantinesAfterAttemptBudget) {
  const TrialExecutor executor{2};
  TrialLoopControl control;
  control.trial_attempts = 2;
  std::atomic<std::size_t> quarantined_index{999};
  std::string reason;
  control.quarantine = [&](std::size_t i, const std::string& r) {
    quarantined_index = i;
    reason = r;  // the hook is serialized by the executor
  };
  BatchReport report;
  executor.for_each_controlled(
      6,
      [&](std::size_t i) {
        if (i == 3) throw std::runtime_error{"deterministic model bug"};
      },
      control, &report);
  EXPECT_EQ(quarantined_index.load(), 3U);
  EXPECT_NE(reason.find("deterministic model bug"), std::string::npos);
  EXPECT_EQ(report.executed, 5U);
  EXPECT_EQ(report.retried, 1U);
  EXPECT_EQ(report.quarantined, 1U);
}

TEST(ForEachControlled, WithoutQuarantineExceptionsPropagate) {
  // Historical behavior: no hook, no retries — the failure fails the loop.
  const TrialExecutor executor{2};
  EXPECT_THROW(
      executor.for_each_controlled(
          4,
          [](std::size_t i) {
            if (i == 1) throw std::runtime_error{"boom"};
          },
          TrialLoopControl{}),
      std::runtime_error);
}

TEST(ForEachControlled, WatchdogAbortsHungUnitThenRetrySucceeds) {
  const TrialExecutor executor{2};
  TrialLoopControl control;
  control.trial_timeout_seconds = 0.1;
  control.trial_attempts = 2;
  control.quarantine = [](std::size_t, const std::string&) {};
  std::atomic<int> first_attempt{1};
  BatchReport report;
  executor.for_each_controlled(
      3,
      [&](std::size_t i) {
        if (i == 1 && first_attempt.exchange(0) == 1) {
          // A diverged trial: spins forever, but polls the deadline the way
          // the sim engine does. The armed watchdog must unwind it.
          while (true) deadline_poll();
        }
      },
      control, &report);
  EXPECT_EQ(report.executed, 3U);
  EXPECT_EQ(report.retried, 1U);
  EXPECT_EQ(report.quarantined, 0U);
}

TEST(ForEachControlled, DrainsOnShutdownSignal) {
  recovery::clear_shutdown_for_tests();
  recovery::request_shutdown_for_tests();
  const TrialExecutor executor{2};
  std::atomic<std::size_t> ran{0};
  BatchReport report;
  executor.for_each_controlled(
      64, [&](std::size_t) { ran.fetch_add(1); }, TrialLoopControl{}, &report);
  EXPECT_TRUE(report.interrupted);
  EXPECT_EQ(ran.load(), report.executed);
  EXPECT_LT(report.executed, 64U);

  // Plain for_each never drains: its callers reduce the full result vector.
  std::atomic<std::size_t> plain{0};
  executor.for_each(16, [&](std::size_t) { plain.fetch_add(1); });
  EXPECT_EQ(plain.load(), 16U);
  recovery::clear_shutdown_for_tests();
}

TEST(ControlledRunBatch, JournalThenResumeIsByteIdentical) {
  const TempPath tmp{"executor_resume.jsonl"};
  const std::vector<TrialSpec> specs = small_specs(12);

  // Uninterrupted reference.
  const TrialExecutor serial{1};
  const std::vector<ExecutionResult> reference = serial.run_batch(7, specs);

  // First run journals everything.
  BatchReport first;
  {
    TrialJournal journal{tmp.path, test_meta()};
    TrialRecoveryOptions rec;
    rec.journal = &journal;
    const std::vector<ExecutionResult> run = TrialExecutor{3}.run_batch(
        7, specs, {}, rec, "batch", &first);
    ASSERT_EQ(run.size(), reference.size());
  }
  EXPECT_EQ(first.executed, 12U);
  const std::string journal_after_first = read_file(tmp.path);

  // Second run resumes: nothing re-simulates, results match exactly, and
  // re-journaling the restored outcomes reproduces identical records.
  const ResumeIndex index = ResumeIndex::load(tmp.path, test_meta());
  ASSERT_EQ(index.size(), 12U);
  BatchReport second;
  std::vector<ExecutionResult> resumed;
  {
    TrialJournal journal{tmp.path, test_meta()};
    TrialRecoveryOptions rec;
    rec.journal = &journal;
    rec.resume = &index;
    resumed = TrialExecutor{2}.run_batch(7, specs, {}, rec, "batch", &second);
  }
  EXPECT_EQ(second.executed, 0U);
  EXPECT_EQ(second.resumed, 12U);
  ASSERT_EQ(resumed.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(resumed[i].efficiency, reference[i].efficiency) << "trial " << i;
    EXPECT_EQ(resumed[i].wall_time.to_seconds(), reference[i].wall_time.to_seconds());
    EXPECT_EQ(resumed[i].failures_seen, reference[i].failures_seen);
    EXPECT_EQ(resumed[i].checkpoints_completed, reference[i].checkpoints_completed);
  }
  // The resume run appended nothing new (all trials were restored), so the
  // journal is byte-identical to the post-crash state.
  EXPECT_EQ(read_file(tmp.path), journal_after_first);
}

TEST(ControlledRunBatch, PartialJournalResumesOnlyTheMissingTail) {
  const TempPath tmp{"executor_partial.jsonl"};
  const std::vector<TrialSpec> specs = small_specs(10);
  const std::vector<ExecutionResult> reference = TrialExecutor{1}.run_batch(7, specs);

  // Simulate a crash after 4 trials: journal only a prefix.
  {
    TrialJournal journal{tmp.path, test_meta()};
    TrialRecoveryOptions rec;
    rec.journal = &journal;
    const std::vector<TrialSpec> prefix{specs.begin(), specs.begin() + 4};
    (void)TrialExecutor{1}.run_batch(7, prefix, {}, rec, "batch");
  }

  const ResumeIndex index = ResumeIndex::load(tmp.path, test_meta());
  ASSERT_EQ(index.size(), 4U);
  TrialJournal journal{tmp.path, test_meta()};
  TrialRecoveryOptions rec;
  rec.journal = &journal;
  rec.resume = &index;
  BatchReport report;
  const std::vector<ExecutionResult> resumed =
      TrialExecutor{2}.run_batch(7, specs, {}, rec, "batch", &report);
  EXPECT_EQ(report.resumed, 4U);
  EXPECT_EQ(report.executed, 6U);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(resumed[i].efficiency, reference[i].efficiency) << "trial " << i;
  }
}

TEST(ControlledRunBatch, StaleSeedRecordsAreReRunNotTrusted) {
  const TempPath tmp{"executor_stale.jsonl"};
  const std::vector<TrialSpec> specs = small_specs(6);
  {
    TrialJournal journal{tmp.path, test_meta()};
    TrialRecoveryOptions rec;
    rec.journal = &journal;
    (void)TrialExecutor{1}.run_batch(7, specs, {}, rec, "batch");
  }

  // The sweep changed: same (batch, index) slots, different seed keys. The
  // journal's fingerprints no longer match, so every record is stale.
  std::vector<TrialSpec> edited = specs;
  for (std::size_t i = 0; i < edited.size(); ++i) {
    edited[i].seed_keys = {i + 100};
  }
  const ResumeIndex index = ResumeIndex::load(tmp.path, test_meta());
  TrialRecoveryOptions rec;
  rec.resume = &index;
  BatchReport report;
  const std::vector<ExecutionResult> results =
      TrialExecutor{1}.run_batch(7, edited, {}, rec, "batch", &report);
  EXPECT_EQ(report.resumed, 0U);
  EXPECT_EQ(report.executed, 6U);
  EXPECT_EQ(report.stale_records, 6U);
  // And the results are the *edited* sweep's, not the journaled ones.
  const std::vector<ExecutionResult> reference = TrialExecutor{1}.run_batch(7, edited);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(results[i].efficiency, reference[i].efficiency);
  }
}

TEST(ControlledRunBatch, ResumedMetricsMatchUninterruptedByteForByte) {
  const TempPath tmp{"executor_metrics.jsonl"};
  const TempPath json_a{"metrics_uninterrupted.json"};
  const TempPath json_b{"metrics_resumed.json"};
  const std::vector<TrialSpec> specs = small_specs(8);

  const auto run_observed = [&](const TrialRecoveryOptions& rec, BatchReport* report) {
    std::vector<obs::TrialObs> observers(specs.size());
    for (obs::TrialObs& o : observers) o.enable_metrics();
    (void)TrialExecutor{2}.run_batch(7, specs, observers, rec, "batch", report);
    obs::MetricSet merged;
    for (const obs::TrialObs& o : observers) merged.merge(*o.metrics());
    return merged;
  };

  BatchReport first;
  {
    TrialJournal journal{tmp.path, test_meta()};
    TrialRecoveryOptions rec;
    rec.journal = &journal;
    run_observed(rec, &first).write_json(json_a.path);
  }
  EXPECT_EQ(first.executed, 8U);

  const ResumeIndex index = ResumeIndex::load(tmp.path, test_meta());
  TrialRecoveryOptions rec;
  rec.resume = &index;
  BatchReport second;
  run_observed(rec, &second).write_json(json_b.path);
  EXPECT_EQ(second.resumed, 8U);
  EXPECT_EQ(second.executed, 0U);

  const std::string a = read_file(json_a.path);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, read_file(json_b.path));
}

TEST(ControlledRunBatch, TraceObserverTrialsReRunOnResume) {
  const TempPath tmp{"executor_trace.jsonl"};
  const std::vector<TrialSpec> specs = small_specs(4);
  {
    TrialJournal journal{tmp.path, test_meta()};
    TrialRecoveryOptions rec;
    rec.journal = &journal;
    (void)TrialExecutor{1}.run_batch(7, specs, {}, rec, "batch");
  }
  const ResumeIndex index = ResumeIndex::load(tmp.path, test_meta());
  TrialRecoveryOptions rec;
  rec.resume = &index;

  // Trial 0 carries a trace observer; traces are not journaled, so it must
  // re-simulate (deterministically) while the rest restore.
  std::vector<obs::TrialObs> observers(specs.size());
  observers[0].enable_trace();
  BatchReport report;
  (void)TrialExecutor{1}.run_batch(7, specs, observers, rec, "batch", &report);
  EXPECT_EQ(report.executed, 1U);
  EXPECT_EQ(report.resumed, 3U);
  ASSERT_NE(observers[0].trace(), nullptr);
  EXPECT_FALSE(observers[0].trace()->empty());
}

TEST(ControlledRunBatch, QuarantinedTrialYieldsZeroPlaceholderAndRecord) {
  // Force every attempt to time out instantly via an impossible watchdog.
  const TempPath tmp{"executor_quarantine.jsonl"};
  const std::vector<TrialSpec> specs = small_specs(3);
  TrialJournal journal{tmp.path, test_meta()};
  TrialRecoveryOptions rec;
  rec.journal = &journal;
  rec.trial_timeout_seconds = 1e-9;
  rec.trial_attempts = 2;
  ASSERT_TRUE(rec.quarantine_enabled());
  BatchReport report;
  const std::vector<ExecutionResult> results =
      TrialExecutor{1}.run_batch(7, specs, {}, rec, "batch", &report);
  journal.flush();

  // Whether a 1ns deadline fires before any poll is timing-dependent, but
  // every trial either completed honestly or was quarantined with a zero
  // placeholder — and the journal holds exactly one record per trial.
  EXPECT_EQ(report.executed + report.quarantined, 3U);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_GE(results[i].efficiency, 0.0);
  }
  const ResumeIndex index = ResumeIndex::load(tmp.path, test_meta());
  EXPECT_EQ(index.size(), 3U);
}

// The same loop with the workload unit type, through run_workload_study.

WorkloadStudyConfig small_workload_study() {
  WorkloadStudyConfig study;
  study.workload.arrival_count = 10;
  study.patterns = 2;
  study.collect_metrics = true;
  return study;
}

std::vector<WorkloadCombo> two_combos() {
  return {WorkloadCombo{SchedulerKind::kFcfs,
                        TechniquePolicy::fixed_technique(TechniqueKind::kParallelRecovery)},
          WorkloadCombo{SchedulerKind::kSlack,
                        TechniquePolicy::fixed_technique(TechniqueKind::kMultilevel)}};
}

/// What a resumed study must reproduce byte for byte: the results table
/// and every combo's merged metrics.
std::string study_bytes(const std::vector<WorkloadComboResult>& results) {
  std::string out = workload_results_table(results).to_text();
  for (const WorkloadComboResult& r : results) {
    if (r.metrics.has_value()) out += r.metrics->to_json();
  }
  return out;
}

TEST(JournaledWorkloadStudy, ResumeAtThreeThreadsReproducesResultsAndMetrics) {
  const TempPath tmp{"workload_resume.jsonl"};
  WorkloadStudyConfig study = small_workload_study();
  study.threads = 1;
  const std::string reference = study_bytes(run_workload_study(study, two_combos()));

  BatchReport first;
  {
    TrialJournal journal{tmp.path, test_meta()};
    study.recovery.journal = &journal;
    EXPECT_EQ(study_bytes(run_workload_study(study, two_combos(), {}, &first)), reference);
  }
  EXPECT_EQ(first.executed, 4U);
  // Workload records carry the same wall-time telemetry as trial records.
  EXPECT_NE(read_file(tmp.path).find("\"w\":"), std::string::npos);

  const ResumeIndex index = ResumeIndex::load(tmp.path, test_meta());
  ASSERT_EQ(index.size(), 4U);
  study.threads = 3;
  study.recovery = TrialRecoveryOptions{};
  study.recovery.resume = &index;
  BatchReport second;
  EXPECT_EQ(study_bytes(run_workload_study(study, two_combos(), {}, &second)), reference);
  EXPECT_EQ(second.executed, 0U);
  EXPECT_EQ(second.resumed, 4U);
  EXPECT_EQ(second.stale_records, 0U);
}

TEST(JournaledWorkloadStudy, EditedComboMakesOnlyItsRecordsStale) {
  const TempPath tmp{"workload_stale.jsonl"};
  WorkloadStudyConfig study = small_workload_study();
  study.threads = 2;
  std::vector<WorkloadCombo> combos = two_combos();
  {
    TrialJournal journal{tmp.path, test_meta()};
    study.recovery.journal = &journal;
    (void)run_workload_study(study, combos);
  }

  // Same (batch, index) slots, but the second combo now names another
  // scheduler: its fingerprints change, the first combo's do not.
  combos[1].scheduler = SchedulerKind::kRandom;
  const ResumeIndex index = ResumeIndex::load(tmp.path, test_meta());
  study.recovery = TrialRecoveryOptions{};
  study.recovery.resume = &index;
  BatchReport report;
  const std::string resumed = study_bytes(run_workload_study(study, combos, {}, &report));
  EXPECT_EQ(report.resumed, 2U);
  EXPECT_EQ(report.stale_records, 2U);
  EXPECT_EQ(report.executed, 2U);
  // And the edited combo's numbers are the edited study's, not the journal's.
  study.recovery = TrialRecoveryOptions{};
  EXPECT_EQ(resumed, study_bytes(run_workload_study(study, combos)));
}

TEST(JournaledWorkloadStudy, PayloadWithoutWallTimeStillParses) {
  // A pattern-run payload in the format that predates the optional "w"/"a"
  // keys on workload records: journals written that way must still resume.
  const std::string payload =
      R"({"result":{"jobs":109,"completed":72,"dropped":37,)"
      R"("dropped_frac":0.3394495412844037,"dropped_before":32,"dropped_running":5,)"
      R"("slowdown":[72,1.0599660803962643,0.07932450725277712,1.0029629629629602,)"
      R"(1.446701495892775,0.01832268966534606],"queue_wait_h":[77,2.3013599683394674,)"
      R"(7.491682550543451,0,41.0686295887764,1.6733319177015997],"failures":289,)"
      R"("makespan_s":1034122.3734133609,"util":0.7170648409386997,"sel":[]}})";
  const recovery::Outcome<WorkloadRunResult> outcome =
      recovery::parse_outcome<WorkloadRunResult>(payload);
  EXPECT_EQ(outcome.result.total_jobs, 109U);
  EXPECT_EQ(outcome.result.dropped_fraction, 0.3394495412844037);
  EXPECT_EQ(outcome.result.failures_injected, 289U);
  EXPECT_FALSE(outcome.quarantined);
  EXPECT_FALSE(outcome.metrics.has_value());
  EXPECT_EQ(outcome.wall_seconds, 0.0);
  EXPECT_EQ(outcome.attempts, 1U);
  EXPECT_EQ(recovery::serialize_outcome(outcome), payload);
}

}  // namespace
}  // namespace xres
