// Integration tests for the workload engine: mapping, deadlines, drops,
// failures, and the study orchestration (Sections VI-VII mechanics at
// testbed scale).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/workload_engine.hpp"
#include "core/workload_record.hpp"
#include "core/workload_study.hpp"
#include "obs/json.hpp"
#include "util/check.hpp"

namespace xres {
namespace {

/// Small machine so tests run fast: 1000 nodes, short jobs.
MachineSpec small_machine() { return MachineSpec::testbed(1000); }

WorkloadConfig small_workload() {
  WorkloadConfig config;
  config.machine_nodes = 1000;
  config.arrival_count = 20;
  config.mean_interarrival = Duration::hours(1.0);
  config.size_fractions = {0.05, 0.10, 0.20};
  config.baseline_hours = {3.0, 6.0};
  return config;
}

Job simple_job(std::uint64_t id, std::uint32_t nodes, double baseline_h,
               double arrival_h, double deadline_h) {
  Job job;
  job.id = JobId{id};
  job.spec = AppSpec::from_baseline(app_type_by_name("B32"), nodes,
                                    Duration::hours(baseline_h));
  job.arrival = TimePoint::at(Duration::hours(arrival_h));
  job.deadline = TimePoint::at(Duration::hours(deadline_h));
  return job;
}

TEST(WorkloadEngine, IdealBaselineCompletesEverythingWithLooseDeadlines) {
  ArrivalPattern pattern;
  for (std::uint64_t i = 0; i < 5; ++i) {
    pattern.jobs.push_back(simple_job(i + 1, 100, 3.0, static_cast<double>(i), 100.0));
  }
  WorkloadEngineConfig config;
  config.machine = small_machine();
  config.policy = TechniquePolicy::ideal_baseline();
  const WorkloadRunResult result = run_workload(config, pattern);
  EXPECT_EQ(result.total_jobs, 5U);
  EXPECT_EQ(result.completed, 5U);
  EXPECT_EQ(result.dropped, 0U);
  EXPECT_DOUBLE_EQ(result.dropped_fraction, 0.0);
  EXPECT_EQ(result.failures_injected, 0U);
}

TEST(WorkloadEngine, ImpossibleDeadlineIsDropped) {
  ArrivalPattern pattern;
  // Needs 3 h but the deadline is 1 h after arrival.
  pattern.jobs.push_back(simple_job(1, 100, 3.0, 0.0, 1.0));
  pattern.jobs.push_back(simple_job(2, 100, 3.0, 0.0, 50.0));
  WorkloadEngineConfig config;
  config.machine = small_machine();
  config.policy = TechniquePolicy::ideal_baseline();
  const WorkloadRunResult result = run_workload(config, pattern);
  EXPECT_EQ(result.completed, 1U);
  EXPECT_EQ(result.dropped, 1U);
}

TEST(WorkloadEngine, OversubscriptionDropsUnderFcfs) {
  // Ten simultaneous jobs each needing 400 of 1000 nodes, 3 h each, with
  // deadlines at 7 h: only ~2 waves of 2 can finish in time.
  ArrivalPattern pattern;
  for (std::uint64_t i = 0; i < 10; ++i) {
    pattern.jobs.push_back(simple_job(i + 1, 400, 3.0, 0.0, 7.0));
  }
  WorkloadEngineConfig config;
  config.machine = small_machine();
  config.policy = TechniquePolicy::ideal_baseline();
  config.scheduler = SchedulerKind::kFcfs;
  const WorkloadRunResult result = run_workload(config, pattern);
  EXPECT_EQ(result.completed, 4U);
  EXPECT_EQ(result.dropped, 6U);
}

TEST(WorkloadEngine, SlackDropsProactively) {
  ArrivalPattern pattern;
  for (std::uint64_t i = 0; i < 10; ++i) {
    pattern.jobs.push_back(simple_job(i + 1, 400, 3.0, 0.0, 7.0));
  }
  WorkloadEngineConfig config;
  config.machine = small_machine();
  config.policy = TechniquePolicy::ideal_baseline();
  config.scheduler = SchedulerKind::kSlack;
  const WorkloadRunResult result = run_workload(config, pattern);
  EXPECT_EQ(result.completed + result.dropped, 10U);
  EXPECT_GE(result.completed, 4U);
}

TEST(WorkloadEngine, FailuresCauseAdditionalDrops) {
  // Same workload; with checkpoint/restart under an aggressive failure
  // rate, some runs stretch past their deadlines.
  ArrivalPattern pattern;
  for (std::uint64_t i = 0; i < 8; ++i) {
    pattern.jobs.push_back(
        simple_job(i + 1, 200, 3.0, static_cast<double>(i) * 0.5, 6.5 + static_cast<double>(i) * 0.5));
  }
  WorkloadEngineConfig ideal;
  ideal.machine = small_machine();
  ideal.policy = TechniquePolicy::ideal_baseline();
  const WorkloadRunResult base = run_workload(ideal, pattern);

  WorkloadEngineConfig faulty = ideal;
  faulty.policy = TechniquePolicy::fixed_technique(TechniqueKind::kCheckpointRestart);
  faulty.resilience.node_mtbf = Duration::days(10.0);  // extreme unreliability
  const WorkloadRunResult result = run_workload(faulty, pattern);

  EXPECT_GT(result.failures_injected, 0U);
  EXPECT_GE(result.dropped, base.dropped);
  EXPECT_EQ(result.completed + result.dropped, result.total_jobs);
}

TEST(WorkloadEngine, SelectionPolicyRecordsCounts) {
  ArrivalPattern pattern;
  for (std::uint64_t i = 0; i < 6; ++i) {
    pattern.jobs.push_back(simple_job(i + 1, 100, 3.0, static_cast<double>(i), 100.0));
  }
  WorkloadEngineConfig config;
  config.machine = small_machine();
  config.policy = TechniquePolicy::selection();
  config.resilience.node_mtbf = Duration::years(1.0);
  const WorkloadRunResult result = run_workload(config, pattern);
  std::uint32_t selected = 0;
  for (const auto& [kind, count] : result.selection_counts) {
    EXPECT_NE(kind, TechniqueKind::kNone);
    selected += count;
  }
  EXPECT_EQ(selected, result.completed + 0U);  // every started job was selected for
  EXPECT_EQ(result.completed, 6U);
}

TEST(WorkloadEngine, UtilizationIsTracked) {
  ArrivalPattern pattern;
  pattern.jobs.push_back(simple_job(1, 500, 6.0, 0.0, 100.0));
  WorkloadEngineConfig config;
  config.machine = small_machine();
  config.policy = TechniquePolicy::ideal_baseline();
  const WorkloadRunResult result = run_workload(config, pattern);
  // One job: 500/1000 nodes busy for the whole horizon.
  EXPECT_NEAR(result.mean_utilization, 0.5, 0.01);
  EXPECT_NEAR(result.makespan.to_hours(), 6.0, 1e-9);
}

TEST(WorkloadEngine, DropBreakdownAndPerAppStats) {
  // Two jobs can run; the rest drop in the queue (FCFS blocking).
  ArrivalPattern pattern;
  for (std::uint64_t i = 0; i < 5; ++i) {
    pattern.jobs.push_back(simple_job(i + 1, 400, 3.0, 0.0, 4.0));
  }
  WorkloadEngineConfig config;
  config.machine = small_machine();
  config.policy = TechniquePolicy::ideal_baseline();
  config.scheduler = SchedulerKind::kFcfs;
  const WorkloadRunResult result = run_workload(config, pattern);
  // Wave 1 (jobs 1, 2) completes at 3 h; wave 2 (jobs 3, 4) starts at 3 h
  // and is aborted at the 4 h deadline; job 5 never starts (it would start
  // exactly at its deadline, which the engine refuses).
  EXPECT_EQ(result.completed, 2U);
  EXPECT_EQ(result.dropped, 3U);
  EXPECT_EQ(result.dropped_before_start, 1U);
  EXPECT_EQ(result.dropped_while_running, 2U);
  ASSERT_EQ(result.completed_slowdown.count, 2U);
  EXPECT_NEAR(result.completed_slowdown.mean, 1.0, 1e-9);  // ideal: no delays
  ASSERT_EQ(result.queue_wait_hours.count, 4U);
  EXPECT_NEAR(result.queue_wait_hours.mean, 1.5, 1e-9);  // (0+0+3+3)/4
}

TEST(WorkloadEngine, MidRunDropsCountedSeparately) {
  // One job whose deadline lands mid-execution: dropped while running.
  ArrivalPattern pattern;
  pattern.jobs.push_back(simple_job(1, 100, 6.0, 0.0, 3.0));
  WorkloadEngineConfig config;
  config.machine = small_machine();
  config.policy = TechniquePolicy::ideal_baseline();
  const WorkloadRunResult result = run_workload(config, pattern);
  EXPECT_EQ(result.dropped_while_running, 1U);
  EXPECT_EQ(result.dropped_before_start, 0U);
}

TEST(WorkloadEngine, SlowdownReflectsResilienceOverhead) {
  ArrivalPattern pattern;
  pattern.jobs.push_back(simple_job(1, 200, 6.0, 0.0, 100.0));
  WorkloadEngineConfig config;
  config.machine = small_machine();
  config.policy = TechniquePolicy::fixed_technique(TechniqueKind::kParallelRecovery);
  const WorkloadRunResult result = run_workload(config, pattern);
  ASSERT_EQ(result.completed, 1U);
  // B32 under message logging: slowdown at least µ = 1.025.
  EXPECT_GE(result.completed_slowdown.mean, 1.025 - 1e-9);
}

TEST(WorkloadEngine, ExtensionSchedulersRun) {
  const ArrivalPattern pattern = generate_pattern(small_workload(), 13, 0);
  for (SchedulerKind kind : {SchedulerKind::kFirstFit, SchedulerKind::kSjf}) {
    WorkloadEngineConfig config;
    config.machine = small_machine();
    config.policy = TechniquePolicy::fixed_technique(TechniqueKind::kMultilevel);
    config.scheduler = kind;
    const WorkloadRunResult result = run_workload(config, pattern);
    EXPECT_EQ(result.completed + result.dropped, result.total_jobs);
  }
}

TEST(WorkloadEngine, FirstFitNeverDropsMoreThanFcfsOnBlockedQueues) {
  // Backfilling strictly helps this blocking-prone workload shape: job 1
  // (900 nodes, 6 h) blocks job 2 (800 nodes) until both 5 h deadlines
  // pass; only FirstFit lets the small job 3 slip through at arrival.
  ArrivalPattern pattern;
  pattern.jobs.push_back(simple_job(1, 900, 6.0, 0.0, 50.0));
  pattern.jobs.push_back(simple_job(2, 800, 3.0, 0.1, 5.0));
  pattern.jobs.push_back(simple_job(3, 100, 3.0, 0.2, 5.0));
  WorkloadEngineConfig config;
  config.machine = small_machine();
  config.policy = TechniquePolicy::ideal_baseline();
  config.scheduler = SchedulerKind::kFcfs;
  const WorkloadRunResult fcfs = run_workload(config, pattern);
  config.scheduler = SchedulerKind::kFirstFit;
  const WorkloadRunResult ff = run_workload(config, pattern);
  EXPECT_EQ(fcfs.dropped, 2U);
  EXPECT_EQ(ff.dropped, 1U);
  EXPECT_EQ(ff.completed, 2U);
}

TEST(WorkloadEngine, EmptyPatternRejected) {
  WorkloadEngineConfig config;
  config.machine = small_machine();
  EXPECT_THROW(run_workload(config, ArrivalPattern{}), CheckError);
}

TEST(WorkloadEngine, DeterministicForFixedSeeds) {
  const ArrivalPattern pattern = generate_pattern(small_workload(), 42, 0);
  WorkloadEngineConfig config;
  config.machine = small_machine();
  config.policy = TechniquePolicy::fixed_technique(TechniqueKind::kMultilevel);
  config.resilience.node_mtbf = Duration::years(1.0);
  config.seed = 7;
  const WorkloadRunResult a = run_workload(config, pattern);
  const WorkloadRunResult b = run_workload(config, pattern);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.failures_injected, b.failures_injected);
  EXPECT_DOUBLE_EQ(a.makespan.to_seconds(), b.makespan.to_seconds());
}

TEST(WorkloadStudy, RunsCombosOverSharedPatterns) {
  WorkloadStudyConfig study;
  study.machine = small_machine();
  study.workload = small_workload();
  study.patterns = 3;
  study.resilience.node_mtbf = Duration::years(2.0);

  const std::vector<WorkloadCombo> combos{
      WorkloadCombo{SchedulerKind::kFcfs, TechniquePolicy::ideal_baseline()},
      WorkloadCombo{SchedulerKind::kFcfs,
                    TechniquePolicy::fixed_technique(TechniqueKind::kParallelRecovery)},
  };
  std::size_t progress_calls = 0;
  const auto results = run_workload_study(
      study, combos, [&](std::size_t done, std::size_t total) {
        ++progress_calls;
        EXPECT_LE(done, total);
      });
  ASSERT_EQ(results.size(), 2U);
  EXPECT_EQ(progress_calls, 6U);
  for (const auto& r : results) {
    EXPECT_EQ(r.dropped_fraction.count, 3U);
    EXPECT_GE(r.dropped_fraction.mean, 0.0);
    EXPECT_LE(r.dropped_fraction.mean, 1.0);
  }
  // The ideal baseline cannot drop more than the failure-prone run on the
  // same patterns (statistically; exact with shared arrival patterns and
  // no failures in baseline).
  EXPECT_LE(results[0].dropped_fraction.mean, results[1].dropped_fraction.mean + 1e-9);
}

/// A pattern run's whole result as its journal record, for byte compares.
std::string record_of(const WorkloadRunResult& r) {
  obs::JsonWriter w;
  write_result(w, r);
  return w.str();
}

TEST(WorkloadStudy, SharedPlanCacheMatchesPrivateCaches) {
  const ArrivalPattern pattern = generate_pattern(small_workload(), 42, 0);
  WorkloadEngineConfig config;
  config.machine = small_machine();
  config.resilience.node_mtbf = Duration::years(1.0);
  config.seed = 7;
  WorkloadPlanCache shared{config.machine, config.resilience};
  const std::vector<TechniquePolicy> policies{
      TechniquePolicy::fixed_technique(TechniqueKind::kMultilevel),
      TechniquePolicy::selection()};
  for (const TechniquePolicy& policy : policies) {
    for (const SchedulerKind scheduler : {SchedulerKind::kRandom, SchedulerKind::kSlack}) {
      config.policy = policy;
      config.scheduler = scheduler;
      config.plans = nullptr;
      const std::string alone = record_of(run_workload(config, pattern));
      config.plans = &shared;
      EXPECT_EQ(record_of(run_workload(config, pattern)), alone)
          << policy.name() << " / " << to_string(scheduler);
    }
  }
  // Random attempts every job at its arrival, so every (policy, spec) was
  // requested; the cache holds one plan per distinct key.
  std::vector<AppSpec> distinct;
  for (const Job& job : pattern.jobs) {
    if (std::find(distinct.begin(), distinct.end(), job.spec) == distinct.end()) {
      distinct.push_back(job.spec);
    }
  }
  ASSERT_LT(distinct.size(), pattern.jobs.size());  // the pattern repeats specs
  EXPECT_EQ(shared.size(), policies.size() * distinct.size());
}

TEST(WorkloadStudy, PlanCacheRejectsAnotherMachine) {
  WorkloadEngineConfig config;
  config.machine = small_machine();
  WorkloadPlanCache other{MachineSpec::testbed(2000), config.resilience};
  config.plans = &other;
  EXPECT_THROW((void)run_workload(config, generate_pattern(small_workload(), 42, 0)),
               CheckError);
}

TEST(WorkloadStudy, ThreadCountDoesNotChangeResults) {
  WorkloadStudyConfig study;
  study.machine = small_machine();
  study.workload = small_workload();
  study.patterns = 4;
  study.resilience.node_mtbf = Duration::years(1.0);
  study.collect_metrics = true;
  const std::vector<WorkloadCombo> combos{
      WorkloadCombo{SchedulerKind::kRandom,
                    TechniquePolicy::fixed_technique(TechniqueKind::kMultilevel)},
      WorkloadCombo{SchedulerKind::kSlack,
                    TechniquePolicy::fixed_technique(TechniqueKind::kMultilevel)},
      WorkloadCombo{SchedulerKind::kRandom, TechniquePolicy::selection()},
      WorkloadCombo{SchedulerKind::kSlack, TechniquePolicy::selection()}};
  std::vector<std::string> outputs;
  for (const unsigned threads : {1U, 4U}) {
    study.threads = threads;
    const auto results = run_workload_study(study, combos);
    std::string out = workload_results_table(results).to_text();
    for (const WorkloadComboResult& r : results) out += r.metrics->to_json();
    outputs.push_back(std::move(out));
  }
  EXPECT_EQ(outputs[0], outputs[1]);
}

TEST(WorkloadStudy, ComboSetsMatchPaperFigures) {
  const auto fig4 = figure4_combos();
  // 1 ideal baseline + 3 schedulers × 3 techniques = 10 bars.
  EXPECT_EQ(fig4.size(), 10U);
  const auto fig5 = figure5_combos();
  // 3 schedulers × {parallel recovery, selection} = 6 bars per pattern type.
  EXPECT_EQ(fig5.size(), 6U);
}

TEST(WorkloadStudy, ResultsTableRenders) {
  WorkloadStudyConfig study;
  study.machine = small_machine();
  study.workload = small_workload();
  study.patterns = 2;
  const auto results = run_workload_study(
      study, {WorkloadCombo{SchedulerKind::kRandom, TechniquePolicy::ideal_baseline()}});
  const Table table = workload_results_table(results);
  EXPECT_EQ(table.row_count(), 1U);
  EXPECT_NE(table.to_text().find("Random"), std::string::npos);
}

}  // namespace
}  // namespace xres
