// Tests for the TrialExecutor study API: the seed-derivation contract,
// bit-identical results for every thread count, exception propagation and
// progress-callback guarantees. These are the invariants DESIGN.md §
// "Deterministic parallel execution" promises.

#include "core/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "apps/app_type.hpp"
#include "core/single_app_study.hpp"
#include "core/trial_engine.hpp"
#include "core/workload_study.hpp"
#include "failure/severity.hpp"
#include "resilience/planner.hpp"

namespace xres {
namespace {

SingleAppTrialConfig small_config(TechniqueKind technique) {
  SingleAppTrialConfig config;
  config.app = AppSpec{app_type_by_name("C64"), 30000, 360};
  config.technique = technique;
  return config;
}

TEST(TrialExecutor, DerivedSeedContract) {
  const TrialSpec keyed{small_config(TechniqueKind::kMultilevel), {7, 11}};
  EXPECT_EQ(keyed.derived_seed(99), derive_seed(99, 7, 11));

  // No keys: the root seed passes through unchanged.
  const TrialSpec unkeyed{small_config(TechniqueKind::kMultilevel), {}};
  EXPECT_EQ(unkeyed.derived_seed(99), 99U);

  // run_trial(TrialSpec, root) is exactly run_trial(work, derived seed).
  const ExecutionResult via_spec = run_trial(keyed, 99);
  const ExecutionResult direct =
      run_trial(small_config(TechniqueKind::kMultilevel), derive_seed(99, 7, 11));
  EXPECT_DOUBLE_EQ(via_spec.wall_time.to_seconds(), direct.wall_time.to_seconds());
  EXPECT_EQ(via_spec.failures_seen, direct.failures_seen);
}

TEST(TrialExecutor, BatchMatchesSerialForEveryThreadCount) {
  std::vector<TrialSpec> specs;
  int k = 0;
  for (TechniqueKind kind :
       {TechniqueKind::kCheckpointRestart, TechniqueKind::kMultilevel,
        TechniqueKind::kParallelRecovery}) {
    for (std::uint64_t t = 0; t < 6; ++t) {
      specs.push_back(TrialSpec{small_config(kind),
                                {static_cast<std::uint64_t>(k), t}});
    }
    ++k;
  }

  std::vector<ExecutionResult> serial;
  for (const TrialSpec& spec : specs) {
    serial.push_back(run_trial(spec, 20170529));
  }

  for (unsigned threads : {1U, 2U, 4U}) {
    const TrialExecutor executor{threads};
    const std::vector<ExecutionResult> batch = executor.run_batch(20170529, specs);
    ASSERT_EQ(batch.size(), serial.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_DOUBLE_EQ(batch[i].efficiency, serial[i].efficiency) << i;
      EXPECT_DOUBLE_EQ(batch[i].wall_time.to_seconds(),
                       serial[i].wall_time.to_seconds())
          << i;
      EXPECT_EQ(batch[i].failures_seen, serial[i].failures_seen) << i;
      EXPECT_EQ(batch[i].checkpoints_completed, serial[i].checkpoints_completed) << i;
      EXPECT_EQ(batch[i].rollbacks, serial[i].rollbacks) << i;
    }
  }
}

TEST(TrialExecutor, EfficiencyStudyIsThreadCountInvariant) {
  EfficiencyStudyConfig config;
  config.app_type = app_type_by_name("A32");
  config.size_fractions = {0.05, 0.50};
  config.techniques = {TechniqueKind::kCheckpointRestart,
                       TechniqueKind::kParallelRecovery};
  config.trials = 8;

  config.threads = 1;
  const EfficiencyStudyResult serial = run_efficiency_study(config);
  config.threads = 4;
  const EfficiencyStudyResult parallel = run_efficiency_study(config);

  ASSERT_EQ(serial.efficiency.size(), parallel.efficiency.size());
  for (std::size_t si = 0; si < serial.efficiency.size(); ++si) {
    ASSERT_EQ(serial.efficiency[si].size(), parallel.efficiency[si].size());
    for (std::size_t ti = 0; ti < serial.efficiency[si].size(); ++ti) {
      const Summary& a = serial.efficiency[si][ti];
      const Summary& b = parallel.efficiency[si][ti];
      EXPECT_EQ(a.count, b.count);
      EXPECT_DOUBLE_EQ(a.mean, b.mean);
      EXPECT_DOUBLE_EQ(a.stddev, b.stddev);
      EXPECT_DOUBLE_EQ(a.min, b.min);
      EXPECT_DOUBLE_EQ(a.max, b.max);
      EXPECT_DOUBLE_EQ(serial.mean_failures[si][ti], parallel.mean_failures[si][ti]);
    }
  }
}

TEST(TrialExecutor, WorkloadStudyIsThreadCountInvariant) {
  WorkloadStudyConfig study;
  study.workload.arrival_count = 10;
  study.patterns = 3;
  const std::vector<WorkloadCombo> combos{
      WorkloadCombo{SchedulerKind::kFcfs,
                    TechniquePolicy::fixed_technique(TechniqueKind::kParallelRecovery)},
      WorkloadCombo{SchedulerKind::kSlack, TechniquePolicy::ideal_baseline()}};

  study.threads = 1;
  const auto serial = run_workload_study(study, combos);
  study.threads = 4;
  const auto parallel = run_workload_study(study, combos);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].dropped_fraction.count, parallel[i].dropped_fraction.count);
    EXPECT_DOUBLE_EQ(serial[i].dropped_fraction.mean, parallel[i].dropped_fraction.mean);
    EXPECT_DOUBLE_EQ(serial[i].dropped_fraction.stddev,
                     parallel[i].dropped_fraction.stddev);
  }
}

TEST(TrialExecutor, ForEachVisitsEveryIndexOnce) {
  const TrialExecutor executor{4};
  std::vector<std::atomic<int>> visits(64);
  executor.for_each(visits.size(),
                    [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << i;
  }
}

TEST(TrialExecutor, ForEachPropagatesExceptions) {
  for (unsigned threads : {1U, 4U}) {
    const TrialExecutor executor{threads};
    EXPECT_THROW(executor.for_each(32,
                                   [](std::size_t i) {
                                     if (i == 17) {
                                       throw std::runtime_error{"boom"};
                                     }
                                   }),
                 std::runtime_error)
        << threads << " threads";
  }
}

TEST(TrialExecutor, ProgressIsMonotoneAndComplete) {
  for (unsigned threads : {1U, 4U}) {
    const TrialExecutor executor{threads};
    std::mutex mutex;
    std::vector<std::size_t> seen;
    executor.for_each(
        40, [](std::size_t) {},
        [&](std::size_t done, std::size_t total) {
          const std::lock_guard<std::mutex> lock{mutex};
          EXPECT_EQ(total, 40U);
          seen.push_back(done);
        });
    ASSERT_EQ(seen.size(), 40U) << threads << " threads";
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i], i + 1) << threads << " threads";
    }
  }
}

TEST(TrialExecutor, ZeroThreadsUsesHardwareConcurrency) {
  const TrialExecutor executor{0};
  EXPECT_GE(executor.threads(), 1U);
}

TEST(TrialExecutor, EmptyBatchIsFine) {
  const TrialExecutor executor{4};
  EXPECT_TRUE(executor.run_batch(1, {}).empty());
  bool called = false;
  executor.for_each(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(TrialExecutor, TraceAndPlanSpecsRunThroughBatch) {
  const MachineSpec machine = MachineSpec::exascale();
  const ResilienceConfig resilience;
  const AppSpec app{app_type_by_name("B32"), 12000, 360};
  const ExecutionPlan plan =
      make_plan(TechniqueKind::kCheckpointRestart, app, machine, resilience);

  Pcg32 rng{5};
  const SeverityModel severity{resilience.severity_weights};
  const FailureTrace trace =
      FailureTrace::generate(plan.failure_rate, Duration::days(2.0), severity,
                             FailureDistribution::exponential(), rng);

  const std::vector<TrialSpec> specs{
      TrialSpec{PlanTrialSpec{plan, resilience, FailureDistribution::exponential()}, {0}},
      TrialSpec{TraceTrialSpec{plan, resilience, trace}, {1}}};
  const TrialExecutor executor{2};
  const auto results = executor.run_batch(3, specs);
  ASSERT_EQ(results.size(), 2U);
  EXPECT_DOUBLE_EQ(results[0].efficiency,
                   run_trial(std::get<PlanTrialSpec>(specs[0].work),
                             specs[0].derived_seed(3))
                       .efficiency);
  EXPECT_DOUBLE_EQ(results[1].efficiency,
                   run_trial(std::get<TraceTrialSpec>(specs[1].work),
                             specs[1].derived_seed(3))
                       .efficiency);
}

/// The thread-local plan cache (core/trial_engine.hpp) must re-plan when
/// any make_plan input changes. The walk below changes one input per step,
/// each one the planner reads (asserted: the plan differs), and asks the
/// cache right after the previous step warmed it with the old config.
TEST(TrialExecutor, PlanCacheKeysOnEveryPlanInput) {
  using Step = std::pair<const char*, std::function<void(SingleAppTrialConfig&)>>;
  const std::vector<Step> steps{
      {"machine.platform.model",
       [](auto& c) { c.machine.platform.model = PlatformModelKind::kFattree; }},
      {"machine.platform.fattree.pfs_channels",
       [](auto& c) { c.machine.platform.fattree.pfs_channels = 1; }},
      {"machine.platform.fattree.taper",
       [](auto& c) { c.machine.platform.fattree.taper = 0.25; }},
      {"machine.platform.fattree.leaf_radix",
       [](auto& c) { c.machine.platform.fattree.leaf_radix = 8; }},
      {"machine.network.bandwidth",
       [](auto& c) { c.machine.network.bandwidth = Bandwidth::gigabytes_per_second(300.0); }},
      {"machine.network.switch_connections",
       [](auto& c) { c.machine.network.switch_connections = 6; }},
      {"app.nodes", [](auto& c) { c.app.nodes = 20000; }},
      {"app.time_steps", [](auto& c) { c.app.time_steps = 720; }},
      {"resilience.node_mtbf",
       [](auto& c) { c.resilience.node_mtbf = Duration::years(2.5); }},
      {"resilience.max_slowdown", [](auto& c) { c.resilience.max_slowdown = 50.0; }},
      {"resilience.checkpoint_compression",
       [](auto& c) { c.resilience.checkpoint_compression = 0.5; }},
      {"resilience.adaptive_interval",
       [](auto& c) { c.resilience.adaptive_interval = true; }},
      {"technique", [](auto& c) { c.technique = TechniqueKind::kMultilevel; }},
      {"machine.node.memory_bandwidth",
       [](auto& c) { c.machine.node.memory_bandwidth = Bandwidth::gigabytes_per_second(0.5); }},
      {"resilience.severity_weights",
       [](auto& c) { c.resilience.severity_weights = {0.2, 0.3, 0.5}; }},
      {"resilience.max_nesting", [](auto& c) { c.resilience.max_nesting = 2; }},
      {"technique (parallel recovery)",
       [](auto& c) { c.technique = TechniqueKind::kParallelRecovery; }},
      {"resilience.comm_slowdown_per_tc",
       [](auto& c) { c.resilience.comm_slowdown_per_tc = 0.3; }},
      {"resilience.recovery_parallelism",
       [](auto& c) { c.resilience.recovery_parallelism = 8.0; }},
      {"app.type.comm_fraction (same name)",
       [](auto& c) { c.app.type.comm_fraction = 0.5; }},
      {"app.type", [](auto& c) { c.app.type = app_type_by_name("B64"); }},
      {"technique (full redundancy)",
       [](auto& c) { c.technique = TechniqueKind::kRedundancyFull; }},
      {"resilience.full_redundancy", [](auto& c) { c.resilience.full_redundancy = 1.8; }},
      {"machine.node_count", [](auto& c) { c.machine.node_count = 30000; }},
      {"technique (partial redundancy)",
       [](auto& c) { c.technique = TechniqueKind::kRedundancyPartial; }},
      {"resilience.partial_redundancy",
       [](auto& c) { c.resilience.partial_redundancy = 1.25; }},
      {"technique (semi-blocking)",
       [](auto& c) { c.technique = TechniqueKind::kSemiBlockingCheckpoint; }},
      {"resilience.semi_blocking_work_rate",
       [](auto& c) { c.resilience.semi_blocking_work_rate = 0.25; }},
  };
  const auto plan_of = [](const SingleAppTrialConfig& c) {
    return make_plan(c.technique, c.app, c.machine, c.resilience);
  };

  SingleAppTrialConfig config;
  config.app = AppSpec{app_type_by_name("D64"), 30000, 360};
  config.technique = TechniqueKind::kCheckpointRestart;
  EXPECT_TRUE(cached_plan(config) == plan_of(config));
  for (const auto& [input, change] : steps) {
    const ExecutionPlan before = plan_of(config);
    change(config);
    const ExecutionPlan after = plan_of(config);
    ASSERT_FALSE(after == before) << input << ": the step must change the plan";
    EXPECT_TRUE(cached_plan(config) == after) << input << ": the cache kept the old plan";
  }

  // End to end: trials of two configs that differ only in the platform,
  // run back to back on this thread, each run their own plan.
  SingleAppTrialConfig flat;
  flat.app = AppSpec{app_type_by_name("D64"), 30000, 360};
  flat.technique = TechniqueKind::kCheckpointRestart;
  SingleAppTrialConfig tree = flat;
  tree.machine.platform.model = PlatformModelKind::kFattree;
  tree.machine.platform.fattree.taper = 0.25;
  const auto after_another_plan = [](const SingleAppTrialConfig& c) {
    (void)cached_plan(small_config(TechniqueKind::kMultilevel));
    return run_trial(c, 42).efficiency;
  };
  const double flat_alone = after_another_plan(flat);
  const double tree_alone = after_another_plan(tree);
  ASSERT_NE(flat_alone, tree_alone);
  EXPECT_EQ(run_trial(tree, 42).efficiency, tree_alone);
  EXPECT_EQ(run_trial(flat, 42).efficiency, flat_alone);
  EXPECT_EQ(run_trial(tree, 42).efficiency, tree_alone);
}

}  // namespace
}  // namespace xres
