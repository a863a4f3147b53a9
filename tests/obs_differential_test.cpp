// Differential tests: observed against unobserved runs.
//
// An unobserved runtime declares private events, so the Simulation runs it
// in lookahead windows (sim/simulation.hpp); attaching a TrialObs makes
// every event interacting and forces the exact path. Both must produce the
// same results, tie-breaks included. The runtime scenarios mix plans of
// every technique family, adaptive intervals, semi-blocking checkpoints,
// wall-time caps near completion, queued failures and bursts; the workload
// runs cover every scheduler under fixed techniques and Resilience
// Selection, with bursts and deadlines.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/workload_engine.hpp"
#include "core/workload_record.hpp"
#include "obs/json.hpp"
#include "obs/perf.hpp"
#include "obs/trial_obs.hpp"
#include "resilience/planner.hpp"
#include "rm/scheduler.hpp"
#include "runtime/app_runtime.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace xres {
namespace {

/// What one scenario run reports: every runtime's result, in runtime
/// order, and the order in which they finished.
struct ScenarioRun {
  std::vector<ExecutionResult> results;
  std::vector<std::size_t> finish_order;
};

/// Several runtimes on one Simulation, started by queued events, under
/// queued single failures and bursts. Everything random is drawn before the
/// run, so both variants see the same scenario.
ScenarioRun run_scenario(std::uint64_t seed, bool observed) {
  constexpr std::array kTechniques{
      TechniqueKind::kCheckpointRestart, TechniqueKind::kMultilevel,
      TechniqueKind::kParallelRecovery, TechniqueKind::kSemiBlockingCheckpoint,
      TechniqueKind::kRedundancyPartial};
  Pcg32 rng{seed};
  const MachineSpec machine = MachineSpec::testbed(1000);
  Simulation sim;
  const std::size_t count = 3 + rng.next_below(6);
  std::vector<std::unique_ptr<ResilientAppRuntime>> runtimes;
  std::vector<obs::TrialObs> observers(count);
  ScenarioRun run;
  run.results.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    ResilienceConfig resilience;
    resilience.node_mtbf = Duration::days(static_cast<double>(rng.uniform_int(20, 400)));
    resilience.adaptive_interval = rng.bernoulli(0.5);
    resilience.semi_blocking_work_rate = rng.uniform(0.1, 0.9);
    const AppSpec app = AppSpec::from_baseline(
        all_app_types()[rng.next_below(8)], static_cast<std::uint32_t>(rng.uniform_int(20, 300)),
        Duration::minutes(static_cast<double>(rng.uniform_int(60, 600))));
    ExecutionPlan plan = make_plan(kTechniques[rng.next_below(kTechniques.size())], app,
                                   machine, resilience);
    // Caps from just under to just over the failure-free run, and none.
    const double cap = rng.uniform(0.98, 1.3);
    if (rng.bernoulli(0.7)) plan.max_wall_time = plan.work_target * cap;
    runtimes.push_back(std::make_unique<ResilientAppRuntime>(
        sim, std::move(plan), rng.next_u64(), [&run, i](const ExecutionResult& r) {
          run.results[i] = r;
          run.finish_order.push_back(i);
        }));
    if (observed) {
      observers[i].enable_metrics();
      runtimes[i]->set_observer(&observers[i]);
    }
    // Some start together (twins in time), the rest spread out.
    const double start_min =
        rng.bernoulli(0.3) ? 0.0 : static_cast<double>(rng.uniform_int(0, 240));
    sim.schedule_at(TimePoint::at(Duration::minutes(start_min)),
                    [&runtimes, i] { runtimes[i]->start(); });
  }
  // Failures: single hits and bursts over one to all runtimes.
  const std::size_t failures = rng.next_below(40);
  for (std::size_t f = 0; f < failures; ++f) {
    const TimePoint when = TimePoint::at(Duration::minutes(rng.uniform(0.0, 900.0)));
    const auto severity = static_cast<SeverityLevel>(rng.uniform_int(1, 3));
    std::vector<std::size_t> victims{rng.next_below(static_cast<std::uint32_t>(count))};
    if (rng.bernoulli(0.25)) {
      for (std::size_t i = 0; i < count; ++i) {
        if (i != victims.front() && rng.bernoulli(0.5)) victims.push_back(i);
      }
    }
    sim.schedule_at(when, [&runtimes, &sim, victims, severity] {
      for (const std::size_t i : victims) runtimes[i]->on_failure(Failure{sim.now(), severity});
    });
  }
  sim.run();
  for (std::size_t i = 0; i < count; ++i) {
    if (!runtimes[i]->finished()) run.results[i] = runtimes[i]->result();
  }
  return run;
}

void expect_same(const ExecutionResult& a, const ExecutionResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.wall_time, b.wall_time);
  EXPECT_EQ(a.baseline, b.baseline);
  EXPECT_EQ(a.efficiency, b.efficiency);
  EXPECT_EQ(a.failures_seen, b.failures_seen);
  EXPECT_EQ(a.failures_masked, b.failures_masked);
  EXPECT_EQ(a.rollbacks, b.rollbacks);
  EXPECT_EQ(a.checkpoints_completed, b.checkpoints_completed);
  EXPECT_EQ(a.time_working, b.time_working);
  EXPECT_EQ(a.time_checkpointing, b.time_checkpointing);
  EXPECT_EQ(a.time_restarting, b.time_restarting);
  EXPECT_EQ(a.time_recovering, b.time_recovering);
  EXPECT_EQ(a.rework, b.rework);
  EXPECT_EQ(a.node_seconds, b.node_seconds);
}

TEST(ObsDifferential, RuntimeScenariosMatchObserved) {
  const obs::PerfCounters before = obs::perf_snapshot();
  std::uint64_t observed_runs = 0;
  std::uint64_t observed_events = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ScenarioRun plain = run_scenario(seed, false);
    const obs::PerfCounters mid = obs::perf_snapshot();
    const ScenarioRun observed = run_scenario(seed, true);
    const obs::PerfCounters after = obs::perf_delta(mid);
    observed_runs += after.holder_runs;
    observed_events += after.events_executed;
    ASSERT_EQ(plain.finish_order, observed.finish_order);
    for (std::size_t i = 0; i < plain.results.size(); ++i) {
      SCOPED_TRACE("runtime " + std::to_string(i));
      expect_same(plain.results[i], observed.results[i]);
    }
    if (HasFailure()) return;
  }
  // The unobserved runs ran lookahead windows; the observed ones did not.
  const obs::PerfCounters all = obs::perf_delta(before);
  const std::uint64_t plain_runs = all.holder_runs - observed_runs;
  const std::uint64_t plain_events = all.events_executed - observed_events;
  EXPECT_LT(3 * plain_runs, plain_events);
  EXPECT_LT(plain_runs, observed_runs);
}

/// A pattern run's whole result as its journal record, for byte compares.
std::string record_of(const WorkloadRunResult& r) {
  obs::JsonWriter w;
  write_result(w, r);
  return w.str();
}

TEST(ObsDifferential, WorkloadRunsMatchObserved) {
  WorkloadConfig workload;
  workload.machine_nodes = 1000;
  workload.arrival_count = 16;
  workload.mean_interarrival = Duration::hours(1.0);
  workload.size_fractions = {0.05, 0.10, 0.20};
  workload.baseline_hours = {2.0, 4.0, 6.0};
  const std::vector<TechniquePolicy> policies{
      TechniquePolicy::fixed_technique(TechniqueKind::kCheckpointRestart),
      TechniquePolicy::fixed_technique(TechniqueKind::kMultilevel),
      TechniquePolicy::fixed_technique(TechniqueKind::kParallelRecovery),
      TechniquePolicy::selection()};
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const ArrivalPattern pattern = generate_pattern(workload, seed, 0);
    for (const SchedulerKind scheduler : extended_schedulers()) {
      for (const TechniquePolicy& policy : policies) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " " + to_string(scheduler) + " " +
                     policy.name());
        WorkloadEngineConfig config;
        config.machine = MachineSpec::testbed(1000);
        config.resilience.node_mtbf = Duration::days(30.0);
        config.policy = policy;
        config.scheduler = scheduler;
        config.seed = seed;
        config.record_occupancy = true;
        config.bursts.probability = 0.2;
        config.bursts.width = 100;
        const WorkloadRunResult plain = run_workload(config, pattern);
        obs::TrialObs obs;
        obs.enable_metrics();
        config.obs = &obs;
        const WorkloadRunResult observed = run_workload(config, pattern);
        ASSERT_EQ(record_of(plain), record_of(observed));
      }
    }
  }
}

}  // namespace
}  // namespace xres
