// Differential harness for the single-app trial engine and the analytic
// surrogate (core/surrogate.hpp). Sweeps (work, seed) cells through:
//
//  * the trial engine (core/trial_engine.hpp) at 1 and 4 worker threads
//    against a queued reference built here: the same runtime with its
//    failures as events in one Simulation queue, whose head is then the
//    runtime's inline horizon, the failures coming from AppFailureProcess
//    (drawn) or TraceFailureProcess (replayed). Every ExecutionResult field, the
//    merged metrics and trial 0's trace must match exactly (byte drift
//    fails), for all three work kinds;
//  * surrogate-answered vs. fully-simulated efficiency studies — anchor and
//    fallback cells must be bit-identical to the simulated study, and every
//    surrogate-answered cell must sit within its reported error bound.
//
// A fast subset runs in tier-1 (and under TSAN via the Surrogate filter);
// the full matrix is guarded by XRES_SMOKE_ALL=1.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/app_type.hpp"
#include "core/single_app_study.hpp"
#include "core/surrogate.hpp"
#include "core/trial_engine.hpp"
#include "failure/process.hpp"
#include "failure/replay.hpp"
#include "obs/trace.hpp"
#include "obs/trial_obs.hpp"
#include "resilience/planner.hpp"
#include "resilience/technique.hpp"
#include "runtime/app_runtime.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace xres {
namespace {

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define XRES_TEST_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define XRES_TEST_TSAN 1
#endif

constexpr bool tsan_build() {
#ifdef XRES_TEST_TSAN
  return true;
#else
  return false;
#endif
}

bool full_matrix() { return std::getenv("XRES_SMOKE_ALL") != nullptr; }

/// Field-exact ExecutionResult comparison: the engine promises the
/// reference's arithmetic, so even the accumulated doubles must match bit
/// for bit.
void expect_identical(const ExecutionResult& a, const ExecutionResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.completed, b.completed) << label;
  EXPECT_EQ(a.wall_time, b.wall_time) << label;
  EXPECT_EQ(a.baseline, b.baseline) << label;
  EXPECT_EQ(a.efficiency, b.efficiency) << label;
  EXPECT_EQ(a.failures_seen, b.failures_seen) << label;
  EXPECT_EQ(a.failures_masked, b.failures_masked) << label;
  EXPECT_EQ(a.rollbacks, b.rollbacks) << label;
  EXPECT_EQ(a.checkpoints_completed, b.checkpoints_completed) << label;
  EXPECT_EQ(a.time_working, b.time_working) << label;
  EXPECT_EQ(a.time_checkpointing, b.time_checkpointing) << label;
  EXPECT_EQ(a.time_restarting, b.time_restarting) << label;
  EXPECT_EQ(a.time_recovering, b.time_recovering) << label;
  EXPECT_EQ(a.rework, b.rework) << label;
  EXPECT_EQ(a.node_seconds, b.node_seconds) << label;
}

/// What the reference needs from a TrialWork: the plan, and either the
/// drawn-failure model or the trace to replay.
struct ReferenceInputs {
  ExecutionPlan plan;
  std::vector<double> severity_weights;
  FailureDistribution distribution{FailureDistribution::exponential()};
  const FailureTrace* trace{nullptr};
};

ReferenceInputs reference_inputs(const TrialWork& work) {
  ReferenceInputs in;
  if (const auto* config = std::get_if<SingleAppTrialConfig>(&work)) {
    in.plan = make_plan(config->technique, config->app, config->machine,
                        config->resilience);
    in.severity_weights = config->resilience.severity_weights;
    in.distribution = config->failure_distribution;
  } else if (const auto* spec = std::get_if<PlanTrialSpec>(&work)) {
    in.plan = spec->plan;
    in.severity_weights = spec->resilience.severity_weights;
    in.distribution = spec->failure_distribution;
  } else {
    const auto& replay = std::get<TraceTrialSpec>(work);
    in.plan = replay.plan;
    in.severity_weights = replay.resilience.severity_weights;
    in.trace = &replay.trace;
  }
  return in;
}

/// The queued reference for one trial of a feasible plan: a failure
/// process scheduling into the Simulation queue, run by sim.run(). The
/// runtime's horizon is then the queue head, and whatever of its phases
/// and wall-time cap does not come before it is parked in the queue.
ExecutionResult run_reference_trial(const TrialWork& work, std::uint64_t seed,
                                    obs::TrialObs* obs) {
  const ReferenceInputs in = reference_inputs(work);
  Simulation sim;
  ExecutionResult result;
  bool finished = false;
  ResilientAppRuntime runtime{sim, in.plan, derive_seed(seed, kRuntimeSeedTag),
                              [&](const ExecutionResult& r) {
                                result = r;
                                finished = true;
                                sim.request_stop();
                              }};
  runtime.set_observer(obs);

  const auto deliver = [&runtime](const Failure& f) { runtime.on_failure(f); };
  const SeverityModel severity{in.severity_weights};
  std::optional<AppFailureProcess> drawn;
  std::optional<TraceFailureProcess> replayed;
  if (in.trace != nullptr) {
    replayed.emplace(sim, *in.trace, deliver);
    replayed->start();
  } else {
    drawn.emplace(sim, in.plan.failure_rate, severity, in.distribution,
                  Pcg32{derive_seed(seed, kFailureSeedTag)}, deliver);
    drawn->start();
  }
  runtime.start();
  sim.run();

  EXPECT_TRUE(finished) << "reference trial ended without a completion callback";
  record_trial_metrics(obs, result, sim.events_processed());
  return result;
}

struct BatchRun {
  std::vector<ExecutionResult> results;
  std::string metrics_json;
  std::string trace_json;
};

/// One observer per trial, shaped like the study harness's: metrics on
/// every trial, a trace on trial 0.
std::vector<obs::TrialObs> batch_observers(std::size_t count) {
  std::vector<obs::TrialObs> observers(count);
  for (obs::TrialObs& o : observers) o.enable_metrics();
  observers.front().enable_trace();
  return observers;
}

/// Merge the observers in spec order (the study reduction) and render
/// trial 0's trace.
BatchRun collect(std::vector<ExecutionResult> results,
                 std::vector<obs::TrialObs>& observers) {
  BatchRun run;
  run.results = std::move(results);
  obs::MetricSet merged;
  for (const obs::TrialObs& o : observers) merged.merge(*o.metrics());
  run.metrics_json = merged.to_json();
  obs::TraceLog trace;
  trace.add_track("trial 0", std::move(*observers.front().trace()));
  run.trace_json = trace.to_json();
  return run;
}

/// The engine at \p threads against the queued reference, trial by trial:
/// the differential core of the harness. Returns the reference results for
/// the callers' coverage checks.
std::vector<ExecutionResult> expect_matches_reference(const TrialWork& work,
                                                      const std::string& label,
                                                      std::uint64_t seed,
                                                      std::uint32_t trials) {
  std::vector<TrialSpec> specs;
  specs.reserve(trials);
  for (std::uint32_t t = 0; t < trials; ++t) specs.push_back(TrialSpec{work, {t}});

  std::vector<obs::TrialObs> ref_observers = batch_observers(specs.size());
  std::vector<ExecutionResult> ref_results;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ref_results.push_back(
        run_reference_trial(specs[i].work, specs[i].derived_seed(seed), &ref_observers[i]));
  }
  const BatchRun reference = collect(std::move(ref_results), ref_observers);

  for (const unsigned threads : {1U, 4U}) {
    const std::string tag = label + "/t" + std::to_string(threads);
    std::vector<obs::TrialObs> observers = batch_observers(specs.size());
    const BatchRun run =
        collect(TrialExecutor{threads}.run_batch(seed, specs, observers), observers);
    EXPECT_EQ(run.results.size(), reference.results.size()) << tag;
    for (std::size_t i = 0; i < run.results.size() && i < reference.results.size(); ++i) {
      expect_identical(reference.results[i], run.results[i],
                       tag + "/trial" + std::to_string(i));
    }
    EXPECT_EQ(reference.metrics_json, run.metrics_json) << tag;
    EXPECT_EQ(reference.trace_json, run.trace_json) << tag;
  }
  return reference.results;
}

SingleAppTrialConfig diff_cell(const std::string& app, TechniqueKind technique,
                               double mtbf_years, std::uint32_t nodes) {
  SingleAppTrialConfig config;
  config.app = AppSpec::from_baseline(app_type_by_name(app), nodes,
                                      Duration::hours(2.0));
  config.technique = technique;
  config.machine = MachineSpec::exascale();
  config.resilience.node_mtbf = Duration::years(mtbf_years);
  return config;
}

ExecutionPlan diff_plan(const SingleAppTrialConfig& config) {
  return make_plan(config.technique, config.app, config.machine, config.resilience);
}

std::uint32_t fast_trials() { return tsan_build() ? 4 : 12; }

TEST(SurrogateDiff, EnginesAgreeFast) {
  expect_matches_reference(diff_cell("C64", TechniqueKind::kMultilevel, 1.0, 4000),
                           "C64/ml/failure-heavy", 20260808, fast_trials());
  expect_matches_reference(diff_cell("A32", TechniqueKind::kParallelRecovery, 10.0, 1200),
                           "A32/pr", 7, fast_trials());
  // Masked failures draw from the runtime's RNG, not the failure stream's.
  const std::vector<ExecutionResult> partial = expect_matches_reference(
      diff_cell("C64", TechniqueKind::kRedundancyPartial, 0.5, 4000), "C64/red-partial",
      11, fast_trials());
  std::uint64_t masked = 0;
  for (const ExecutionResult& r : partial) masked += r.failures_masked;
  EXPECT_GT(masked, 0U) << "the partial-redundancy cell must mask failures";
}

/// Explicit plans: a non-exponential failure distribution, and a wall-time
/// cap tight enough that the timeout slot ends some trials.
TEST(SurrogateDiff, PlanSpecsMatchReference) {
  const SingleAppTrialConfig config =
      diff_cell("C64", TechniqueKind::kMultilevel, 1.0, 4000);

  PlanTrialSpec weibull;
  weibull.plan = diff_plan(config);
  weibull.resilience = config.resilience;
  weibull.failure_distribution = FailureDistribution::weibull(0.7);
  expect_matches_reference(weibull, "C64/ml/weibull0.7", 5, fast_trials());

  PlanTrialSpec capped;
  capped.plan = diff_plan(config);
  capped.resilience = config.resilience;
  capped.plan.max_wall_time = capped.plan.work_target * 1.025;
  const std::vector<ExecutionResult> results =
      expect_matches_reference(capped, "C64/ml/capped", 3, fast_trials());
  std::size_t aborted = 0;
  for (const ExecutionResult& r : results) aborted += r.completed ? 0 : 1;
  EXPECT_GT(aborted, 0U) << "the wall-time cap must end some trials";
  EXPECT_LT(aborted, results.size()) << "some trials must complete under the cap";
}

TraceTrialSpec trace_cell(const SingleAppTrialConfig& config, std::vector<Failure> failures) {
  TraceTrialSpec spec;
  spec.plan = diff_plan(config);
  spec.resilience = config.resilience;
  spec.trace = FailureTrace{std::move(failures)};
  return spec;
}

/// Replayed traces, at the instants where the (time, seq) order decides.
TEST(SurrogateDiff, TraceReplaysMatchReference) {
  const std::uint32_t trials = tsan_build() ? 3 : 6;

  // A failure at exactly the first work segment's completion: the queue
  // runs the failure first because it was scheduled first.
  const SingleAppTrialConfig ml = diff_cell("C64", TechniqueKind::kMultilevel, 1.0, 4000);
  const Duration quantum = diff_plan(ml).checkpoint_quantum;
  ASSERT_LT(quantum, diff_plan(ml).work_target);
  const TraceTrialSpec at_segment_end =
      trace_cell(ml, {Failure{TimePoint::at(quantum), 1}});
  for (const ExecutionResult& r :
       expect_matches_reference(at_segment_end, "trace/at-segment-end", 13, trials)) {
    EXPECT_EQ(r.failures_seen, 1U);
    EXPECT_EQ(r.rollbacks, 1U);
  }

  // Two failures at the same instant, under partial redundancy (the
  // runtime's RNG decides which are masked).
  const SingleAppTrialConfig partial =
      diff_cell("C64", TechniqueKind::kRedundancyPartial, 0.5, 4000);
  const TimePoint both = TimePoint::at(diff_plan(partial).checkpoint_quantum * 0.5);
  expect_matches_reference(trace_cell(partial, {Failure{both, 2}, Failure{both, 1}}),
                           "trace/same-instant", 17, trials);

  // A failure before the trial starts is skipped by replay; the later ones
  // still land, one of them on the first segment's completion.
  const SingleAppTrialConfig cr =
      diff_cell("C64", TechniqueKind::kCheckpointRestart, 1.0, 4000);
  const Duration cr_quantum = diff_plan(cr).checkpoint_quantum;
  const TraceTrialSpec skipped = trace_cell(
      cr, {Failure{TimePoint::origin() - Duration::minutes(1.0), 3},
           Failure{TimePoint::at(cr_quantum), 2},
           Failure{TimePoint::at(cr_quantum * 2.5), 1}});
  for (const ExecutionResult& r :
       expect_matches_reference(skipped, "trace/negative-time", 19, trials)) {
    EXPECT_EQ(r.failures_seen, 2U);
  }
}

TEST(SurrogateDiff, EnginesAgreeFullMatrix) {
  if (!full_matrix()) GTEST_SKIP() << "set XRES_SMOKE_ALL=1 for the full matrix";
  std::uint64_t seed = 1;
  for (const char* app : {"A32", "C64", "D64"}) {
    for (const TechniqueKind technique : evaluated_techniques()) {
      for (const double mtbf : {0.5, 10.0}) {
        const SingleAppTrialConfig config = diff_cell(app, technique, mtbf, 3000);
        const std::string label =
            std::string{app} + "/" + to_string(technique) + "/" + std::to_string(mtbf);
        expect_matches_reference(config, label, ++seed, 8);

        // The same cell as a replay of one drawn trace (the paired-
        // comparison shape) and as an explicit Weibull plan.
        const ExecutionPlan plan = diff_plan(config);
        Pcg32 rng{seed};
        TraceTrialSpec replay;
        replay.plan = plan;
        replay.resilience = config.resilience;
        replay.trace = FailureTrace::generate(
            plan.failure_rate, plan.work_target * 3.0,
            SeverityModel{config.resilience.severity_weights},
            FailureDistribution::exponential(), rng);
        expect_matches_reference(replay, label + "/trace", ++seed, 8);

        PlanTrialSpec weibull;
        weibull.plan = plan;
        weibull.resilience = config.resilience;
        weibull.failure_distribution = FailureDistribution::weibull(0.7);
        expect_matches_reference(weibull, label + "/weibull0.7", ++seed, 8);
      }
    }
  }
}

EfficiencyStudyConfig small_study(std::uint64_t seed) {
  EfficiencyStudyConfig config;
  config.app_type = app_type_by_name("C64");
  config.baseline = Duration::hours(3.0);
  config.size_fractions = {0.02, 0.05, 0.10, 0.25, 0.50};
  config.trials = tsan_build() ? 3 : 6;
  config.seed = seed;
  config.threads = 2;
  return config;
}

/// Surrogate-vs-simulated differential: anchors bit-identical, surrogate
/// cells within their reported bound.
TEST(SurrogateDiff, AnalyticWithinBoundOfSimulation) {
  const EfficiencyStudyConfig config = small_study(20260808);

  EfficiencyStudyConfig sim = config;
  sim.surrogate = SurrogateMode::kSim;
  const EfficiencyStudyResult simulated = run_efficiency_study(sim);

  EfficiencyStudyConfig sur = config;
  sur.surrogate = SurrogateMode::kAnalytic;
  const EfficiencyStudyResult answered = run_efficiency_study(sur);

  ASSERT_EQ(answered.surrogate_cells.size(), config.size_fractions.size());
  EXPECT_TRUE(simulated.surrogate_cells.empty());
  for (std::size_t si = 0; si < config.size_fractions.size(); ++si) {
    for (std::size_t ti = 0; ti < config.techniques.size(); ++ti) {
      const std::string label = "cell s" + std::to_string(si) + ".t" + std::to_string(ti);
      const SurrogateCell& cell = answered.surrogate_cells[si][ti];
      const Summary& sim_cell = simulated.efficiency[si][ti];
      const Summary& sur_cell = answered.efficiency[si][ti];
      if (cell.anchor) {
        // Anchors re-use the simulated path's exact seeds: bit-identical.
        EXPECT_EQ(sim_cell.mean, sur_cell.mean) << label;
        EXPECT_EQ(sim_cell.stddev, sur_cell.stddev) << label;
        EXPECT_EQ(sim_cell.count, sur_cell.count) << label;
        EXPECT_EQ(simulated.mean_failures[si][ti], answered.mean_failures[si][ti])
            << label;
      } else {
        EXPECT_FALSE(cell.simulated) << label;
        EXPECT_EQ(sur_cell.count, 0U) << label;
        EXPECT_LE(std::abs(cell.predicted - sim_cell.mean), cell.bound) << label
            << " predicted=" << cell.predicted << " sim=" << sim_cell.mean
            << " bound=" << cell.bound;
      }
    }
  }
}

/// Auto mode: every cell is either simulated (anchor or bound-exceeded
/// fallback, bit-identical to the simulated study) or within bound.
TEST(SurrogateDiff, AutoFallsBackToSimulationWhenBoundExceeded) {
  const EfficiencyStudyConfig config = small_study(977);

  EfficiencyStudyConfig sim = config;
  sim.surrogate = SurrogateMode::kSim;
  const EfficiencyStudyResult simulated = run_efficiency_study(sim);

  EfficiencyStudyConfig automatic = config;
  automatic.surrogate = SurrogateMode::kAuto;
  const EfficiencyStudyResult answered = run_efficiency_study(automatic);

  ASSERT_EQ(answered.surrogate_cells.size(), config.size_fractions.size());
  for (std::size_t si = 0; si < config.size_fractions.size(); ++si) {
    for (std::size_t ti = 0; ti < config.techniques.size(); ++ti) {
      const std::string label = "cell s" + std::to_string(si) + ".t" + std::to_string(ti);
      const SurrogateCell& cell = answered.surrogate_cells[si][ti];
      const Summary& sim_cell = simulated.efficiency[si][ti];
      const Summary& ans_cell = answered.efficiency[si][ti];
      if (cell.simulated) {
        EXPECT_EQ(sim_cell.mean, ans_cell.mean) << label;
        EXPECT_EQ(sim_cell.stddev, ans_cell.stddev) << label;
      } else {
        EXPECT_LE(cell.bound, kAutoBoundThreshold) << label;
        EXPECT_LE(std::abs(cell.predicted - sim_cell.mean), cell.bound) << label;
      }
    }
  }
}

/// A surrogate study is a function of its configuration: a second
/// in-process run simulates its anchors again and returns the same grid,
/// trial counts and spreads as the first.
TEST(SurrogateDiff, RepeatedStudyIsIdentical) {
  EfficiencyStudyConfig config = small_study(31337);
  config.surrogate = SurrogateMode::kAnalytic;
  const EfficiencyStudyResult first = run_efficiency_study(config);
  const EfficiencyStudyResult second = run_efficiency_study(config);
  for (std::size_t si = 0; si < config.size_fractions.size(); ++si) {
    for (std::size_t ti = 0; ti < config.techniques.size(); ++ti) {
      const std::string label = "cell s" + std::to_string(si) + ".t" + std::to_string(ti);
      const Summary& a = first.efficiency[si][ti];
      const Summary& b = second.efficiency[si][ti];
      EXPECT_EQ(a.mean, b.mean) << label;
      EXPECT_EQ(a.stddev, b.stddev) << label;
      EXPECT_EQ(a.count, b.count) << label;
      EXPECT_EQ(first.mean_failures[si][ti], second.mean_failures[si][ti]) << label;
      if (first.surrogate_cells[si][ti].anchor) {
        EXPECT_EQ(b.count, config.trials) << label;
      }
    }
  }
}

/// Property test (paper Eqs. 1–8): across randomized configurations the
/// surrogate's prediction for the interior size must sit within its
/// reported bound of the simulated mean efficiency for the same seeds.
TEST(SurrogateProperty, PredictionWithinReportedBound) {
  const int configurations = tsan_build() ? 25 : (full_matrix() ? 200 : 60);
  Pcg32 rng{0x5052455354ULL};
  int surrogate_cells_checked = 0;
  for (int i = 0; i < configurations; ++i) {
    EfficiencyStudyConfig config;
    config.app_type = all_app_types()[rng.next_below(8)];
    config.resilience.node_mtbf = Duration::years(rng.uniform(2.0, 30.0));
    // Whole minutes: baselines must be an integral number of time steps.
    config.baseline = Duration::minutes(static_cast<double>(60 + rng.next_below(121)));
    config.trials = 6;
    config.seed = 1000 + static_cast<std::uint64_t>(i);
    config.threads = 2;
    config.techniques = {evaluated_techniques()[rng.next_below(5)]};
    const double lo = rng.uniform(0.01, 0.25);
    const double mid = rng.uniform(0.26, 0.55);
    const double hi = rng.uniform(0.56, 1.0);
    config.size_fractions = {lo, mid, hi};

    EfficiencyStudyConfig sim = config;
    sim.surrogate = SurrogateMode::kSim;
    const EfficiencyStudyResult simulated = run_efficiency_study(sim);

    EfficiencyStudyConfig sur = config;
    sur.surrogate = SurrogateMode::kAnalytic;
    const EfficiencyStudyResult answered = run_efficiency_study(sur);

    const std::string label = "config " + std::to_string(i) + " (" +
                              config.app_type.name + ", " +
                              to_string(config.techniques[0]) + ")";
    for (std::size_t si = 0; si < config.size_fractions.size(); ++si) {
      const SurrogateCell& cell = answered.surrogate_cells[si][0];
      if (cell.simulated) {
        EXPECT_EQ(simulated.efficiency[si][0].mean, answered.efficiency[si][0].mean)
            << label;
        continue;
      }
      ++surrogate_cells_checked;
      EXPECT_LE(std::abs(cell.predicted - simulated.efficiency[si][0].mean), cell.bound)
          << label << " si=" << si << " predicted=" << cell.predicted
          << " sim=" << simulated.efficiency[si][0].mean << " bound=" << cell.bound;
    }
  }
  EXPECT_GT(surrogate_cells_checked, 0);
}

}  // namespace
}  // namespace xres
