#include "core/trial_engine.hpp"

#include <optional>
#include <string>

#include "failure/process.hpp"
#include "failure/trace.hpp"
#include "obs/perf.hpp"
#include "resilience/planner.hpp"
#include "runtime/app_runtime.hpp"
#include "sim/simulation.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace xres {

void record_trial_metrics(obs::TrialObs* obs, const ExecutionResult& r,
                          std::uint64_t sim_events) {
  if (obs == nullptr || obs->metrics() == nullptr) return;
  record_result_metrics(obs, r);
  const obs::BuiltinMetrics& m = obs::builtin_metrics();
  obs->count(m.trials_run);
  obs->count(m.sim_events, sim_events);
  obs->observe(m.trial_events, static_cast<double>(sim_events));
  obs->observe(m.trial_wall_hours, r.wall_time.to_seconds() / 3600.0);
}

const SeverityModel& cached_severity_model(const std::vector<double>& weights) {
  struct Cache {
    std::vector<double> weights;
    std::optional<SeverityModel> model;
  };
  thread_local Cache cache;
  if (!cache.model.has_value() || cache.weights != weights) {
    cache.model.emplace(weights);
    cache.weights = weights;
  }
  return *cache.model;
}

const ExecutionPlan& cached_plan(const SingleAppTrialConfig& config) {
  // Keyed on exactly the make_plan inputs: failure_distribution is not one,
  // so trials that differ only there share a plan.
  struct Cache {
    bool valid{false};
    TechniqueKind technique{};
    AppSpec app;
    MachineSpec machine;
    ResilienceConfig resilience;
    ExecutionPlan plan;
  };
  thread_local Cache cache;
  if (!cache.valid || cache.technique != config.technique || cache.app != config.app ||
      cache.machine != config.machine || cache.resilience != config.resilience) {
    cache.plan =
        make_plan(config.technique, config.app, config.machine, config.resilience);
    cache.technique = config.technique;
    cache.app = config.app;
    cache.machine = config.machine;
    cache.resilience = config.resilience;
    cache.valid = true;
  }
  return cache.plan;
}

namespace {

ExecutionResult infeasible_result(const ExecutionPlan& plan, obs::TrialObs* obs) {
  ExecutionResult result;
  result.completed = false;
  result.baseline = plan.baseline;
  result.efficiency = 0.0;
  if (obs != nullptr) {
    const obs::BuiltinMetrics& m = obs::builtin_metrics();
    obs->count(m.trials_run);
    obs->count(m.trials_infeasible);
  }
  return result;
}

// A failure source is the trial's horizon: arm() sets the Simulation's
// horizon to the first failure before the runtime starts, and fire()
// delivers the failure due there and moves the horizon to the next one
// (or clears it).

/// Failures drawn lazily in AppFailureProcess's exact RNG order: the first
/// gap when armed, then per delivery a severity sample followed by the next
/// gap. Each gap takes an insertion seq, as its queued event would.
class DrawnFailures {
 public:
  DrawnFailures(Rate rate, const SeverityModel& severity,
                const FailureDistribution& dist, std::uint64_t seed)
      : rate_{rate},
        severity_{severity},
        dist_{dist},
        rng_{derive_seed(seed, kFailureSeedTag)} {}

  void arm(Simulation& sim) { draw_next(sim); }

  Failure fire(Simulation& sim) {
    const Failure failure{sim.now(), severity_.sample(rng_)};
    draw_next(sim);
    return failure;
  }

 private:
  void draw_next(Simulation& sim) {
    const Duration gap = dist_.draw(rng_, rate_);
    if (!gap.is_finite()) {  // zero rate: no failures ever
      sim.clear_horizon();
      return;
    }
    sim.set_horizon(sim.now() + gap);
  }

  Rate rate_;
  const SeverityModel& severity_;
  const FailureDistribution& dist_;
  Pcg32 rng_;
};

/// Failures replayed from a trace. TraceFailureProcess::start() schedules
/// every replayed failure up front in trace order, ahead of the runtime's
/// events; past-time failures are skipped. One seq stands for the whole
/// trace: its failures precede every later insertion and fire among
/// themselves in trace order.
class ReplayedFailures {
 public:
  explicit ReplayedFailures(const FailureTrace& trace) : failures_{trace.failures()} {}

  void arm(Simulation& sim) {
    while (next_ < failures_.size() && failures_[next_].time < sim.now()) ++next_;
    if (next_ > 0) {
      XRES_LOG_WARN("trace replay skipped " + std::to_string(next_) +
                    " failures that predate the current simulation time");
    }
    if (next_ < failures_.size()) sim.set_horizon(failures_[next_].time);
  }

  Failure fire(Simulation& sim) {
    const Failure failure = failures_[next_++];
    if (next_ < failures_.size()) {
      sim.move_horizon(failures_[next_].time);
    } else {
      sim.clear_horizon();
    }
    return failure;
  }

 private:
  const std::vector<Failure>& failures_;
  std::size_t next_{0};
};

/// Run one trial of a feasible plan against \p failures. The runtime
/// dispatches its own events inline up to the horizon, the next failure;
/// the driver fires that failure and hands control back. Nothing is ever
/// queued.
template <typename Failures>
ExecutionResult run_feasible_trial(const ExecutionPlan& plan, Failures failures,
                                   std::uint64_t seed, obs::TrialObs* obs) {
  Simulation sim;
  ExecutionResult final_result;
  bool finished = false;

  ResilientAppRuntime runtime{
      sim, plan, derive_seed(seed, kRuntimeSeedTag), [&](const ExecutionResult& r) {
        final_result = r;
        finished = true;
        sim.request_stop();
      }};
  runtime.set_observer(obs);

  failures.arm(sim);
  runtime.start();
  for (;;) {
    runtime.run_inline();
    if (sim.stop_requested() || !sim.has_horizon()) break;
    sim.advance(sim.horizon_time());
    runtime.on_failure(failures.fire(sim));
  }

  XRES_CHECK(finished, "trial ended without a completion callback");
  obs::perf_add_batched_trials(1);
  record_trial_metrics(obs, final_result, sim.events_processed());
  return final_result;
}

}  // namespace

ExecutionResult run_trial(const PlanTrialSpec& spec, std::uint64_t seed,
                          obs::TrialObs* obs) {
  if (!spec.plan.feasible) return infeasible_result(spec.plan, obs);
  return run_feasible_trial(
      spec.plan,
      DrawnFailures{spec.plan.failure_rate,
                    cached_severity_model(spec.resilience.severity_weights),
                    spec.failure_distribution, seed},
      seed, obs);
}

ExecutionResult run_trial(const TraceTrialSpec& spec, std::uint64_t seed,
                          obs::TrialObs* obs) {
  // Severity is already baked into the trace; spec.resilience is kept for
  // API symmetry and future runtime knobs.
  if (!spec.plan.feasible) return infeasible_result(spec.plan, obs);
  return run_feasible_trial(spec.plan, ReplayedFailures{spec.trace}, seed, obs);
}

ExecutionResult run_trial(const SingleAppTrialConfig& config, std::uint64_t seed,
                          obs::TrialObs* obs) {
  // The plan cache makes the planner (the multilevel optimizer especially)
  // a once-per-worker-per-cell cost instead of a per-trial one.
  const ExecutionPlan& plan = cached_plan(config);
  if (!plan.feasible) return infeasible_result(plan, obs);
  return run_feasible_trial(
      plan,
      DrawnFailures{plan.failure_rate,
                    cached_severity_model(config.resilience.severity_weights),
                    config.failure_distribution, seed},
      seed, obs);
}

}  // namespace xres
