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
#include "util/deadline.hpp"
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

// A failure source is what the trial driver merges with the runtime's
// slots: arm() runs once before the runtime starts, peek() reports the
// pending failure's (time, seq), and fire() delivers it.

/// Failures drawn lazily in AppFailureProcess's exact RNG order: the first
/// gap when armed, then per delivery a severity sample followed by the next
/// gap. Each gap consumes one insertion seq, as its queued event would.
class DrawnFailures {
 public:
  DrawnFailures(Rate rate, const SeverityModel& severity,
                const FailureDistribution& dist, std::uint64_t seed)
      : rate_{rate},
        severity_{severity},
        dist_{dist},
        rng_{derive_seed(seed, kFailureSeedTag)} {}

  void arm(const Simulation& sim, DirectHost& host) { draw_next(sim, host); }

  bool peek(TimePoint& when, std::uint64_t& seq) const {
    if (!pending_) return false;
    when = time_;
    seq = seq_;
    return true;
  }

  Failure fire(const Simulation& sim, DirectHost& host) {
    pending_ = false;
    const Failure failure{sim.now(), severity_.sample(rng_)};
    draw_next(sim, host);
    return failure;
  }

 private:
  void draw_next(const Simulation& sim, DirectHost& host) {
    const Duration gap = dist_.draw(rng_, rate_);
    if (!gap.is_finite()) return;  // zero rate: no failures ever
    time_ = sim.now() + gap;
    seq_ = host.next_seq++;
    pending_ = true;
  }

  Rate rate_;
  const SeverityModel& severity_;
  const FailureDistribution& dist_;
  Pcg32 rng_;
  bool pending_{false};
  TimePoint time_{};
  std::uint64_t seq_{0};
};

/// Failures replayed from a trace. TraceFailureProcess::start() schedules
/// every replayed failure up front in trace order, consuming insertion
/// seqs 0..n-1 before the runtime's timeout/phase events; past-time
/// failures are skipped and consume none.
class ReplayedFailures {
 public:
  explicit ReplayedFailures(const FailureTrace& trace) : failures_{trace.failures()} {}

  void arm(const Simulation& sim, DirectHost& host) {
    while (next_ < failures_.size() && failures_[next_].time < sim.now()) ++next_;
    skipped_ = next_;
    if (skipped_ > 0) {
      XRES_LOG_WARN("trace replay skipped " + std::to_string(skipped_) +
                    " failures that predate the current simulation time");
    }
    host.next_seq = failures_.size() - skipped_;
  }

  bool peek(TimePoint& when, std::uint64_t& seq) const {
    if (next_ >= failures_.size()) return false;
    when = failures_[next_].time;
    seq = next_ - skipped_;
    return true;
  }

  Failure fire(const Simulation&, DirectHost&) { return failures_[next_++]; }

 private:
  const std::vector<Failure>& failures_;
  std::size_t next_{0};
  std::size_t skipped_{0};
};

/// The two slots that can interrupt a run of phase completions.
enum class Interrupt { kNone, kFailure, kTimeout };

/// The virtual pop + dispatch loop. Mirrors Simulation::run: watchdog poll
/// every 4096 events *before* the pop, clock advanced to the popped event's
/// time, loop exit on request_stop or a drained "queue".
template <typename Failures>
void run_direct_loop(Simulation& sim, ResilientAppRuntime& runtime, DirectHost& host,
                     Failures& failures) {
  std::uint64_t executed = 0;
  while (!sim.stop_requested()) {
    // Merge the failure and timeout slots into the earliest "interrupt".
    // Neither changes while phase events dispatch (the failure slot is only
    // re-armed by fire(); the timeout is cancelled only on paths that also
    // request_stop), so the steady-state work/checkpoint alternation below
    // re-checks just one (time, seq) bound per event.
    Interrupt interrupt = Interrupt::kNone;
    // +inf sentinel: phase events (always finite) sort before an absent
    // interrupt without a separate emptiness test in the drain condition.
    TimePoint int_time = TimePoint::origin() + Duration::infinity();
    std::uint64_t int_seq = 0;
    TimePoint fail_time{};
    std::uint64_t fail_seq = 0;
    if (failures.peek(fail_time, fail_seq)) {
      interrupt = Interrupt::kFailure;
      int_time = fail_time;
      int_seq = fail_seq;
    }
    if (host.timeout_pending &&
        (interrupt == Interrupt::kNone || host.timeout_time < int_time ||
         (host.timeout_time == int_time && host.timeout_seq < int_seq))) {
      interrupt = Interrupt::kTimeout;
      int_time = host.timeout_time;
      int_seq = host.timeout_seq;
    }

    while (host.phase_pending &&
           (host.phase_time < int_time ||
            (host.phase_time == int_time && host.phase_seq < int_seq))) {
      if ((executed & 0xFFFU) == 0) {
        sim.count_watchdog_poll();
        deadline_poll();
      }
      sim.advance_direct(host.phase_time);
      host.phase_pending = false;
      runtime.dispatch_phase();
      ++executed;
      if (sim.stop_requested()) return;
    }

    if (interrupt == Interrupt::kNone) break;
    if ((executed & 0xFFFU) == 0) {
      sim.count_watchdog_poll();
      deadline_poll();
    }
    sim.advance_direct(int_time);
    if (interrupt == Interrupt::kFailure) {
      runtime.on_failure(failures.fire(sim, host));
    } else {
      host.timeout_pending = false;
      runtime.dispatch_timeout();
    }
    ++executed;
  }
}

/// Run one trial of a feasible plan against \p failures.
template <typename Failures>
ExecutionResult run_feasible_trial(const ExecutionPlan& plan, Failures failures,
                                   std::uint64_t seed, obs::TrialObs* obs) {
  Simulation sim;
  ExecutionResult final_result;
  bool finished = false;
  DirectHost host;

  ResilientAppRuntime runtime{
      sim, plan, derive_seed(seed, kRuntimeSeedTag), [&](const ExecutionResult& r) {
        final_result = r;
        finished = true;
        sim.request_stop();
      }};
  runtime.set_observer(obs);
  runtime.attach_direct_host(&host);

  failures.arm(sim, host);
  runtime.start();
  run_direct_loop(sim, runtime, host, failures);

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
