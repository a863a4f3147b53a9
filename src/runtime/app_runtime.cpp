#include "runtime/app_runtime.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "obs/trial_obs.hpp"
#include "resilience/interval.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace xres {

ResilientAppRuntime::ResilientAppRuntime(Simulation& sim, ExecutionPlan plan,
                                         std::uint64_t seed,
                                         CompletionCallback on_complete)
    : sim_{sim},
      plan_{std::move(plan)},
      rng_{derive_seed(seed, 0x617070727421ULL)},
      on_complete_{std::move(on_complete)} {
  plan_.validate();
  XRES_CHECK(static_cast<bool>(on_complete_), "completion callback must be non-empty");
  active_normal_nodes_ = static_cast<double>(plan_.physical_nodes);
  active_recovery_nodes_ = std::min(1.0 + plan_.recovery_parallelism,
                                    static_cast<double>(plan_.app.nodes));
}

ResilientAppRuntime::~ResilientAppRuntime() {
  cancel(phase_slot_);
  cancel(timeout_slot_);
  sim_.withdraw(*this);
}

const char* ResilientAppRuntime::phase_name() const {
  switch (phase_) {
    case Phase::kIdle: return "idle";
    case Phase::kWorking: return "working";
    case Phase::kCheckpointing: return "checkpointing";
    case Phase::kRestarting: return "restarting";
    case Phase::kRecovering: return "recovering";
    case Phase::kDone: return "done";
    case Phase::kAborted: return "aborted";
  }
  return "?";
}

void ResilientAppRuntime::start() {
  XRES_CHECK(phase_ == Phase::kIdle, "runtime already started");
  XRES_CHECK(plan_.feasible, "cannot execute an infeasible plan");
  start_time_ = sim_.now();
  phase_start_ = start_time_;
  result_.baseline = plan_.baseline;

  saved_.assign(plan_.levels.size(), Duration::zero());
  quantum_ = plan_.checkpoint_quantum;
  next_checkpoint_at_ = plan_.levels.empty() ? Duration::infinity() : quantum_;

  // Tabulate the checkpoint-level odometer: with L levels the pattern of
  // level_index_for_checkpoint(k) repeats with the product of the nesting
  // counts as its period, so one small table replaces a divide-per-level
  // scan on every checkpoint (the hottest plan query in a trial).
  level_cycle_.clear();
  level_cycle_pos_ = 0;
  if (!plan_.levels.empty()) {
    std::uint64_t cycle = 1;
    for (std::size_t i = 0; i + 1 < plan_.levels.size(); ++i) {
      cycle *= static_cast<std::uint64_t>(plan_.nesting[i]);
      if (cycle > 4096) break;
    }
    if (cycle <= 4096) {
      // Walk the odometer incrementally (digit i counts to nesting[i] and
      // carries) instead of dividing per entry; the carried-into digit is
      // exactly level_index_for_checkpoint's answer.
      level_cycle_.resize(cycle);
      std::vector<std::uint32_t> digits(plan_.levels.size() - 1, 0);
      for (std::uint64_t r = 0; r < cycle; ++r) {
        std::size_t carried = 0;
        while (carried < digits.size() &&
               ++digits[carried] == static_cast<std::uint32_t>(plan_.nesting[carried])) {
          digits[carried] = 0;
          ++carried;
        }
        level_cycle_[r] = static_cast<std::uint32_t>(carried);
      }
    }
  }

  if (plan_.replication_degree > 1.0) {
    const std::uint32_t duplicated = plan_.physical_nodes - plan_.app.nodes;
    XRES_CHECK(duplicated <= plan_.app.nodes,
               "replication degree above 2 is not modeled");
    dup_healthy_ = duplicated;
    dup_degraded_ = 0;
    singles_ = plan_.app.nodes - duplicated;
  }

  if (obs_ == nullptr && pfs_device_ == nullptr) enable_lookahead();
  if (plan_.max_wall_time.is_finite()) hold(timeout_slot_, sim_.now() + plan_.max_wall_time);
  enter_working();
  sim_.publish(*this);
}

void ResilientAppRuntime::set_pfs_device(PfsDevice* device) {
  XRES_CHECK(phase_ == Phase::kIdle, "PFS device must be set before start");
  pfs_device_ = device;
}

void ResilientAppRuntime::set_observer(obs::TrialObs* obs) {
  XRES_CHECK(phase_ == Phase::kIdle, "observer must be set before start");
  obs_ = obs;
}

void ResilientAppRuntime::run_inline() {
  for (;;) {
    // The common case first: consecutive phase completions strictly before
    // both the held wall-time cap and the Simulation's bound. Comparing
    // times alone is exact whatever the seqs, and neither limit moves while
    // the phase stays held: the cap is cancelled only together with the
    // phase, and the bound moves only in the one callback a completion
    // runs, on_complete_ (it may stop the run or start other runtimes),
    // after complete() cancelled both. The queue head can move (a
    // completion may schedule), so it is checked per phase; a phase it
    // precedes ends the run, as nothing later of ours comes first either.
    TimePoint limit = sim_.bound_time();
    if (timeout_slot_.state == Pending::kHeld && timeout_slot_.time < limit) {
      limit = timeout_slot_.time;
    }
    while (phase_slot_.state == Pending::kHeld && phase_slot_.time < limit) {
      if (!sim_.precedes_queue(phase_slot_.time, phase_slot_.seq)) return;
      sim_.advance(phase_slot_.time);
      phase_slot_.state = Pending::kNone;
      dispatch_phase();
    }
    // Otherwise the earlier of the held phase and cap by (time, seq).
    TimePoint when{};
    std::uint64_t seq{0};
    if (!earliest_held(when, seq) || !sim_.comes_first(when, seq)) return;
    sim_.advance(when);
    if (phase_slot_.state == Pending::kHeld && phase_slot_.seq == seq) {
      phase_slot_.state = Pending::kNone;
      dispatch_phase();
    } else {
      timeout_slot_.state = Pending::kNone;
      dispatch_timeout();
    }
  }
}

bool ResilientAppRuntime::earliest_held(TimePoint& when, std::uint64_t& seq) const {
  const Slot* next = phase_slot_.state == Pending::kHeld ? &phase_slot_ : nullptr;
  if (timeout_slot_.state == Pending::kHeld &&
      (next == nullptr || timeout_slot_.time < next->time ||
       (timeout_slot_.time == next->time && timeout_slot_.seq < next->seq))) {
    next = &timeout_slot_;
  }
  if (next == nullptr) return false;
  when = next->time;
  seq = next->seq;
  return true;
}

void ResilientAppRuntime::held_keys(std::vector<HeldKey>& out) {
  if (phase_slot_.state == Pending::kHeld) out.push_back({phase_slot_.time, &phase_slot_.seq});
  if (timeout_slot_.state == Pending::kHeld) {
    out.push_back({timeout_slot_.time, &timeout_slot_.seq});
  }
}

Duration ResilientAppRuntime::progress_after_phase() const {
  switch (phase_) {
    case Phase::kWorking: return phase_arg_;  // on_segment_done
    case Phase::kCheckpointing:                // on_checkpoint_done
      return std::min(progress_ + (phase_slot_.time - phase_start_) * plan_.checkpoint_work_rate,
                      plan_.work_target);
    default: return progress_;  // restart and recovery do no work
  }
}

TimePoint ResilientAppRuntime::quiet_until() const {
  // Reads the slots itself: as a further caller of earliest_held() it made
  // the optimizer stop inlining that into run_inline(), which cost the
  // exact path about 4% per event. The cap interacts, and fires first at
  // a tie: its seq is the older.
  const bool capped = timeout_slot_.state == Pending::kHeld;
  if (phase_slot_.state != Pending::kHeld) {
    return capped ? timeout_slot_.time : TimePoint::infinity();
  }
  const TimePoint key = phase_slot_.time;
  if (capped && timeout_slot_.time <= key) return timeout_slot_.time;
  if (obs_ != nullptr || pfs_device_ != nullptr) return key;
  const Duration after = progress_after_phase();
  if (after >= plan_.work_target) return key;
  // Without outside input the run completes through a chain of phases,
  // each ending at t + length rounded to the nearest double. Per phase the
  // time gained falls short of the work gained by at most two ulps of the
  // completion time C (the rounding of that addition, and of the work
  // arithmetic: a segment's target - progress, a checkpoint's progress +
  // elapsed x rate), and 2 ulp(C) <= 2^-51 C. Over n phases C >= (key +
  // rest) / (1 + n 2^-51) >= key + rest - 2^-20 (key + rest) for n <= 2^31,
  // far more phases than any run simulates. Restart and recovery gain no
  // work and, with lengths >= 0, lose no time.
  const Duration rest = plan_.work_target - after;
  const Duration margin = (key.since_origin() + rest) * 0x1p-20;
  TimePoint bound = std::max(key, key + (rest - margin));
  if (capped && timeout_slot_.time < bound) bound = timeout_slot_.time;
  return bound;
}

void ResilientAppRuntime::run_private(TimePoint bound) {
  // Strictly before the cap too: at a tie the cap (interacting) is first.
  // The cap stays put while phases are private (only the run's end
  // cancels it).
  if (timeout_slot_.state == Pending::kHeld && timeout_slot_.time < bound) {
    bound = timeout_slot_.time;
  }
  while (phase_slot_.state == Pending::kHeld && phase_slot_.time < bound &&
         progress_after_phase() < plan_.work_target) {
    sim_.advance_private(phase_slot_.time);
    phase_slot_.state = Pending::kNone;
    dispatch_phase();
  }
}

void ResilientAppRuntime::cancel(Slot& slot) {
  // A held event just forgets its reserved seq, as a cancelled queued
  // event would never have popped.
  if (slot.state == Pending::kTransfer) pfs_device_->cancel(pending_transfer_);
  slot.state = Pending::kNone;
}

void ResilientAppRuntime::begin_pfs_phase(Duration nominal) {
  if (obs_ != nullptr) obs_->count(obs::builtin_metrics().pfs_phases);
  // phase_level_ is always current here: shared_pfs phases are entered
  // only from enter_checkpointing / enter_restarting, which set it.
  TransferRequest request;
  request.nominal = nominal;
  request.bytes = plan_.levels[phase_level_].pfs_bytes;
  request.rate_cap = plan_.levels[phase_level_].pfs_rate_cap;
  pending_transfer_ = pfs_device_->begin_transfer(request, [this] {
    phase_slot_.state = Pending::kNone;
    dispatch_phase();
    sim_.publish(*this);
  });
  phase_slot_.state = Pending::kTransfer;
}

double ResilientAppRuntime::active_nodes() const {
  // During recovery only the restarted node plus its recovery helpers
  // compute; the rest of the allocation idles (Section IV-D). Both values
  // are precomputed at start().
  if (phase_ == Phase::kRecovering) return active_recovery_nodes_;
  return active_normal_nodes_;
}

void ResilientAppRuntime::enable_timeline() {
  XRES_CHECK(phase_ == Phase::kIdle, "enable_timeline must precede start");
  timeline_.emplace();
}

void ResilientAppRuntime::accrue(Duration elapsed) {
  switch (phase_) {
    case Phase::kWorking:
      accrue_known(elapsed, result_.time_working, SpanKind::kWork,
                   active_normal_nodes_);
      return;
    case Phase::kCheckpointing:
      accrue_known(elapsed, result_.time_checkpointing, SpanKind::kCheckpoint,
                   active_normal_nodes_);
      return;
    case Phase::kRestarting:
      accrue_known(elapsed, result_.time_restarting, SpanKind::kRestart,
                   active_normal_nodes_);
      return;
    case Phase::kRecovering:
      accrue_known(elapsed, result_.time_recovering, SpanKind::kRecovery,
                   active_recovery_nodes_);
      return;
    case Phase::kIdle:
    case Phase::kDone:
    case Phase::kAborted:
      XRES_CHECK(elapsed >= Duration::zero(), "negative phase time");
      result_.node_seconds += active_normal_nodes_ * elapsed.to_seconds();
      return;
  }
}

void ResilientAppRuntime::accrue_known(Duration elapsed, Duration& bucket,
                                       SpanKind span, double nodes) {
  XRES_CHECK(elapsed >= Duration::zero(), "negative phase time");
  bucket += elapsed;
  result_.node_seconds += nodes * elapsed.to_seconds();
  if (timeline_.has_value()) {
    timeline_->add(span, phase_start_, elapsed);
  }
  if (obs_ != nullptr && obs_->trace() != nullptr) {
    accrue_trace_span(span, elapsed);
  }
}

void ResilientAppRuntime::accrue_trace_span(SpanKind span, Duration elapsed) {
  obs::TraceBuffer& trace = *obs_->trace();
  switch (span) {
    case SpanKind::kWork:
      trace.span("work", "phase", phase_start_, elapsed);
      break;
    case SpanKind::kCheckpoint:
      trace.span("checkpoint L" + std::to_string(phase_level_), "phase", phase_start_,
                 elapsed,
                 {obs::trace_arg("level", static_cast<int>(phase_level_)),
                  obs::trace_arg("pfs", phase_pfs_)});
      break;
    case SpanKind::kRestart:
      trace.span("restart", "phase", phase_start_, elapsed,
                 {obs::trace_arg("level", static_cast<int>(phase_level_)),
                  obs::trace_arg("pfs", phase_pfs_)});
      break;
    case SpanKind::kRecovery:
      trace.span("recovery", "phase", phase_start_, elapsed,
                 {obs::trace_arg("lost_work_s", recovery_lost_.to_seconds())});
      break;
  }
}

void ResilientAppRuntime::enter_working() {
  if (progress_ >= plan_.work_target) {
    complete();
    return;
  }
  phase_ = Phase::kWorking;
  phase_start_ = sim_.now();
  phase_pfs_ = false;
  const Duration target = std::min(next_checkpoint_at_, plan_.work_target);
  const Duration length = target - progress_;
  XRES_CHECK(length > Duration::zero(), "empty work segment");
  phase_arg_ = target;
  schedule_phase(length, /*shared_pfs=*/false);
}

void ResilientAppRuntime::on_segment_done(Duration target) {
  accrue_known(sim_.now() - phase_start_, result_.time_working, SpanKind::kWork,
               active_normal_nodes_);
  progress_ = target;
  if (progress_ >= plan_.work_target) {
    complete();
  } else {
    enter_checkpointing();
  }
}

void ResilientAppRuntime::enter_checkpointing() {
  phase_ = Phase::kCheckpointing;
  phase_start_ = sim_.now();
  // Semi-blocking checkpoints snapshot the state at phase entry; work done
  // concurrently is not covered by the in-flight image.
  checkpoint_snapshot_ = progress_;
  const std::size_t idx =
      level_cycle_.empty()
          ? plan_.level_index_for_checkpoint(checkpoint_counter_ + 1)
          : level_cycle_[level_cycle_pos_];
  const CheckpointLevelSpec& level = plan_.levels[idx];
  phase_level_ = idx;
  phase_pfs_ = level.uses_shared_pfs;
  schedule_phase(level.save_cost, level.uses_shared_pfs);
}

void ResilientAppRuntime::on_checkpoint_done(std::size_t level_index) {
  const Duration elapsed = sim_.now() - phase_start_;
  accrue_known(elapsed, result_.time_checkpointing, SpanKind::kCheckpoint,
               active_normal_nodes_);
  ++checkpoint_counter_;
  if (!level_cycle_.empty() && ++level_cycle_pos_ == level_cycle_.size()) {
    level_cycle_pos_ = 0;
  }
  ++result_.checkpoints_completed;
  if (obs_ != nullptr) {
    obs_->observe(obs::builtin_metrics().checkpoint_level,
                  static_cast<double>(level_index));
    obs_->observe(obs::builtin_metrics().checkpoint_cost_seconds, elapsed.to_seconds());
  }
  // The image covers progress as of phase entry (identical to progress_
  // for blocking techniques, where checkpoint_work_rate is 0).
  saved_[level_index] = checkpoint_snapshot_;
  progress_ = std::min(progress_ + elapsed * plan_.checkpoint_work_rate,
                       plan_.work_target);
  // A completed checkpoint is the consistency point at which failed
  // replicas are re-provisioned (DESIGN.md §4).
  dup_healthy_ += dup_degraded_;
  dup_degraded_ = 0;
  if (plan_.adaptive_interval) retune_quantum();
  next_checkpoint_at_ = progress_ + quantum_;
  enter_working();
}

void ResilientAppRuntime::retune_quantum() {
  // Gamma-prior rate estimate: the planned rate contributes two pseudo-
  // failures of prior weight, so early in the run the planner's interval
  // dominates and the estimate converges to the empirical rate later. The
  // prior window is capped at the work target so a wildly optimistic plan
  // (tiny planned rate → huge 2/λ window) cannot drown out the evidence.
  const Duration elapsed = sim_.now() - start_time_;
  if (elapsed <= Duration::zero()) return;
  constexpr double kPriorFailures = 2.0;
  double prior_window_s = plan_.work_target.to_seconds();
  if (plan_.failure_rate > Rate::zero()) {
    prior_window_s = std::min(prior_window_s,
                              kPriorFailures / plan_.failure_rate.per_second_value());
  }
  const double prior_failures =
      prior_window_s * (plan_.failure_rate > Rate::zero()
                            ? plan_.failure_rate.per_second_value()
                            : 0.0);
  const double rate = (static_cast<double>(result_.failures_seen) + prior_failures) /
                      (elapsed.to_seconds() + prior_window_s);
  if (rate <= 0.0) return;
  quantum_ = daly_interval(plan_.levels.front().save_cost, Rate::per_second(rate));
}

void ResilientAppRuntime::enter_restarting(std::size_t level_index, Duration restore_cost,
                                           bool shared_pfs) {
  phase_ = Phase::kRestarting;
  phase_start_ = sim_.now();
  phase_level_ = level_index;
  phase_pfs_ = shared_pfs;
  if (obs_ != nullptr) obs_->count(obs::builtin_metrics().restarts);
  schedule_phase(restore_cost, shared_pfs);
}

void ResilientAppRuntime::on_restart_done() {
  accrue_known(sim_.now() - phase_start_, result_.time_restarting,
               SpanKind::kRestart, active_normal_nodes_);
  enter_working();
}

void ResilientAppRuntime::enter_recovering(Duration lost_work) {
  phase_ = Phase::kRecovering;
  phase_start_ = sim_.now();
  phase_pfs_ = false;
  recovery_lost_ = lost_work;
  if (obs_ != nullptr) obs_->count(obs::builtin_metrics().recoveries);
  const Duration duration = plan_.levels.front().restore_cost +
                            lost_work / plan_.recovery_parallelism;
  // Parallel recovery restores from in-memory partner copies, never the
  // shared PFS.
  schedule_phase(duration, /*shared_pfs=*/false);
}

void ResilientAppRuntime::on_recovery_done() {
  accrue_known(sim_.now() - phase_start_, result_.time_recovering,
               SpanKind::kRecovery, active_recovery_nodes_);
  recovery_lost_ = Duration::zero();
  if (progress_ >= next_checkpoint_at_ && progress_ < plan_.work_target) {
    // The failure interrupted a checkpoint at this boundary: retake it.
    enter_checkpointing();
  } else {
    enter_working();
  }
}

void ResilientAppRuntime::check_time_closure() const {
  const double buckets = (result_.time_working + result_.time_checkpointing +
                          result_.time_restarting + result_.time_recovering)
                             .to_seconds();
  const double wall = result_.wall_time.to_seconds();
  XRES_CHECK(std::abs(buckets - wall) <= 1e-9 * std::max(wall, 1.0),
             "phase time buckets do not sum to the wall time");
}

void ResilientAppRuntime::complete() {
  XRES_CHECK(sim_.now() >= quiet_bound(), "the run completed before its quiet_until()");
  cancel(phase_slot_);
  cancel(timeout_slot_);
  phase_ = Phase::kDone;
  result_.completed = true;
  result_.wall_time = sim_.now() - start_time_;
  check_time_closure();
  result_.efficiency =
      result_.wall_time > Duration::zero() ? plan_.baseline / result_.wall_time : 1.0;
  result_.efficiency = std::min(result_.efficiency, 1.0);
  if (obs_ != nullptr && obs_->trace() != nullptr) {
    obs_->trace()->instant("complete", "run", sim_.now(),
                           {obs::trace_arg("efficiency", result_.efficiency)});
  }
  on_complete_(result_);
}

void ResilientAppRuntime::dispatch_timeout() {
  if (finished()) return;
  XRES_CHECK(sim_.now() >= quiet_bound(), "the wall-time cap fired before its quiet_until()");
  accrue(sim_.now() - phase_start_);
  cancel(phase_slot_);
  phase_ = Phase::kAborted;
  result_.completed = false;
  result_.wall_time = sim_.now() - start_time_;
  check_time_closure();
  result_.efficiency = 0.0;
  if (obs_ != nullptr && obs_->trace() != nullptr) {
    obs_->trace()->instant("abort", "run", sim_.now(),
                           {obs::trace_arg("reason", std::string{"wall-time cap"})});
  }
  XRES_LOG_DEBUG("application aborted by wall-time cap after " +
                 to_string(result_.wall_time));
  on_complete_(result_);
}

void ResilientAppRuntime::abort() {
  if (finished() || phase_ == Phase::kIdle) return;
  accrue(sim_.now() - phase_start_);
  cancel(phase_slot_);
  cancel(timeout_slot_);
  sim_.publish(*this);
  phase_ = Phase::kAborted;
  result_.completed = false;
  result_.wall_time = sim_.now() - start_time_;
  check_time_closure();
  result_.efficiency = 0.0;
  if (obs_ != nullptr && obs_->trace() != nullptr) {
    obs_->trace()->instant("abort", "run", sim_.now(),
                           {obs::trace_arg("reason", std::string{"external"})});
  }
}

bool ResilientAppRuntime::redundancy_masks_failure() {
  // Classify which physical node the failure hit, weighted by replica
  // population: an unduplicated process (fatal), one of a healthy pair
  // (masked: the pair degrades), or the survivor of a degraded pair
  // (fatal).
  const double w_single = static_cast<double>(singles_);
  const double w_healthy = 2.0 * static_cast<double>(dup_healthy_);
  const double w_degraded = static_cast<double>(dup_degraded_);
  const double total = w_single + w_healthy + w_degraded;
  if (total <= 0.0) return false;
  const double u = rng_.uniform(0.0, total);
  if (u < w_healthy) {
    XRES_CHECK(dup_healthy_ > 0, "replica accounting underflow");
    --dup_healthy_;
    ++dup_degraded_;
    return true;
  }
  return false;
}

void ResilientAppRuntime::handle_rollback_failure(SeverityLevel severity) {
  // Best recovery point: the newest saved progress among levels that cover
  // this severity; ties broken toward the cheaper restore.
  std::size_t best_idx = std::numeric_limits<std::size_t>::max();
  Duration best = -Duration::infinity();
  for (std::size_t i = 0; i < plan_.levels.size(); ++i) {
    if (plan_.levels[i].coverage < severity) continue;
    if (saved_[i] > best ||
        (best_idx != std::numeric_limits<std::size_t>::max() && saved_[i] == best &&
         plan_.levels[i].restore_cost < plan_.levels[best_idx].restore_cost)) {
      best = saved_[i];
      best_idx = i;
    }
  }
  XRES_CHECK(best_idx != std::numeric_limits<std::size_t>::max(),
             "no checkpoint level covers the failure severity");

  const Duration rework = progress_ - best;
  result_.rework += rework;
  ++result_.rollbacks;
  progress_ = best;
  if (obs_ != nullptr) {
    obs_->observe(obs::builtin_metrics().rollback_rework_minutes,
                  rework.to_seconds() / 60.0);
    if (obs_->trace() != nullptr) {
      obs_->trace()->instant("rollback", "failure", sim_.now(),
                             {obs::trace_arg("level", static_cast<int>(best_idx)),
                              obs::trace_arg("rework_s", rework.to_seconds())});
    }
  }
  // Retune on rollbacks too: an application thrashing under a badly
  // misspecified interval may never complete a checkpoint, and rollback
  // is exactly when fresh failure evidence arrives.
  if (plan_.adaptive_interval) retune_quantum();
  next_checkpoint_at_ = progress_ + quantum_;

  // Restarting re-provisions failed replicas.
  dup_healthy_ += dup_degraded_;
  dup_degraded_ = 0;

  enter_restarting(best_idx, plan_.levels[best_idx].restore_cost,
                   plan_.levels[best_idx].uses_shared_pfs);
}

void ResilientAppRuntime::handle_parallel_recovery_failure() {
  // Only the failed node's work since the last in-memory checkpoint must
  // be replayed; global progress is retained (message logging).
  const Duration lost = progress_ - saved_.front();
  XRES_CHECK(lost >= Duration::zero(), "negative lost work");
  enter_recovering(lost);
}

void ResilientAppRuntime::on_failure(const Failure& failure) {
  if (finished() || phase_ == Phase::kIdle) return;
  if (plan_.levels.empty()) return;  // ideal-baseline mode is failure-oblivious
  ++result_.failures_seen;

  const auto note_failure = [&](bool masked) {
    if (obs_ == nullptr) return;
    obs_->observe(obs::builtin_metrics().failure_severity,
                  static_cast<double>(failure.severity));
    if (obs_->trace() != nullptr) {
      obs_->trace()->instant("failure", "failure", sim_.now(),
                             {obs::trace_arg("severity", failure.severity),
                              obs::trace_arg("masked", masked),
                              obs::trace_arg("phase", std::string{phase_name()})});
    }
  };

  // Parallel recovery idles all but (1 + P) nodes while recovering; a
  // failure landing on an idle node has nothing to destroy (its state is
  // protected by the double in-memory checkpoint). Thin accordingly.
  if (!plan_.rollback_on_failure && phase_ == Phase::kRecovering) {
    const double active_fraction =
        std::min(1.0, (1.0 + plan_.recovery_parallelism) /
                          static_cast<double>(plan_.app.nodes));
    if (!rng_.bernoulli(active_fraction)) {
      ++result_.failures_masked;
      note_failure(/*masked=*/true);
      return;
    }
  }

  if (plan_.replication_degree > 1.0 && redundancy_masks_failure()) {
    ++result_.failures_masked;
    note_failure(/*masked=*/true);
    return;  // execution continues undisturbed
  }
  note_failure(/*masked=*/false);

  // The failure interrupts the current phase. Work performed up to the
  // failure instant counts as progress — at full rate in the Working
  // phase, at the semi-blocking rate during an overlapped checkpoint.
  const Duration elapsed = sim_.now() - phase_start_;
  if (phase_ == Phase::kWorking) {
    progress_ += elapsed;
  } else if (phase_ == Phase::kCheckpointing) {
    progress_ = std::min(progress_ + elapsed * plan_.checkpoint_work_rate,
                         plan_.work_target);
  }
  accrue(elapsed);
  cancel(phase_slot_);

  if (plan_.rollback_on_failure) {
    handle_rollback_failure(failure.severity);
  } else {
    handle_parallel_recovery_failure();
  }
  sim_.publish(*this);
}

}  // namespace xres
