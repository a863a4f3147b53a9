#pragma once

/// \file app_runtime.hpp
/// ResilientAppRuntime: the per-application state machine that executes an
/// ExecutionPlan inside a Simulation under injected failures.
///
/// Phases:
///
///   Working ──quantum──▶ Checkpointing ──▶ Working ... ──▶ Done
///      │                      │
///      └────── failure ───────┘
///              │
///              ├─ masked (redundant replica absorbed it) → phase continues
///              ├─ rollback techniques → Restarting → Working (recompute)
///              └─ parallel recovery → Recovering → resume (no rollback)
///
/// The runtime is driven entirely by its owning Simulation. It has at most
/// one pending phase completion and one wall-time cap; `on_failure`
/// cancels the phase and transitions. Both live in slots of the runtime's
/// own, each a (time, seq) under a seq reserved from the Simulation, and
/// never enter the event queue: the runtime is a Simulation::SlotHolder.
/// run_inline() dispatches them while they come first: before the queue
/// head, every other runtime's next event, run_until's bound, and in a
/// single-app trial the driver's next failure (sim/simulation.hpp). The
/// runtime publishes whenever its slots change outside that loop (start, a
/// failure, an abort, a PFS transfer completion), and the Simulation
/// re-reads its earliest held event after the loop, so it runs the runtime
/// exactly when a queue holding every event would pop its next one. A
/// phase that moves data through the shared PFS with a device attached is
/// a device transfer instead. Progress is measured in stretched-work
/// seconds against plan.work_target; a per-level ledger records the
/// progress captured by the last completed checkpoint of each level.
///
/// Lookahead. A runtime with neither an observer nor a PFS device declares
/// private events: a phase completion that neither completes the run nor
/// begins a PFS transfer touches only the runtime. The completion and the
/// wall-time cap interact (they call back into the workload), and so does
/// every event of an observed runtime (its metrics sum in global event
/// order) or of one sharing a device (a transfer changes other runtimes'
/// rates). quiet_until() bounds the completion from below by the stretched
/// work left, and the Simulation's lookahead windows run private phases in
/// run_private() up to the earliest such bound of any runtime.

#include <cstdint>
#include <functional>
#include <vector>

#include <optional>

#include "failure/process.hpp"
#include "resilience/plan.hpp"
#include "runtime/result.hpp"
#include "runtime/timeline.hpp"
#include "sim/pfs_device.hpp"
#include "sim/simulation.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace xres {

namespace obs {
class TrialObs;
}

class ResilientAppRuntime final : public Simulation::SlotHolder {
 public:
  enum class Phase { kIdle, kWorking, kCheckpointing, kRestarting, kRecovering, kDone, kAborted };

  /// Invoked exactly once, on completion or wall-time-cap abort (not on an
  /// external abort()).
  using CompletionCallback = std::function<void(const ExecutionResult&)>;

  /// \p seed drives the runtime's internal randomness (redundancy victim
  /// classification, parallel-recovery idle-node thinning).
  ResilientAppRuntime(Simulation& sim, ExecutionPlan plan, std::uint64_t seed,
                      CompletionCallback on_complete);

  ResilientAppRuntime(const ResilientAppRuntime&) = delete;
  ResilientAppRuntime& operator=(const ResilientAppRuntime&) = delete;
  ~ResilientAppRuntime();

  /// Begin executing at the current simulation time.
  void start();

  /// Deliver a failure to this application (from either failure process).
  void on_failure(const Failure& failure);

  /// Externally stop the execution (deadline drop). No callback is fired;
  /// the caller already knows. Safe to call in any phase.
  void abort();

  [[nodiscard]] Phase phase() const { return phase_; }
  [[nodiscard]] bool finished() const {
    return phase_ == Phase::kDone || phase_ == Phase::kAborted;
  }
  [[nodiscard]] const ExecutionPlan& plan() const { return plan_; }

  /// Stretched work completed so far.
  [[nodiscard]] Duration progress() const { return progress_; }

  /// The checkpoint interval currently in force (equals the plan's
  /// quantum unless adaptive_interval has retuned it).
  [[nodiscard]] Duration current_quantum() const { return quantum_; }

  /// Fraction of the stretched work target completed, in [0, 1].
  [[nodiscard]] double progress_fraction() const {
    return progress_ / plan_.work_target;
  }

  /// Statistics accumulated so far (final values after completion).
  [[nodiscard]] const ExecutionResult& result() const { return result_; }

  [[nodiscard]] const char* phase_name() const;

  /// Record every phase span for later inspection/rendering. Must be
  /// called before start(); costs one vector append per phase transition.
  void enable_timeline();

  /// Route PFS-backed checkpoint/restart phases through \p device, the
  /// machine-wide PFS device shared across applications. Must be called
  /// before start(); the device must outlive the runtime. Without it,
  /// nominal Eq.-3 durations are taken literally.
  void set_pfs_device(PfsDevice* device);

  /// The recorded timeline, or nullptr when recording was not enabled.
  [[nodiscard]] const Timeline* timeline() const {
    return timeline_.has_value() ? &*timeline_ : nullptr;
  }

  /// Attach a per-trial observation context (metrics and/or sim-time trace;
  /// see obs/trial_obs.hpp). Must be called before start(); \p obs (may be
  /// null) must outlive the runtime. When null or disabled, every
  /// instrumentation site reduces to a pointer test.
  void set_observer(obs::TrialObs* obs);

  /// The one runtime loop (Simulation::SlotHolder): dispatch the held
  /// phase completion and wall-time cap in (time, seq) order while each
  /// comes first.
  void run_inline() override;

  bool earliest_held(TimePoint& when, std::uint64_t& seq) const override;
  void held_keys(std::vector<HeldKey>& out) override;

  /// The key time when the next event interacts (or the runtime does not
  /// look ahead); otherwise the earlier of the cap and the key time plus
  /// the stretched work left after the key event, less a rounding margin:
  /// no phase advances work faster than one stretched second per second.
  [[nodiscard]] TimePoint quiet_until() const override;

  /// Dispatch private phase completions strictly before \p bound and the
  /// cap (see the file comment).
  void run_private(TimePoint bound) override;

 private:
  /// Where a pending event lives: held in the runtime's slot, or (a phase
  /// only) a PFS device transfer.
  enum class Pending : std::uint8_t { kNone, kHeld, kTransfer };

  struct Slot {
    TimePoint time{};
    std::uint64_t seq{0};
    Pending state{Pending::kNone};
  };

  /// Finish the pending phase: the one completion handler, a switch on the
  /// current phase. Reached from the inline loop or a PFS transfer, each
  /// after clearing the phase slot. Inline (defined below the class): the
  /// inline loop runs it once per simulated phase.
  void dispatch_phase();

  /// Fire the wall-time cap, after the caller cleared its slot.
  void dispatch_timeout();

  /// Progress once the held phase completes, by its handler's own
  /// arithmetic; the run completes there when it reaches the work target.
  [[nodiscard]] Duration progress_after_phase() const;

  /// Hold an event at \p when in \p slot under a freshly reserved seq.
  void hold(Slot& slot, TimePoint when) {
    slot.seq = sim_.reserve_seq();
    slot.time = when;
    slot.state = Pending::kHeld;
  }

  /// Cancel \p slot's event wherever it lives.
  void cancel(Slot& slot);

  void enter_working();
  void enter_checkpointing();
  void enter_restarting(std::size_t level_index, Duration restore_cost, bool shared_pfs);
  void enter_recovering(Duration lost_work);

  /// Schedule the current phase's completion \p nominal from now: a PFS
  /// device transfer when the phase moves data through the file system and
  /// a device is attached, or else the held phase slot. No pending-phase
  /// check: every call is reached from a dispatch (or start) that just
  /// cleared the slot. Same arithmetic as schedule_after: the completion
  /// time is bit-identical to what the event queue would store and pop.
  void schedule_phase(Duration nominal, bool shared_pfs) {
    if (shared_pfs && pfs_device_ != nullptr) {
      begin_pfs_phase(nominal);
      return;
    }
    hold(phase_slot_, sim_.now() + nominal);
  }

  void begin_pfs_phase(Duration nominal);

  void complete();

  /// The always-on phase-time closure check at every end of a run: the
  /// time buckets sum to the wall time.
  void check_time_closure() const;

  void on_segment_done(Duration target);
  void on_checkpoint_done(std::size_t level_index);
  void on_restart_done();
  void on_recovery_done();

  /// Book elapsed phase time into the result buckets + energy integral.
  void accrue(Duration elapsed);

  /// accrue() body for callers that know the current phase statically
  /// (the per-event completion handlers): identical operations in the
  /// identical order, minus the phase dispatch. \p bucket is the
  /// result_ time bucket for the phase and \p nodes its active-node
  /// count.
  void accrue_known(Duration elapsed, Duration& bucket, SpanKind span,
                    double nodes);

  /// The cold tail of accrue_known: trace-span emission (only reached
  /// when the trial collects a trace).
  void accrue_trace_span(SpanKind span, Duration elapsed);

  /// Active node count in the current phase (energy model).
  [[nodiscard]] double active_nodes() const;

  /// Handle a non-masked failure for rollback techniques (CR/ML/Red).
  void handle_rollback_failure(SeverityLevel severity);

  /// Handle a failure under parallel recovery.
  void handle_parallel_recovery_failure();

  /// Redundancy replica classification: returns true when the failure was
  /// absorbed by a healthy replica (execution continues undisturbed).
  bool redundancy_masks_failure();

  /// Adaptive-interval extension: re-derive the Eq.-4 interval from the
  /// observed failure count (Gamma-prior estimate anchored on the planned
  /// rate). Called after each completed checkpoint.
  void retune_quantum();

  Simulation& sim_;
  ExecutionPlan plan_;
  Pcg32 rng_;
  CompletionCallback on_complete_;

  Phase phase_{Phase::kIdle};
  TimePoint start_time_{};
  TimePoint phase_start_{};
  Duration progress_{Duration::zero()};
  Duration quantum_{Duration::infinity()};
  Duration next_checkpoint_at_{Duration::infinity()};
  std::uint64_t checkpoint_counter_{0};

  /// Progress captured by the newest completed checkpoint of each level
  /// (index aligned with plan_.levels). Starts at zero: recovering with no
  /// checkpoint restarts the application from the beginning.
  std::vector<Duration> saved_;

  /// Parallel recovery: stretched work being replayed.
  Duration recovery_lost_{Duration::zero()};

  /// Progress value captured by the in-flight checkpoint (semi-blocking
  /// checkpoints advance progress_ past it during the phase).
  Duration checkpoint_snapshot_{Duration::zero()};

  /// Redundancy replica health (counts of virtual processes).
  std::uint32_t dup_healthy_{0};
  std::uint32_t dup_degraded_{0};
  std::uint32_t singles_{0};

  /// Checkpoint-level odometer pattern, precomputed at start(): entry
  /// (k-1) % size is level_index_for_checkpoint(k). Empty when the cycle
  /// (the product of the nesting counts) is too long to tabulate.
  /// level_cycle_pos_ tracks checkpoint_counter_ % size incrementally so
  /// the per-checkpoint lookup never divides.
  std::vector<std::uint32_t> level_cycle_;
  std::uint64_t level_cycle_pos_{0};

  /// active_nodes() for the non-recovering / recovering phases,
  /// precomputed at start() — accrue() runs once per simulated phase.
  double active_normal_nodes_{0.0};
  double active_recovery_nodes_{0.0};

  std::optional<Timeline> timeline_;
  PfsDevice* pfs_device_{nullptr};
  obs::TrialObs* obs_{nullptr};

  /// kWorking's on_segment_done target (the only handler argument
  /// dispatch_phase cannot re-derive from other state).
  Duration phase_arg_{Duration::zero()};

  /// Checkpoint level driving the current Checkpointing/Restarting phase
  /// and whether it moves data through the shared PFS (trace span args).
  std::size_t phase_level_{0};
  bool phase_pfs_{false};

  Slot phase_slot_;
  Slot timeout_slot_;
  PfsDevice::TransferId pending_transfer_{};  ///< while phase_slot_ is kTransfer

  ExecutionResult result_{};
};

inline void ResilientAppRuntime::dispatch_phase() {
  // Every handler re-derives the elapsed time from phase_start_; the only
  // state a phase carries to its completion is phase_arg_ (working) and
  // phase_level_ (checkpointing).
  switch (phase_) {
    case Phase::kWorking: on_segment_done(phase_arg_); break;
    case Phase::kCheckpointing: on_checkpoint_done(phase_level_); break;
    case Phase::kRestarting: on_restart_done(); break;
    case Phase::kRecovering: on_recovery_done(); break;
    case Phase::kIdle:
    case Phase::kDone:
    case Phase::kAborted:
      XRES_CHECK(false, "phase dispatch outside an executing phase");
  }
}

}  // namespace xres
