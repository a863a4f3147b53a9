#pragma once

/// \file simulation.hpp
/// The discrete-event simulation engine: a clock plus an event queue.
///
/// A Simulation owns simulated time. Model components schedule callbacks at
/// absolute or relative times; the engine executes them in deterministic
/// order (time, then insertion order) and advances the clock monotonically.
/// Scheduling into the past is a programming error and throws.
///
/// Inline dispatch. A SlotHolder (the resilience runtime) keeps its next
/// events out of the queue, in slots of its own, each under an insertion
/// seq reserved from the queue's one counter, and runs them itself while
/// they come first: before the queue head, within run_until's bound, before
/// the caller's horizon, with no stop requested. Only the last holder to
/// reserve a seq holds events; reserving for another parks the previous
/// one's in the queue under the seqs they reserved. After every queued
/// callback the Simulation lets that holder run inline, then parks what is
/// left. The executed order is the one a queue holding every event would
/// give, tie-breaks included.

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/units.hpp"

namespace xres {

class Simulation {
 public:
  /// A component holding its next events in slots of its own (see above).
  class SlotHolder {
   public:
    /// Dispatch held events inline, in (time, seq) order, while each
    /// comes_first(). The single-app trial driver calls it directly; the
    /// queue host calls it after each callback.
    virtual void run_inline() = 0;
    /// Move every held event into the queue under its reserved seq.
    virtual void park() = 0;
    /// Append pointers to the held events' seqs (renumbering rewrites them).
    virtual void held_seqs(std::vector<std::uint64_t*>& out) = 0;

   protected:
    ~SlotHolder() = default;
  };

  Simulation() = default;
  /// Flushes the executed-event and watchdog-poll tallies into the
  /// process-global perf counters.
  ~Simulation();

  // The engine hands out raw pointers/references to itself; moving it would
  // invalidate model components' back-references.
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedule \p callback at absolute time \p when (>= now()).
  EventId schedule_at(TimePoint when, EventCallback callback);

  /// Schedule \p callback \p delay from now (delay >= 0).
  EventId schedule_after(Duration delay, EventCallback callback);

  /// Cancel a pending event; returns true if it had not yet fired.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// True if \p id is still pending.
  [[nodiscard]] bool pending(EventId id) const { return queue_.pending(id); }

  /// Run until the event queue drains or request_stop() is called.
  /// \p max_events guards against runaway models (0 = unlimited); it is
  /// checked before each queue pop, so a holder's inline run that crosses
  /// it finishes first.
  void run(std::uint64_t max_events = 0);

  /// Execute all events with time <= \p until, then advance the clock to
  /// \p until (even if no event fired exactly there).
  void run_until(TimePoint until);

  /// Reserve the next insertion seq for an event \p holder keeps in a slot.
  /// Parks the previous holder's events first when it is another.
  std::uint64_t reserve_seq(SlotHolder& holder) {
    if (holder_ != &holder) switch_holder(holder);
    return next_seq();
  }

  /// \p holder is going away: forget it (its events must be cancelled).
  void release(SlotHolder& holder) {
    if (holder_ == &holder) holder_ = nullptr;
  }

  /// Park a held event: schedule \p callback at \p when under \p seq.
  EventId schedule_reserved(TimePoint when, std::uint64_t seq, EventCallback callback) {
    return queue_.schedule_reserved(when, seq, std::move(callback));
  }

  /// Bound inline dispatch by an event the caller keeps and fires itself
  /// (the single-app trial's next failure), due at \p when under a fresh
  /// seq. While set, inline dispatch stops before it; the caller fires it
  /// with advance(horizon_time()).
  void set_horizon(TimePoint when) {
    has_horizon_ = false;  // the old horizon's seq is spent
    horizon_seq_ = next_seq();
    horizon_time_ = when;
    has_horizon_ = true;
    update_bound();
  }
  /// Move the horizon to \p when, keeping its seq: the next event of a
  /// series inserted at once ahead of everything after it (a replayed
  /// failure trace).
  void move_horizon(TimePoint when) {
    horizon_time_ = when;
    update_bound();
  }
  void clear_horizon() {
    has_horizon_ = false;
    update_bound();
  }
  [[nodiscard]] bool has_horizon() const { return has_horizon_; }
  [[nodiscard]] TimePoint horizon_time() const { return horizon_time_; }

  /// True when a held event at (\p when, \p seq) is the next to execute:
  /// no stop requested, within run_until's bound, before the horizon and
  /// before the queue head.
  [[nodiscard]] bool comes_first(TimePoint when, std::uint64_t seq) const {
    return (when < bound_time_ || (when == bound_time_ && seq < bound_seq_)) &&
           queue_.precedes_head(when, seq);
  }

  /// comes_first's two halves for a holder's tight loop: an event strictly
  /// before bound_time() is within run_until's bound and before the
  /// horizon (-inf once a stop is requested) whatever its seq; it comes
  /// first when it also precedes the queue head.
  [[nodiscard]] TimePoint bound_time() const { return bound_time_; }
  [[nodiscard]] bool precedes_queue(TimePoint when, std::uint64_t seq) const {
    return queue_.precedes_head(when, seq);
  }

  /// Execute-time bookkeeping of one event at \p when, queued or inline:
  /// the watchdog poll every 4096 executed events (util/deadline.hpp; it
  /// throws TrialTimeoutError past the executor-armed deadline), the clock,
  /// and the executed-event count.
  void advance(TimePoint when) {
    if ((events_processed_ & 0xFFFU) == 0) poll_watchdog();
    now_ = when;
    ++events_processed_;
  }

  /// Ask run()/run_until() and inline dispatch to return after the current
  /// event completes.
  void request_stop() {
    stop_requested_ = true;
    update_bound();
  }
  [[nodiscard]] bool stop_requested() const { return stop_requested_; }

  /// Number of events in the queue (a holder's events count once parked).
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Total events executed since construction, queued or inline.
  [[nodiscard]] std::uint64_t events_processed() const { return events_processed_; }

 private:
  /// Let the holder run inline, then park what it still holds; repeat for
  /// each holder its dispatch made current.
  void settle();
  /// Pop and execute the next queued event; false when none is left.
  bool execute_next();
  void switch_holder(SlotHolder& holder);
  std::uint64_t next_seq() {
    if (queue_.seqs_exhausted()) renumber();
    return queue_.reserve_seq();
  }
  /// Renumber the queue's seqs together with every reserved one held
  /// outside it (the holder's and the horizon's).
  void renumber();
  void update_bound() {
    bound_time_ = stop_requested_ ? TimePoint::origin() - Duration::infinity() : until_;
    bound_seq_ = std::numeric_limits<std::uint64_t>::max();
    if (has_horizon_ && horizon_time_ <= bound_time_) {
      bound_time_ = horizon_time_;
      bound_seq_ = horizon_seq_;
    }
  }
  void poll_watchdog();

  EventQueue queue_;
  TimePoint now_{TimePoint::origin()};
  std::uint64_t events_processed_{0};
  std::uint64_t watchdog_polls_{0};  ///< flushed by the destructor
  bool stop_requested_{false};

  SlotHolder* holder_{nullptr};
  /// run_until's bound: events after it wait for the next run.
  TimePoint until_{TimePoint::origin() + Duration::infinity()};
  bool has_horizon_{false};
  TimePoint horizon_time_{};
  std::uint64_t horizon_seq_{0};
  /// The earlier of (until_, +inf seq) and the horizon, or -inf once a stop
  /// is requested: comes_first's bound besides the queue head.
  TimePoint bound_time_{TimePoint::origin() + Duration::infinity()};
  std::uint64_t bound_seq_{std::numeric_limits<std::uint64_t>::max()};
};

}  // namespace xres
