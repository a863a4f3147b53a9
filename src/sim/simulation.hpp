#pragma once

/// \file simulation.hpp
/// The discrete-event simulation engine: a clock, an event queue of one-shot
/// callbacks and a heap of slot holders.
///
/// A Simulation owns simulated time. Model components schedule callbacks at
/// absolute or relative times; the engine executes them in deterministic
/// order (time, then insertion order) and advances the clock monotonically.
/// Scheduling into the past is a programming error and throws.
///
/// Slot holders. A SlotHolder (the resilience runtime) keeps its next
/// events out of the queue, in slots of its own, each under an insertion
/// seq reserved from the queue's one counter. The Simulation keeps every
/// holder that holds an event in a small min-heap keyed by the (time, seq)
/// of its earliest held event. Its loop alternates two steps:
///
///  * a lookahead window, while a holder that declared private events is
///    listed. An event is private when its dispatch touches only its own
///    holder (it schedules, publishes and stops nothing); every other one
///    interacts. Each listed holder bounds its next interacting event from
///    below with quiet_until(). The window's bound E is the earliest of the
///    queue head, run_until's bound and every listed holder's
///    quiet_until(), and every holder runs its private events strictly
///    before E, back to back, each from the committed clock (the last exact
///    event's time). Everything left after the window, queued or held,
///    comes at or after E, so the window's events are exactly the next
///    ones the fully queued order would run, in some interleaving that
///    changes no holder's state. Only their seq reservations would differ:
///    the keys reserved in the window are then given fresh seqs in the
///    fully queued counter order (resequence_window() has the rule);
///  * an exact step: the queue head's callback, or the root holder, which
///    dispatches its events inline while each comes before the queue head,
///    the best other holder, run_until's bound and the caller's horizon,
///    with no stop requested.
///
/// The executed order is the one a queue holding every event would give,
/// tie-breaks included, up to the interleaving of private events inside a
/// window. A Simulation whose listed holders declare no private events
/// (observed runtimes, runtimes sharing a PFS device, single-app trials)
/// never opens a window and pays one counter test per step for it.
///
/// A holder publishes (the Simulation re-reads its key) whenever its slots
/// change outside its own inline run; the loop re-reads the key when that
/// run ends. A lone holder that no loop has run (the single-app trial's,
/// whose driver runs it itself) publishes for one compare: it enters the
/// heap only when the loop first runs or a second holder publishes.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace xres {

class Simulation {
 public:
  /// A component holding its next events in slots of its own (see above).
  class SlotHolder {
   public:
    /// A held event: its time and its seq, which window re-sequencing
    /// rewrites in place.
    struct HeldKey {
      TimePoint time;
      std::uint64_t* seq;
    };

    /// Dispatch held events inline, in (time, seq) order, while each
    /// comes_first(). The Simulation loop runs the root holder; the
    /// single-app trial driver runs its lone holder directly.
    virtual void run_inline() = 0;
    /// The (time, seq) of the earliest held event; false when none is held.
    virtual bool earliest_held(TimePoint& when, std::uint64_t& seq) const = 0;
    /// Append every held event's key.
    virtual void held_keys(std::vector<HeldKey>& out) = 0;

    /// A lower bound on the time of the next interacting event, assuming no
    /// outside input (input reaches a holder only in exact steps, and the
    /// holder publishes after it). The default, the key time, never lets a
    /// window pass this holder's next event.
    [[nodiscard]] virtual TimePoint quiet_until() const {
      TimePoint when{TimePoint::infinity()};
      std::uint64_t seq{0};
      earliest_held(when, seq);
      return when;
    }
    /// Dispatch held private events strictly before \p bound, each through
    /// Simulation::advance_private(), and stop at the first interacting
    /// one. A private event reserves at most one seq, for the event it
    /// holds, and while private events continue that event is the next to
    /// run. Called only when the key precedes \p bound, which the default
    /// quiet_until() rules out.
    virtual void run_private(TimePoint bound) { (void)bound; }

   protected:
    ~SlotHolder() = default;
    /// Declare private events (run_private, quiet_until): before the
    /// holder first publishes. Windows run while such a holder is listed.
    void enable_lookahead() { looks_ahead_ = true; }
    /// The last quiet_until() a window used for this holder since it last
    /// published, else -inf: no interacting event may fire before it.
    [[nodiscard]] TimePoint quiet_bound() const { return quiet_used_; }

   private:
    friend class Simulation;
    bool listed_{false};  ///< in the Simulation's holder heap
    bool looks_ahead_{false};
    TimePoint quiet_used_{TimePoint::origin() - Duration::infinity()};
  };

  Simulation() = default;
  /// Flushes the executed-event, holder-run and watchdog-poll tallies into
  /// the process-global perf counters.
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

  /// Run until no event is left or request_stop() is called. \p max_events
  /// guards against runaway models (0 = unlimited); it is checked before
  /// each round of the loop (a window, then an exact step), so a round that
  /// crosses it finishes first: a window can overshoot the guard by all its
  /// private events.
  void run(std::uint64_t max_events = 0);

  /// Execute all events with time <= \p until, then advance the clock to
  /// \p until (even if no event fired exactly there).
  void run_until(TimePoint until);

  /// Reserve the next insertion seq for an event a holder keeps in a slot.
  std::uint64_t reserve_seq() { return queue_.reserve_seq(); }

  /// \p holder's slots changed outside its own inline run: re-read its key.
  void publish(SlotHolder& holder) {
    if (&holder != lone_) relist(holder);
  }

  /// \p holder is going away (its events must be cancelled).
  void withdraw(SlotHolder& holder) {
    if (&holder == lone_) {
      lone_ = nullptr;
    } else if (holder.listed_) {
      unlist(position_of(holder));
    }
  }

  /// Bound inline dispatch by an event the caller keeps and fires itself
  /// (the single-app trial's next failure), due at \p when under a fresh
  /// seq. While set, inline dispatch stops before it; the caller fires it
  /// with advance(horizon_time()).
  void set_horizon(TimePoint when) {
    horizon_seq_ = queue_.reserve_seq();
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
  /// no stop requested, within run_until's bound, before the horizon, the
  /// best other holder and the queue head.
  [[nodiscard]] bool comes_first(TimePoint when, std::uint64_t seq) const {
    return before(when, seq, bound_time_, bound_seq_) && queue_.precedes_head(when, seq);
  }

  /// comes_first's two halves for a holder's tight loop: an event strictly
  /// before bound_time() is within run_until's bound and before the
  /// horizon and the best other holder (-inf once a stop is requested)
  /// whatever its seq; it comes first when it also precedes the queue head.
  [[nodiscard]] TimePoint bound_time() const { return bound_time_; }
  [[nodiscard]] bool precedes_queue(TimePoint when, std::uint64_t seq) const {
    return queue_.precedes_head(when, seq);
  }

  /// Execute-time bookkeeping of one event at \p when, queued or inline:
  /// the clock's monotonicity check, the watchdog poll every 4096 executed
  /// events (util/deadline.hpp; it throws TrialTimeoutError past the
  /// executor-armed deadline), the clock, and the executed-event count.
  void advance(TimePoint when) {
    XRES_CHECK(when >= now_, "simulation clock would move backwards");
    if ((events_processed_ & 0xFFFU) == 0) poll_watchdog();
    now_ = when;
    ++events_processed_;
  }
  /// advance() for a private event in a lookahead window: also records its
  /// time in the running holder's window history.
  void advance_private(TimePoint when) {
    advance(when);
    window_times_.push_back(when);
  }

  /// Ask run()/run_until() and inline dispatch to return after the current
  /// event completes.
  void request_stop() {
    stop_requested_ = true;
    update_bound();
  }
  [[nodiscard]] bool stop_requested() const { return stop_requested_; }

  /// Number of events in the queue (held events are not counted).
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Total events executed since construction, queued or inline.
  [[nodiscard]] std::uint64_t events_processed() const { return events_processed_; }

 private:
  /// List the lone holder, if any, in the heap: the loop is about to run,
  /// or a second holder publishes.
  void host();
  /// publish()'s slow path: adopt \p holder as the lone holder, or re-read
  /// its key and (re)position it in the heap, or drop it when it holds
  /// nothing.
  void relist(SlotHolder& holder);
  /// True when the root holder's key precedes the queue head.
  [[nodiscard]] bool holder_first() const {
    return !heap_.empty() && queue_.precedes_head(heap_.front().time, heap_.front().seq);
  }
  /// Let the root holder run inline, bounded by the best other holder.
  void run_root();
  /// Pop and execute the next queued event; false when none is left.
  bool execute_next();
  /// The lookahead window (see the file comment), then the re-sequencing
  /// of the keys it reserved and the heap rebuild.
  void run_window();
  void resequence_window();
  void update_bound() {
    bound_time_ = stop_requested_ ? TimePoint::origin() - Duration::infinity() : until_;
    bound_seq_ = std::numeric_limits<std::uint64_t>::max();
    if (has_horizon_) lower_bound_to(horizon_time_, horizon_seq_);
    if (running_ != nullptr) lower_bound_to(others_time_, others_seq_);
  }
  void lower_bound_to(TimePoint when, std::uint64_t seq) {
    if (before(when, seq, bound_time_, bound_seq_)) {
      bound_time_ = when;
      bound_seq_ = seq;
    }
  }
  void poll_watchdog();

  /// The deterministic event order: time, then insertion seq.
  static bool before(TimePoint a_time, std::uint64_t a_seq, TimePoint b_time,
                     std::uint64_t b_seq) {
    return a_time < b_time || (a_time == b_time && a_seq < b_seq);
  }

  // ---- the holder heap: a binary min-heap of listed holders by key ----
  struct Listed {
    TimePoint time;  ///< the key: the holder's earliest held event
    std::uint64_t seq;
    SlotHolder* holder;
  };
  static bool earlier(const Listed& a, const Listed& b) {
    return before(a.time, a.seq, b.time, b.seq);
  }
  /// Index of a listed holder: a scan, as only the root is re-keyed often
  /// and the heap holds a few holders (the running applications).
  [[nodiscard]] std::size_t position_of(const SlotHolder& holder) const;
  void unlist(std::size_t pos);
  /// Move heap_[pos] up to its place; returns where it landed.
  std::size_t sift_up(std::size_t pos);
  void sift_down(std::size_t pos);

  EventQueue queue_;
  TimePoint now_{TimePoint::origin()};
  std::uint64_t events_processed_{0};
  std::uint64_t watchdog_polls_{0};  ///< flushed by the destructor
  std::uint64_t holder_runs_{0};     ///< exact-step runs and window slices
  bool stop_requested_{false};

  std::vector<Listed> heap_;
  /// The one holder that published before the heap was in use, kept out
  /// of it and unread (see the file comment).
  SlotHolder* lone_{nullptr};
  /// Set once the loop has run or a second holder published: from then on
  /// every publishing holder is listed in the heap.
  bool hosted_{false};
  /// Listed holders that enable_lookahead(): windows run while nonzero.
  std::size_t lookahead_listed_{0};

  // ---- the lookahead window (run_window) ----
  /// One holder's run in the window: its heap position (whose key, left
  /// as it was until the rebuild, is the holder's pre-window key), its
  /// history (the times of its window events, window_times_[begin, end))
  /// and the one key its last event reserved, if still held.
  struct Slice {
    std::size_t pos;
    std::size_t begin;
    std::size_t end;
    TimePoint fresh_time{};
    std::uint64_t* fresh{nullptr};
  };
  std::vector<Slice> slices_;
  std::vector<TimePoint> window_times_;
  std::vector<SlotHolder::HeldKey> held_buffer_;
  /// Inside a window: its first seq. Every seq from it on was reserved in
  /// the window.
  bool in_window_{false};
  std::uint64_t window_first_seq_{0};
  /// The holder running inline from run_root(), else null.
  SlotHolder* running_{nullptr};
  /// While running_ runs: a key no later than every other holder's (its
  /// best other at entry, lowered by publishes during the run).
  TimePoint others_time_{TimePoint::infinity()};
  std::uint64_t others_seq_{std::numeric_limits<std::uint64_t>::max()};

  /// run_until's bound: events after it wait for the next run.
  TimePoint until_{TimePoint::origin() + Duration::infinity()};
  bool has_horizon_{false};
  TimePoint horizon_time_{};
  std::uint64_t horizon_seq_{0};
  /// The earliest of (until_, +inf seq), the horizon and the others bound,
  /// or -inf once a stop is requested: comes_first's bound besides the
  /// queue head.
  TimePoint bound_time_{TimePoint::origin() + Duration::infinity()};
  std::uint64_t bound_seq_{std::numeric_limits<std::uint64_t>::max()};
};

}  // namespace xres
