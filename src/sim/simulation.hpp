#pragma once

/// \file simulation.hpp
/// The discrete-event simulation engine: a clock plus an event queue.
///
/// A Simulation owns simulated time. Model components schedule callbacks at
/// absolute or relative times; the engine executes them in deterministic
/// order (time, then insertion order) and advances the clock monotonically.
/// Scheduling into the past is a programming error and throws.

#include <cstdint>
#include <string>

#include "sim/event_queue.hpp"
#include "util/units.hpp"

namespace xres {

class Simulation {
 public:
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

  /// Execute the next event, advancing the clock to its time.
  /// Returns false when no events remain (clock unchanged).
  bool step();

  /// Run until the event queue drains or request_stop() is called.
  /// \p max_events guards against runaway models (0 = unlimited).
  void run(std::uint64_t max_events = 0);

  /// Execute all events with time <= \p until, then advance the clock to
  /// \p until (even if no event fired exactly there).
  void run_until(TimePoint until);

  /// Direct-execution support (core/trial_engine.hpp): advance the clock to
  /// \p when (>= now()) and credit one executed event, exactly as step()
  /// would for a queued event firing at \p when. The trial engine
  /// dispatches its events itself and uses this so events_processed() — and
  /// every metric derived from it — stays byte-identical to the queued path.
  /// Inline: this runs once per simulated event on the hot path.
  void advance_direct(TimePoint when) {
    now_ = when;
    ++events_processed_;
  }

  /// Direct-execution support: credit one watchdog poll (telemetry parity
  /// with run()'s every-4096-events poll; the caller invokes deadline_poll()
  /// itself).
  void count_watchdog_poll() { ++watchdog_polls_; }

  /// Ask run()/run_until() to return after the current event completes.
  void request_stop() { stop_requested_ = true; }
  [[nodiscard]] bool stop_requested() const { return stop_requested_; }

  /// Number of pending events.
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Total events executed since construction.
  [[nodiscard]] std::uint64_t events_processed() const { return events_processed_; }

 private:
  EventQueue queue_;
  TimePoint now_{TimePoint::origin()};
  std::uint64_t events_processed_{0};
  std::uint64_t watchdog_polls_{0};  ///< flushed by the destructor
  bool stop_requested_{false};
};

}  // namespace xres
