#include "sim/simulation.hpp"

#include "obs/perf.hpp"
#include "util/check.hpp"
#include "util/deadline.hpp"

namespace xres {

Simulation::~Simulation() {
  obs::perf_add_simulation(events_processed_, watchdog_polls_);
}

EventId Simulation::schedule_at(TimePoint when, EventCallback callback) {
  XRES_CHECK(when >= now_, "cannot schedule an event in the past (t=" +
                               to_string(when) + " < now=" + to_string(now_) + ")");
  return queue_.schedule(when, std::move(callback));
}

EventId Simulation::schedule_after(Duration delay, EventCallback callback) {
  XRES_CHECK(delay >= Duration::zero(), "negative scheduling delay: " + to_string(delay));
  return queue_.schedule(now_ + delay, std::move(callback));
}

bool Simulation::step() {
  auto fired = queue_.pop();
  if (!fired.has_value()) return false;
  XRES_CHECK(fired->time >= now_, "event queue produced a past event");
  now_ = fired->time;
  ++events_processed_;
  fired->callback();
  return true;
}

void Simulation::run(std::uint64_t max_events) {
  stop_requested_ = false;
  std::uint64_t executed = 0;
  while (!stop_requested_) {
    if (max_events != 0 && executed >= max_events) break;
    // Watchdog poll (util/deadline.hpp): cheap thread-local check; throws
    // TrialTimeoutError past the executor-armed per-trial deadline. Every
    // 4096 events keeps the clock_gettime cost out of the hot loop.
    if ((executed & 0xFFFU) == 0) {
      ++watchdog_polls_;
      deadline_poll();
    }
    if (!step()) break;
    ++executed;
  }
}

void Simulation::run_until(TimePoint until) {
  XRES_CHECK(until >= now_, "run_until target is in the past");
  stop_requested_ = false;
  while (!stop_requested_) {
    const auto next = queue_.next_time();
    if (!next.has_value() || *next > until) break;
    step();
  }
  if (!stop_requested_ && now_ < until) now_ = until;
}

}  // namespace xres
