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
  return queue_.schedule_reserved(when, next_seq(), std::move(callback));
}

EventId Simulation::schedule_after(Duration delay, EventCallback callback) {
  XRES_CHECK(delay >= Duration::zero(), "negative scheduling delay: " + to_string(delay));
  return queue_.schedule_reserved(now_ + delay, next_seq(), std::move(callback));
}

void Simulation::settle() {
  while (holder_ != nullptr) {
    SlotHolder* holder = holder_;
    holder->run_inline();
    // A dispatch that made another holder current already parked this one.
    if (holder_ == holder) {
      holder_ = nullptr;
      holder->park();
    }
  }
}

void Simulation::switch_holder(SlotHolder& holder) {
  if (holder_ != nullptr) holder_->park();
  holder_ = &holder;
}

void Simulation::renumber() {
  std::vector<std::uint64_t*> reserved;
  if (has_horizon_) reserved.push_back(&horizon_seq_);
  if (holder_ != nullptr) holder_->held_seqs(reserved);
  queue_.renumber_seqs(reserved);
  update_bound();
}

void Simulation::poll_watchdog() {
  ++watchdog_polls_;
  deadline_poll();
}

bool Simulation::execute_next() {
  auto fired = queue_.pop();
  if (!fired.has_value()) return false;
  XRES_CHECK(fired->time >= now_, "event queue produced a past event");
  advance(fired->time);
  fired->callback();
  return true;
}

void Simulation::run(std::uint64_t max_events) {
  stop_requested_ = false;
  update_bound();
  const std::uint64_t start = events_processed_;
  for (;;) {
    settle();
    if (stop_requested_) return;
    if (max_events != 0 && events_processed_ - start >= max_events) return;
    if (!execute_next()) return;
  }
}

void Simulation::run_until(TimePoint until) {
  XRES_CHECK(until >= now_, "run_until target is in the past");
  stop_requested_ = false;
  until_ = until;
  update_bound();
  for (;;) {
    settle();
    if (stop_requested_) break;
    const auto next = queue_.next_time();
    if (!next.has_value() || *next > until) break;
    execute_next();
  }
  until_ = TimePoint::origin() + Duration::infinity();
  update_bound();
  if (!stop_requested_ && now_ < until) now_ = until;
}

}  // namespace xres
