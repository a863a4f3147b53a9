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

void Simulation::host() {
  hosted_ = true;
  if (lone_ != nullptr) {
    SlotHolder& holder = *lone_;
    lone_ = nullptr;
    relist(holder);
  }
}

void Simulation::relist(SlotHolder& holder) {
  if (!hosted_) {
    if (lone_ == nullptr) {
      lone_ = &holder;
      return;
    }
    host();
  }
  TimePoint when{};
  std::uint64_t seq{0};
  const bool holds = holder.earliest_held(when, seq);
  if (!holder.listed_) {
    if (!holds) return;
    holder.listed_ = true;
    heap_.push_back(Listed{when, seq, &holder});
    sift_up(heap_.size() - 1);
  } else {
    const std::size_t pos = position_of(holder);
    if (!holds) {
      unlist(pos);
      return;
    }
    heap_[pos].time = when;
    heap_[pos].seq = seq;
    // The root (re-keyed after its run, the common case) can only sink.
    sift_down(pos == 0 ? 0 : sift_up(pos));
  }
  // A holder listed or moved while another runs inline may now come before
  // the running holder's next event.
  if (running_ != nullptr && &holder != running_ &&
      before(when, seq, others_time_, others_seq_)) {
    others_time_ = when;
    others_seq_ = seq;
    update_bound();
  }
}

std::size_t Simulation::position_of(const SlotHolder& holder) const {
  std::size_t pos = 0;
  while (heap_[pos].holder != &holder) ++pos;
  return pos;
}

void Simulation::unlist(std::size_t pos) {
  heap_[pos].holder->listed_ = false;
  const Listed last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  heap_[pos] = last;
  sift_down(sift_up(pos));
}

std::size_t Simulation::sift_up(std::size_t pos) {
  const Listed entry = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!earlier(entry, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = entry;
  return pos;
}

void Simulation::sift_down(std::size_t pos) {
  const Listed entry = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], entry)) break;
    heap_[pos] = heap_[child];
    pos = child;
  }
  heap_[pos] = entry;
}

void Simulation::run_root() {
  SlotHolder& holder = *heap_.front().holder;
  running_ = &holder;
  // Every other holder is below the root: the better child bounds them all.
  others_time_ = TimePoint::infinity();
  others_seq_ = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t child = 1; child <= 2 && child < heap_.size(); ++child) {
    const Listed& other = heap_[child];
    if (before(other.time, other.seq, others_time_, others_seq_)) {
      others_time_ = other.time;
      others_seq_ = other.seq;
    }
  }
  update_bound();
  const std::uint64_t executed = events_processed_;
  holder.run_inline();
  running_ = nullptr;
  // The root's key was its next event and came first, so it ran: a holder
  // that ran nothing had not published a change to its slots.
  XRES_CHECK(events_processed_ != executed, "a slot holder's key is stale");
  relist(holder);
}

void Simulation::renumber() {
  std::vector<std::uint64_t*> reserved;
  if (has_horizon_) reserved.push_back(&horizon_seq_);
  if (running_ != nullptr && others_time_ < TimePoint::infinity()) {
    reserved.push_back(&others_seq_);
  }
  if (lone_ != nullptr) lone_->held_seqs(reserved);
  for (Listed& listed : heap_) {
    listed.holder->held_seqs(reserved);
    reserved.push_back(&listed.seq);
  }
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
  advance(fired->time);
  fired->callback();
  return true;
}

void Simulation::run(std::uint64_t max_events) {
  XRES_CHECK(!has_horizon_, "a horizon bounds only a driver-run lone holder");
  if (!hosted_) host();
  stop_requested_ = false;
  update_bound();
  const std::uint64_t start = events_processed_;
  while (!stop_requested_) {
    if (max_events != 0 && events_processed_ - start >= max_events) return;
    if (holder_first()) {
      run_root();
    } else if (!execute_next()) {
      return;
    }
  }
}

void Simulation::run_until(TimePoint until) {
  XRES_CHECK(until >= now_, "run_until target is in the past");
  XRES_CHECK(!has_horizon_, "a horizon bounds only a driver-run lone holder");
  if (!hosted_) host();
  stop_requested_ = false;
  until_ = until;
  update_bound();
  while (!stop_requested_) {
    if (holder_first()) {
      if (heap_.front().time > until) break;
      run_root();
    } else {
      const auto next = queue_.next_time();
      if (!next.has_value() || *next > until) break;
      execute_next();
    }
  }
  until_ = TimePoint::origin() + Duration::infinity();
  update_bound();
  if (!stop_requested_ && now_ < until) now_ = until;
}

}  // namespace xres
