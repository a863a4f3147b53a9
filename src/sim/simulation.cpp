#include "sim/simulation.hpp"

#include <utility>

#include "obs/perf.hpp"
#include "util/check.hpp"
#include "util/deadline.hpp"

namespace xres {

Simulation::~Simulation() {
  obs::perf_add_simulation(events_processed_, holder_runs_, watchdog_polls_);
}

EventId Simulation::schedule_at(TimePoint when, EventCallback callback) {
  XRES_CHECK(!in_window_, "a private event scheduled a callback");
  XRES_CHECK(when >= now_, "cannot schedule an event in the past (t=" +
                               to_string(when) + " < now=" + to_string(now_) + ")");
  return queue_.schedule(when, std::move(callback));
}

EventId Simulation::schedule_after(Duration delay, EventCallback callback) {
  XRES_CHECK(!in_window_, "a private event scheduled a callback");
  XRES_CHECK(delay >= Duration::zero(), "negative scheduling delay: " + to_string(delay));
  return queue_.schedule(now_ + delay, std::move(callback));
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
  XRES_CHECK(!in_window_, "a private event published a slot holder");
  // Its slots changed: a window's bound for it no longer holds.
  holder.quiet_used_ = TimePoint::origin() - Duration::infinity();
  TimePoint when{};
  std::uint64_t seq{0};
  const bool holds = holder.earliest_held(when, seq);
  if (!holder.listed_) {
    if (!holds) return;
    holder.listed_ = true;
    if (holder.looks_ahead_) ++lookahead_listed_;
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
  if (heap_[pos].holder->looks_ahead_) --lookahead_listed_;
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
  ++holder_runs_;
  holder.run_inline();
  running_ = nullptr;
  update_bound();  // drop the others bound, which held for this run only
  // The root's key was its next event and came first, so it ran: a holder
  // that ran nothing had not published a change to its slots.
  XRES_CHECK(events_processed_ != executed, "a slot holder's key is stale");
  relist(holder);
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

void Simulation::run_window() {
  // E: the earliest of run_until's bound, the queue head and every listed
  // holder's quiet_until() (the loop runs windows only while no stop is
  // requested). A quiet_until() is at or after its holder's key, so once E
  // is at or before the root's key no holder can run and the scan stops.
  const Listed& root = heap_.front();
  TimePoint bound = until_;
  if (const auto head = queue_.next_time(); head.has_value() && *head < bound) {
    bound = *head;
  }
  for (const Listed& listed : heap_) {
    if (!(root.time < bound)) return;
    const TimePoint quiet = listed.holder->quiet_until();
    listed.holder->quiet_used_ = quiet;
    if (quiet < bound) bound = quiet;
  }
  if (!(root.time < bound)) return;

  const TimePoint committed = now_;
  window_first_seq_ = queue_.peek_seq();
  in_window_ = true;
  window_times_.clear();
  slices_.clear();
  for (std::size_t pos = 0; pos < heap_.size(); ++pos) {
    if (!(heap_[pos].time < bound)) continue;
    SlotHolder& holder = *heap_[pos].holder;
    const std::size_t begin = window_times_.size();
    holder.run_private(bound);
    now_ = committed;
    ++holder_runs_;
    // Its key precedes E, so it is not interacting (E is at most the
    // holder's quiet_until()) and the holder ran it.
    XRES_CHECK(window_times_.size() != begin,
               "a slot holder's quiet_until() passed its next interacting event");
    slices_.push_back(Slice{pos, begin, window_times_.size()});
  }
  in_window_ = false;
  resequence_window();
}

void Simulation::resequence_window() {
  // Each holder that ran holds at most one key reserved in the window: the
  // one its last window event reserved.
  for (Slice& slice : slices_) {
    held_buffer_.clear();
    heap_[slice.pos].holder->held_keys(held_buffer_);
    for (const SlotHolder::HeldKey& key : held_buffer_) {
      if (*key.seq < window_first_seq_) continue;
      XRES_CHECK(slice.fresh == nullptr, "a private event reserved more than one seq");
      slice.fresh = key.seq;
      slice.fresh_time = key.time;
    }
  }
  // The fully queued run numbers reservations in the order of the events
  // that make them, and a seq only decides between keys of equal time.
  // So fresh seqs go by key time, then by the reserving events in exact
  // order. Both holders' last window events reserved their keys; at equal
  // times the events order by their own seqs, which the previous window
  // events reserved: walk both histories back, newest first, until the
  // times differ. The first event of a history ran under the holder's
  // pre-window key, whose seq precedes every seq reserved in the window;
  // two pre-window keys order by their seqs (so twins, lockstep since they
  // started, keep their start order).
  const auto reserved_first = [this](const Slice& a, const Slice& b) {
    if (a.fresh_time != b.fresh_time) return a.fresh_time < b.fresh_time;
    std::size_t i = a.end;
    std::size_t j = b.end;
    for (;;) {
      --i;
      --j;
      if (window_times_[i] != window_times_[j]) return window_times_[i] < window_times_[j];
      const bool a_out = i == a.begin;
      const bool b_out = j == b.begin;
      if (a_out && b_out) return heap_[a.pos].seq < heap_[b.pos].seq;
      if (a_out || b_out) return a_out;
    }
  };
  // Insertion sort of the slices with a fresh key to the front (one per
  // running holder, a handful).
  std::size_t fresh = 0;
  for (std::size_t k = 0; k < slices_.size(); ++k) {
    if (slices_[k].fresh == nullptr) continue;
    std::swap(slices_[k], slices_[fresh]);
    for (std::size_t at = fresh++; at > 0 && reserved_first(slices_[at], slices_[at - 1]);
         --at) {
      std::swap(slices_[at], slices_[at - 1]);
    }
  }
  // No seq from the window's first on is held elsewhere (private events
  // schedule nothing, and the others were consumed): hand them out again.
  queue_.rewind_seqs(window_first_seq_);
  for (std::size_t k = 0; k < fresh; ++k) *slices_[k].fresh = queue_.reserve_seq();

  bool emptied = false;
  for (const Slice& slice : slices_) {
    Listed& listed = heap_[slice.pos];
    if (!listed.holder->earliest_held(listed.time, listed.seq)) {
      listed.holder->listed_ = false;
      if (listed.holder->looks_ahead_) --lookahead_listed_;
      emptied = true;
    }
  }
  if (emptied) {
    std::erase_if(heap_, [](const Listed& listed) { return !listed.holder->listed_; });
  }
  for (std::size_t pos = heap_.size() / 2; pos-- > 0;) sift_down(pos);
}

void Simulation::run(std::uint64_t max_events) {
  XRES_CHECK(!has_horizon_, "a horizon bounds only a driver-run lone holder");
  if (!hosted_) host();
  stop_requested_ = false;
  update_bound();
  const std::uint64_t start = events_processed_;
  while (!stop_requested_) {
    if (max_events != 0 && events_processed_ - start >= max_events) return;
    if (lookahead_listed_ != 0) run_window();
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
    if (lookahead_listed_ != 0) run_window();
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
