#include "sim/event_queue.hpp"

#include <algorithm>
#include <atomic>

#include "obs/perf.hpp"
#include "util/check.hpp"

namespace xres {

namespace {

/// Per-queue id tag. A process-wide counter guarantees distinct salts for
/// (the first 65536) concurrently live queues, making pending()/cancel() on
/// a foreign queue's id deterministically false. The value never influences
/// event ordering or any serialized artifact, so the cross-thread
/// construction order being nondeterministic is harmless.
std::uint64_t next_salt() {
  static std::atomic<std::uint64_t> counter{0};
  // 1..65535, never 0: keeps a value-initialized EventId{0} unanswerable by
  // any queue regardless of how many queues a process creates.
  return (counter.fetch_add(1, std::memory_order_relaxed) % 0xFFFFULL) + 1;
}

}  // namespace

EventQueue::EventQueue() : salt_{next_salt()} {}

EventQueue::~EventQueue() {
  obs::perf_add_engine(stat_scheduled_, stat_popped_, stat_cancelled_,
                       stat_compactions_);
}

bool EventQueue::decode(EventId id, std::uint32_t& slot,
                        std::uint32_t& generation) const noexcept {
  const auto raw = static_cast<std::uint64_t>(id);
  if ((raw >> (kIndexBits + kGenBits)) != salt_) return false;
  slot = static_cast<std::uint32_t>(raw & kIndexMask);
  generation = static_cast<std::uint32_t>((raw >> kIndexBits) & kGenMask);
  return true;
}

EventId EventQueue::schedule_reserved(TimePoint when, std::uint64_t seq,
                                      EventCallback callback) {
  XRES_CHECK(static_cast<bool>(callback), "event callback must be non-empty");
  XRES_CHECK(seq < next_seq_, "event seq was never reserved");
  std::uint32_t idx;
  if (!free_slots_.empty()) {
    idx = free_slots_.back();
    free_slots_.pop_back();
  } else {
    XRES_CHECK(tags_.size() <= kIndexMask, "event queue slot space exhausted");
    idx = static_cast<std::uint32_t>(tags_.size());
    tags_.push_back(0);
    callbacks_.emplace_back();
  }
  const std::uint32_t generation = ++tags_[idx];  // even (free) -> odd (pending)
  callbacks_[idx] = std::move(callback);
  heap_.push_back(Entry{when, seq, idx});
  std::push_heap(heap_.begin(), heap_.end(), later);
  ++live_count_;
  ++stat_scheduled_;
  return encode(idx, generation);
}

bool EventQueue::cancel(EventId id) noexcept {
  std::uint32_t idx;
  std::uint32_t generation;
  if (!decode(id, idx, generation)) return false;
  if (idx >= tags_.size()) return false;
  if ((tags_[idx] & kGenMask) != generation) return false;  // fired/cancelled/stale
  ++tags_[idx];  // odd (pending) -> even (dead); invalidates all handles
  callbacks_[idx] = nullptr;
  --live_count_;
  ++stat_cancelled_;
  if (heap_.size() >= 64 && (heap_.size() - live_count_) * 2 >= heap_.size()) {
    compact_heap();
  }
  return true;
}

void EventQueue::compact_heap() {
  ++stat_compactions_;
  std::erase_if(heap_, [this](const Entry& e) {
    if ((tags_[e.slot] & 1U) != 0) return false;
    free_slots_.push_back(e.slot);
    return true;
  });
  // Every pairwise (time, seq) comparison is unchanged, so the pop order —
  // and therefore replay — is unaffected.
  std::make_heap(heap_.begin(), heap_.end(), later);
}

bool EventQueue::pending(EventId id) const noexcept {
  std::uint32_t idx;
  std::uint32_t generation;
  if (!decode(id, idx, generation)) return false;
  if (idx >= tags_.size()) return false;
  // Ids are only minted from odd (pending) generations, so the tag compare
  // alone answers liveness.
  return (tags_[idx] & kGenMask) == generation;
}

void EventQueue::skip_dead() const {
  while (!heap_.empty()) {
    const std::uint32_t idx = heap_.front().slot;
    if ((tags_[idx] & 1U) != 0) return;  // live root
    free_slots_.push_back(idx);
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
  }
}

std::optional<TimePoint> EventQueue::next_time() const {
  skip_dead();
  if (heap_.empty()) return std::nullopt;
  return heap_.front().time;
}

std::optional<FiredEvent> EventQueue::pop() {
  skip_dead();
  if (heap_.empty()) return std::nullopt;
  std::pop_heap(heap_.begin(), heap_.end(), later);
  const Entry top = heap_.back();
  heap_.pop_back();

  const std::uint32_t generation = tags_[top.slot];
  ++tags_[top.slot];  // odd (pending) -> even (fired)
  std::optional<FiredEvent> fired;
  fired.emplace(encode(top.slot, generation), top.time, std::move(callbacks_[top.slot]));
  free_slots_.push_back(top.slot);
  --live_count_;
  ++stat_popped_;
  return fired;
}

}  // namespace xres
