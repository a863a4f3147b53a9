#pragma once

/// \file event_queue.hpp
/// The pending-event set of the discrete-event simulator.
///
/// Requirements that shaped the design:
///  * deterministic total order: ties in time are broken by insertion
///    sequence so that a seeded simulation replays identically,
///  * O(log n) schedule/pop and O(1) cancel and pending,
///  * ids that stay safe after their event fired or was cancelled.
///
/// The queue carries one-shot callbacks only (arrivals, deadlines, failures,
/// PFS completions; runtimes hold their phases in slots of their own, see
/// sim/simulation.hpp), so it stays small: a binary min-heap of
/// (time, seq, slot) entries over a std::vector, with the callbacks in a
/// slot array beside it. An EventId packs (queue salt, slot generation,
/// slot index), so cancel/pending are one array read and a tag compare, and
/// stale ids (already fired, already cancelled, or from another queue) fail
/// the tag check instead of aliasing a recycled slot.
///
/// Cancellation is lazy: cancel() bumps the slot's tag and drops the
/// callback in O(1); the heap entry stays behind and is discarded when it
/// surfaces at the root, or by a compaction once half the heap is dead. The
/// slot is only recycled at that point, so every heap entry's slot index
/// stays valid for the entry's whole lifetime.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace xres {

/// Handle identifying a scheduled event; unique within one queue's lifetime.
/// Never zero for a real event, so a value-initialized EventId is a safe
/// "no event" sentinel that cancel()/pending() reject.
enum class EventId : std::uint64_t {};

/// Action executed when an event fires. Every capture the library
/// schedules (`[this]`, `[this, j]`, `[this, &failure]`) is at most 16
/// trivially copyable bytes, which std::function stores inline, so
/// scheduling does not allocate.
using EventCallback = std::function<void()>;

/// An event popped from the queue, ready to execute.
struct FiredEvent {
  EventId id{};
  TimePoint time{};
  EventCallback callback;
};

class EventQueue {
 public:
  EventQueue();
  /// Flushes this queue's lifetime tallies (schedules/pops/cancels/
  /// compactions) into the process-global perf counters (obs/perf.hpp).
  ~EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule \p callback at absolute time \p when.
  EventId schedule(TimePoint when, EventCallback callback) {
    return schedule_reserved(when, reserve_seq(), std::move(callback));
  }

  /// Take the next insertion seq without scheduling anything. An event held
  /// outside the queue (Simulation::SlotHolder) orders against queued
  /// events by it.
  std::uint64_t reserve_seq() { return next_seq_++; }

  /// The seq the next reserve_seq() returns.
  [[nodiscard]] std::uint64_t peek_seq() const { return next_seq_; }

  /// Hand out the seqs from \p seq (at most peek_seq()) again: the caller
  /// holds none of them any more, and none is queued.
  void rewind_seqs(std::uint64_t seq) { next_seq_ = seq; }

  /// Schedule \p callback at \p when under \p seq, a seq from reserve_seq()
  /// that nothing else was scheduled under.
  EventId schedule_reserved(TimePoint when, std::uint64_t seq, EventCallback callback);

  /// True when an event at (\p when, \p seq) would pop before every pending
  /// event, or none is pending. Inline: the runtime's inline dispatch asks
  /// it once per phase.
  [[nodiscard]] bool precedes_head(TimePoint when, std::uint64_t seq) const {
    if (!heap_.empty() && (tags_[heap_.front().slot] & 1U) == 0) skip_dead();
    return heap_.empty() || later(heap_.front(), Entry{when, seq, 0});
  }

  /// Cancel a pending event. Returns true if the event was still pending
  /// (false if it already fired, was already cancelled, or belongs to a
  /// different queue). O(1).
  bool cancel(EventId id) noexcept;

  /// True if \p id is still pending. Ids from other queues, fired events
  /// and cancelled events all report false. O(1).
  [[nodiscard]] bool pending(EventId id) const noexcept;

  /// Time of the earliest pending event, if any.
  [[nodiscard]] std::optional<TimePoint> next_time() const;

  /// Remove and return the earliest pending event. Empty optional when the
  /// queue has no live events.
  std::optional<FiredEvent> pop();

  /// Number of live (non-cancelled) pending events.
  [[nodiscard]] std::size_t size() const { return live_count_; }
  [[nodiscard]] bool empty() const { return live_count_ == 0; }

 private:
  // EventId bit layout: [63:48] queue salt, [47:24] slot generation,
  // [23:0] slot index. 2^24 slots bounds *concurrent* pending events (the
  // schedule path checks it). A slot's generation is odd while the event is
  // pending and even when it is free — ids are only ever minted from odd
  // generations, so a single masked compare answers "pending?". The
  // 24-bit generation wraps after 2^23 reuses of one slot, after which a
  // stale id could in principle alias — far beyond any realistic cancel
  // pattern between two uses of the same handle.
  static constexpr std::uint64_t kIndexBits = 24;
  static constexpr std::uint64_t kGenBits = 24;
  static constexpr std::uint64_t kIndexMask = (1ULL << kIndexBits) - 1;
  static constexpr std::uint64_t kGenMask = (1ULL << kGenBits) - 1;

  /// One heap entry. The sort key (time, then insertion seq) lives here, so
  /// heap operations never touch the callbacks; slot never decides because
  /// seq is unique, and 64-bit seqs never wrap.
  struct Entry {
    TimePoint time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// True when \p a pops after \p b: the heap comparator, which makes the
  /// std heap algorithms' max-heap a min-heap in (time, seq).
  static bool later(const Entry& a, const Entry& b) {
    return b.time < a.time || (a.time == b.time && b.seq < a.seq);
  }

  [[nodiscard]] EventId encode(std::uint32_t slot, std::uint32_t generation) const {
    return EventId{(salt_ << (kIndexBits + kGenBits)) |
                   ((static_cast<std::uint64_t>(generation) & kGenMask) << kIndexBits) |
                   slot};
  }

  /// Splits \p id into (slot, generation); false when the salt says the id
  /// was minted by a different queue.
  bool decode(EventId id, std::uint32_t& slot, std::uint32_t& generation) const noexcept;

  /// Discard dead root entries, recycling their slots. After this the root
  /// (if any) is a live event. Called from the const observers, hence the
  /// mutable heap/free-list.
  void skip_dead() const;

  /// Remove every dead entry in one O(n) sweep and re-heapify. cancel()
  /// invokes this once dead entries reach half the heap, so a cancel storm
  /// costs one sweep instead of a root removal per dead entry.
  void compact_heap();

  mutable std::vector<Entry> heap_;
  /// Per-slot generation tags (odd = pending).
  std::vector<std::uint32_t> tags_;
  std::vector<EventCallback> callbacks_;
  mutable std::vector<std::uint32_t> free_slots_;
  std::size_t live_count_{0};
  std::uint64_t next_seq_{0};
  std::uint64_t salt_;  ///< per-queue id tag; see decode()

  // Lifetime telemetry: plain members bumped on the hot paths (one integer
  // add each, no atomics, no branches) and flushed once by the destructor.
  std::uint64_t stat_scheduled_{0};
  std::uint64_t stat_popped_{0};
  std::uint64_t stat_cancelled_{0};
  std::uint64_t stat_compactions_{0};
};

}  // namespace xres
