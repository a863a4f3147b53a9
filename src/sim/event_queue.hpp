#pragma once

/// \file event_queue.hpp
/// The pending-event set of the discrete-event simulator.
///
/// Requirements that shaped the design:
///  * deterministic total order: ties in time are broken by insertion
///    sequence so that a seeded simulation replays identically,
///  * O(log n) schedule/pop and O(1) cancel — resilience runtimes cancel
///    their pending phase-completion event on every failure, so cancel is on
///    the hot path,
///  * no per-event allocation: a full figure reproduction executes tens of
///    millions of events, so the container must not malloc per schedule.
///
/// Layout (docs/PERFORMANCE.md has the full design discussion):
///  * an implicit 4-ary heap of 16-byte (time, seq, slot) entries. The
///    first level is padded (LaMarca & Ladner) so every node's four
///    children occupy exactly one 64-byte cache line, and the backing
///    buffer is 64-byte aligned to match — a sift-down touches one line per
///    level instead of two;
///  * event state is split by access pattern: a compact generation-tag
///    array (4 bytes per slot, hot: every cancel/pending/skip reads only
///    this) and a cache-line-aligned callback slab (cold: touched once at
///    schedule and once when the event actually fires);
///  * generation-tagged EventIds: an id packs (queue salt, slot generation,
///    slot index), so cancel/pending are one array read and a tag compare —
///    no hashing, and stale ids (already fired, already cancelled, or from
///    another queue) fail the tag check instead of aliasing a recycled slot.
///
/// Cancellation is lazy: cancel() bumps the slot's tag and drops the
/// callback in O(1); the heap entry stays behind and is discarded when it
/// surfaces at the root. The slot is only recycled at that point, so every
/// heap entry's slot index stays valid for the entry's whole lifetime.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "sim/callback.hpp"
#include "util/units.hpp"

namespace xres {

/// Handle identifying a scheduled event; unique within one queue's lifetime.
/// Never zero for a real event, so a value-initialized EventId is a safe
/// "no event" sentinel that cancel()/pending() reject.
enum class EventId : std::uint64_t {};

}  // namespace xres

template <>
struct std::hash<xres::EventId> {
  std::size_t operator()(xres::EventId id) const noexcept {
    return std::hash<std::uint64_t>{}(static_cast<std::uint64_t>(id));
  }
};

namespace xres {

/// Action executed when an event fires.
using EventCallback = SmallCallback;

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
  EventId schedule(TimePoint when, EventCallback callback);

  /// Take the next insertion seq without scheduling anything. An event held
  /// outside the queue (Simulation::SlotHolder) orders against queued
  /// events by it. The caller renumbers first when seqs_exhausted(),
  /// passing every seq it still holds; schedule() renumbers on its own,
  /// knowing of none.
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
    if (heap_size_ != 0 && (tags_[at(0).slot()] & 1U) == 0) skip_dead();
    return heap_size_ == 0 ||
           earlier(HeapEntry{time_to_bits(when.to_seconds()), seq << 32}, at(0));
  }

  /// True when the next seq would not fit the heap's 32-bit seq field.
  [[nodiscard]] bool seqs_exhausted() const { return next_seq_ > 0xFFFFFFFFULL; }

  /// Reassign the outstanding seqs — every heap entry's plus the reserved
  /// seqs \p reserved points at, rewritten in place — to ranks 0, 1, ... in
  /// their current order and reset the counter. Equal seqs (a holder's
  /// held seq and its published key) share one rank. Runs once every 2^32
  /// seqs, so its O(n log n) cost amortizes to nothing.
  void renumber_seqs(std::span<std::uint64_t* const> reserved = {});

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

  /// Drop every pending event.
  void clear();

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

  /// One implicit-heap entry — 16 bytes so a node's four children share one
  /// cache line. The sort key (time, then insertion seq) lives here, not in
  /// the slot, so sift operations never chase the slab, and it is packed
  /// for branchless comparison: `hi` is the event time's IEEE-754 bits
  /// mapped to preserve order as unsigned integers, `lo` is
  /// (seq << 32) | slot. Comparing (hi, lo) lexicographically is exactly
  /// the deterministic (time, seq) order — slot never decides because seq
  /// is unique. `seq` holds the low 32 bits of the queue's insertion
  /// counter; renumber_seqs() renormalizes all outstanding entries before
  /// the counter can wrap, so the order is exact for any number of
  /// schedules.
  struct HeapEntry {
    std::uint64_t hi;
    std::uint64_t lo;

    [[nodiscard]] std::uint32_t slot() const {
      return static_cast<std::uint32_t>(lo & 0xFFFFFFFFULL);
    }
    [[nodiscard]] std::uint32_t seq() const {
      return static_cast<std::uint32_t>(lo >> 32);
    }
  };

  /// Order-preserving map from double to uint64: flips negative values so
  /// unsigned comparison of the results matches double comparison.
  /// (-0.0 is normalized to +0.0 first so the two zeros stay tied.)
  static std::uint64_t time_to_bits(double t) noexcept {
    t += 0.0;  // -0.0 + 0.0 == +0.0: keep the two zeros tied
    std::uint64_t bits;
    std::memcpy(&bits, &t, sizeof bits);
    return (bits & (1ULL << 63)) != 0 ? ~bits : bits | (1ULL << 63);
  }
  static double bits_to_time(std::uint64_t bits) noexcept;

  /// Key larger than any real entry's (no finite time maps to all-ones, and
  /// a slot index never fills 32 bits). Fills every cell at or past the
  /// logical heap size; see sift_down().
  static constexpr HeapEntry kSentinel{~0ULL, ~0ULL};

  /// The callback slab cell, padded to a cache line so neighbouring events
  /// never share one.
  struct alignas(64) CallbackSlot {
    EventCallback callback;
  };

  [[nodiscard]] EventId encode(std::uint32_t slot, std::uint32_t generation) const {
    return EventId{(salt_ << (kIndexBits + kGenBits)) |
                   ((static_cast<std::uint64_t>(generation) & kGenMask) << kIndexBits) |
                   slot};
  }

  /// Splits \p id into (slot, generation); false when the salt says the id
  /// was minted by a different queue.
  bool decode(EventId id, std::uint32_t& slot, std::uint32_t& generation) const noexcept;

  /// Strictly-less in the deterministic event order. Bitwise (not
  /// short-circuit) combination: the whole predicate compiles to compares
  /// and set/cmov instructions with no data-dependent branch, which
  /// matters because random keys would mispredict ~50% of the time in the
  /// sift loops.
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    return bool(a.hi < b.hi) | (bool(a.hi == b.hi) & bool(a.lo < b.lo));
  }

  // ---- implicit 4-ary heap over a 64-byte-aligned buffer ----
  //
  // Logical index l (0 = root, children 4l+1..4l+4) maps to physical index
  // l + 3: a node's children then live at physical 4(l+1)..4(l+1)+3, i.e.
  // byte offset 64·(l+1) — one full cache line per child group. Physical
  // cells 0..2 are never used. Every physical cell at or past the logical
  // size holds a +inf sentinel, so sift_down can always read a full
  // four-child group without a bounds branch.
  [[nodiscard]] HeapEntry& at(std::size_t logical) const { return heap_[logical + 3]; }
  void heap_grow(std::size_t logical_capacity) const;
  void heap_push(const HeapEntry& entry);
  /// Remove the root of a non-empty heap.
  void heap_pop_root() const;
  void sift_up(std::size_t logical);
  void sift_down(std::size_t logical) const;

  /// Discard dead root entries, recycling their slots. After this the root
  /// (if any) is a live event. Called from the const observers, hence the
  /// mutable heap/free-list.
  void skip_dead() const;

  /// Remove every dead entry in one O(n) sweep and re-heapify bottom-up.
  /// cancel() invokes this once dead entries reach half the heap, so a
  /// cancel storm costs one sweep instead of a full root sift per dead
  /// entry — amortized O(1) per cancel.
  void compact_heap();

  // Heap storage: manual buffer (std::vector cannot guarantee the 64-byte
  // base alignment the child-per-line layout needs). `heap_size_` counts
  // logical entries.
  struct AlignedDelete {
    void operator()(HeapEntry* p) const noexcept {
      ::operator delete[](p, std::align_val_t{64});
    }
  };
  mutable std::unique_ptr<HeapEntry[], AlignedDelete> heap_;
  mutable std::size_t heap_size_{0};
  mutable std::size_t heap_capacity_{0};

  /// Per-slot generation tags (odd = pending). Hot: cancel/pending/
  /// skip_dead read only this array.
  std::vector<std::uint32_t> tags_;
  /// Per-slot callbacks. Cold: touched at schedule and at delivery.
  std::vector<CallbackSlot> callbacks_;
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
