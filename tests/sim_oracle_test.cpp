// Differential oracle tests for the event-queue kernel and the Simulation's
// slot-holder heap.
//
// Drives ~1M randomized schedule/cancel/pop/pending operations against the
// real EventQueue and, in lockstep, a deliberately naive reference model (a
// std::map ordered by the contractual (time, insertion-seq) key). Every
// observable — pop order, fired ids/times/callbacks, cancel and pending
// return values, size, next_time — must match the model exactly. The op mix
// leans on the cases that broke heaps before: same-timestamp bursts (ties
// must break by insertion order), cancel-after-fire, stale handles, and
// cancel storms dense enough to trigger heap compaction.
//
// The holder-order test runs one randomized scenario twice: with toy slot
// holders that keep their events out of the queue, and with every holder
// event a plain queued event taking its seq at the same moment. The two
// execution logs must be identical. The window test does the same with toy
// holders that declare private events and a quiet_until(), so the
// Simulation runs them in lookahead windows: private events then run in
// another interleaving, so each holder's own log, the log of interacting
// events and the holders' event counts at those must match instead.
//
// This test also runs under TSAN (tools/tier1.sh) to shake out undefined
// behavior in the heap and the generation-tagged slots.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/perf.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace xres {
namespace {

TimePoint at(double s) { return TimePoint::at(Duration::seconds(s)); }

/// The contractual pop order: time, then insertion sequence.
using RefKey = std::pair<double, std::uint64_t>;

struct Oracle {
  std::map<RefKey, std::uint64_t> live;                 // key -> token
  std::unordered_map<std::uint64_t, RefKey> token_key;  // live tokens only
};

struct TrackedId {
  EventId id{};
  std::uint64_t token{0};
};

void run_ops(std::uint64_t seed, std::uint64_t ops) {
  Pcg32 rng{seed};
  EventQueue queue;
  Oracle oracle;
  std::vector<TrackedId> handles;  // includes fired/cancelled (stale) ids
  std::vector<std::uint64_t> fired_tokens;
  std::uint64_t next_token = 1;
  std::uint64_t next_seq = 0;

  const auto schedule_one = [&] {
    // Quantized times with decent probability of collision: same-timestamp
    // bursts must pop in insertion order.
    double t;
    if (rng.bernoulli(0.5)) {
      t = static_cast<double>(rng.uniform_int(0, 40));  // heavy ties
    } else {
      t = rng.next_double() * 1000.0;
    }
    const std::uint64_t token = next_token++;
    const EventId id =
        queue.schedule(at(t), [&fired_tokens, token] { fired_tokens.push_back(token); });
    const RefKey key{t, next_seq++};
    oracle.live.emplace(key, token);
    oracle.token_key.emplace(token, key);
    handles.push_back(TrackedId{id, token});
  };

  const auto pop_one = [&] {
    auto fired = queue.pop();
    if (oracle.live.empty()) {
      ASSERT_FALSE(fired.has_value());
      return;
    }
    ASSERT_TRUE(fired.has_value());
    const auto front = oracle.live.begin();
    EXPECT_EQ(fired->time, at(front->first.first));
    const std::uint64_t expect_token = front->second;
    const std::size_t before = fired_tokens.size();
    fired->callback();
    ASSERT_EQ(fired_tokens.size(), before + 1);
    EXPECT_EQ(fired_tokens.back(), expect_token);
    // The handle we recorded at schedule time must be the one that fired,
    // and it must be dead from here on.
    EXPECT_FALSE(queue.pending(fired->id));
    oracle.token_key.erase(expect_token);
    oracle.live.erase(front);
  };

  for (std::uint64_t op = 0; op < ops; ++op) {
    const std::uint32_t pick = rng.next_below(100);
    if (pick < 40) {
      schedule_one();
    } else if (pick < 55 && !handles.empty()) {
      // Cancel a random handle — possibly already fired or cancelled.
      const auto& h = handles[rng.next_below(static_cast<std::uint32_t>(handles.size()))];
      const bool ref_live = oracle.token_key.contains(h.token);
      EXPECT_EQ(queue.cancel(h.id), ref_live);
      if (ref_live) {
        oracle.live.erase(oracle.token_key.at(h.token));
        oracle.token_key.erase(h.token);
      }
      EXPECT_FALSE(queue.pending(h.id));
      EXPECT_FALSE(queue.cancel(h.id));  // second cancel always refused
    } else if (pick < 90) {
      pop_one();
    } else if (!handles.empty()) {
      const auto& h = handles[rng.next_below(static_cast<std::uint32_t>(handles.size()))];
      EXPECT_EQ(queue.pending(h.id), oracle.token_key.contains(h.token));
    }

    EXPECT_EQ(queue.size(), oracle.live.size());
    if ((op & 0xF) == 0) {
      if (oracle.live.empty()) {
        EXPECT_EQ(queue.next_time(), std::nullopt);
      } else {
        EXPECT_EQ(queue.next_time(), at(oracle.live.begin()->first.first));
      }
    }
    // Bound live-set growth (and with it, handle staleness) so the run
    // exercises deep queues without ballooning.
    if (oracle.live.size() > 20000) {
      while (oracle.live.size() > 10000) pop_one();
    }
    if (handles.size() > 60000) handles.erase(handles.begin(), handles.begin() + 30000);
    if (testing::Test::HasFatalFailure()) return;
  }

  // Drain and verify the full remaining order.
  while (!oracle.live.empty()) {
    pop_one();
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(queue.pop(), std::nullopt);
  EXPECT_TRUE(queue.empty());
}

TEST(SimOracle, MillionOpsMatchReferenceModel) {
  // 4 independent seeds x 250k ops = 1M operations against the model.
  for (const std::uint64_t seed : {11U, 22U, 33U, 44U}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_ops(seed, 250000);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(SimOracle, CancelStormsMatchReferenceModel) {
  // Alternating build-up and mass-cancel phases: most scheduled events die
  // before firing, driving the queue through repeated compactions while
  // the model checks the survivors' order.
  Pcg32 rng{99};
  EventQueue queue;
  Oracle oracle;
  std::vector<TrackedId> alive;
  std::vector<std::uint64_t> fired_tokens;
  std::uint64_t next_token = 1;
  std::uint64_t next_seq = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 2000; ++i) {
      const double t = static_cast<double>(rng.uniform_int(0, 500));
      const std::uint64_t token = next_token++;
      const EventId id =
          queue.schedule(at(t), [&fired_tokens, token] { fired_tokens.push_back(token); });
      oracle.live.emplace(RefKey{t, next_seq}, token);
      oracle.token_key.emplace(token, RefKey{t, next_seq});
      ++next_seq;
      alive.push_back(TrackedId{id, token});
    }
    // Cancel ~75% of everything still alive, newest first.
    for (std::size_t i = alive.size(); i-- > 0;) {
      if (!rng.bernoulli(0.75)) continue;
      const TrackedId h = alive[i];
      if (!oracle.token_key.contains(h.token)) continue;
      EXPECT_TRUE(queue.cancel(h.id));
      oracle.live.erase(oracle.token_key.at(h.token));
      oracle.token_key.erase(h.token);
    }
    // Pop half of the survivors; verify order against the model.
    for (std::size_t i = oracle.live.size() / 2; i-- > 0;) {
      auto fired = queue.pop();
      ASSERT_TRUE(fired.has_value());
      const auto front = oracle.live.begin();
      fired->callback();
      ASSERT_EQ(fired_tokens.back(), front->second);
      oracle.token_key.erase(front->second);
      oracle.live.erase(front);
    }
    ASSERT_EQ(queue.size(), oracle.live.size());
    alive.erase(alive.begin(),
                alive.begin() + static_cast<std::ptrdiff_t>(alive.size() / 2));
  }
  while (auto fired = queue.pop()) {
    const auto front = oracle.live.begin();
    ASSERT_NE(front, oracle.live.end());
    fired->callback();
    ASSERT_EQ(fired_tokens.back(), front->second);
    oracle.live.erase(front);
  }
  EXPECT_TRUE(oracle.live.empty());
}

// ---- slot holders against the fully queued order ----

/// One run of the holder-order scenario. Toy holders own two slots each
/// (like a runtime's phase and wall-time cap) and re-arm a slot after it
/// fires, at delays with many exact ties. Queued storm events re-key or
/// empty one to three holders in one callback (like a failure burst), and a
/// firing slot sometimes arms another holder (like a completion whose
/// mapping starts new jobs). With `queued` set every slot is a plain
/// queued event instead, scheduled where the holder would reserve its seq.
class HolderScenario {
 public:
  HolderScenario(bool queued, std::uint64_t seed, std::size_t target)
      : queued_{queued}, rng_{seed}, target_{target} {
    for (int id = 0; id < kHolders; ++id) holders_.push_back(std::make_unique<Toy>(*this, id));
  }

  /// The execution log: (event id, time) per executed event, plus markers
  /// where a run_until or the stopped run() returned.
  std::vector<std::pair<int, double>> run() {
    for (int id = 0; id < kHolders; id += 2) {
      holders_[static_cast<std::size_t>(id)]->arm(0, at(static_cast<double>(id % 3)));
      holders_[static_cast<std::size_t>(id)]->publish();
    }
    sim_.schedule_at(at(0.5), [this] { storm(); });
    sim_.schedule_at(at(6000.0), [this] {
      log_.emplace_back(-3, sim_.now().to_seconds());
      sim_.request_stop();
    });
    for (const double until : {1000.0, 1000.0, 2500.0, 4000.0}) {
      sim_.run_until(at(until));
      log_.emplace_back(-4, sim_.now().to_seconds());
    }
    sim_.run();  // returns at the stop request
    log_.emplace_back(-5, sim_.now().to_seconds());
    sim_.run_until(at(9000.0));
    sim_.run();
    log_.emplace_back(-6, static_cast<double>(sim_.events_processed()));
    return std::move(log_);
  }

 private:
  static constexpr int kHolders = 8;
  static TimePoint at(double s) { return TimePoint::at(Duration::seconds(s)); }

  class Toy final : public Simulation::SlotHolder {
   public:
    Toy(HolderScenario& scenario, int id) : s_{scenario}, id_{id} {}
    ~Toy() {
      for (int k = 0; k < 2; ++k) disarm(k);
      s_.sim_.withdraw(*this);
    }
    Toy(const Toy&) = delete;
    Toy& operator=(const Toy&) = delete;

    /// (Re)arm slot \p k at \p when, taking one seq either way.
    void arm(int k, TimePoint when) {
      disarm(k);
      Slot& slot = slots_[static_cast<std::size_t>(k)];
      if (s_.queued_) {
        slot.event = s_.sim_.schedule_at(when, [this, k] {
          slots_[static_cast<std::size_t>(k)].armed = false;
          fire(k);
        });
      } else {
        slot.seq = s_.sim_.reserve_seq();
        slot.time = when;
      }
      slot.armed = true;
    }
    void disarm(int k) {
      Slot& slot = slots_[static_cast<std::size_t>(k)];
      if (slot.armed && s_.queued_) s_.sim_.cancel(slot.event);
      slot.armed = false;
    }
    [[nodiscard]] bool idle() const { return !slots_[0].armed && !slots_[1].armed; }
    /// Slots changed outside this holder's own inline run.
    void publish() {
      if (!s_.queued_) s_.sim_.publish(*this);
    }

    void run_inline() override {
      TimePoint when{};
      std::uint64_t seq{0};
      while (earliest_held(when, seq) && s_.sim_.comes_first(when, seq)) {
        const int k = slots_[0].armed && slots_[0].seq == seq ? 0 : 1;
        s_.sim_.advance(when);
        slots_[static_cast<std::size_t>(k)].armed = false;
        fire(k);
      }
    }
    bool earliest_held(TimePoint& when, std::uint64_t& seq) const override {
      const Slot* best = nullptr;
      for (const Slot& slot : slots_) {
        if (slot.armed && (best == nullptr || slot.time < best->time ||
                           (slot.time == best->time && slot.seq < best->seq))) {
          best = &slot;
        }
      }
      if (best == nullptr) return false;
      when = best->time;
      seq = best->seq;
      return true;
    }
    void held_keys(std::vector<HeldKey>& out) override {
      for (Slot& slot : slots_) {
        if (slot.armed) out.push_back({slot.time, &slot.seq});
      }
    }

   private:
    struct Slot {
      bool armed{false};
      TimePoint time{};
      std::uint64_t seq{0};
      EventId event{};
    };

    void fire(int k) {
      s_.log_.emplace_back(2 * id_ + k, s_.sim_.now().to_seconds());
      if (!s_.live()) return;
      if (s_.rng_.bernoulli(0.9)) arm(k, s_.later());
      if (s_.rng_.bernoulli(0.05)) {
        // Arm another holder: it must be seen by the rest of this run.
        Toy& other = s_.pick();
        if (&other != this) {
          other.arm(other.idle() ? 0 : 1, s_.later());
          other.publish();
        }
      }
    }

    HolderScenario& s_;
    int id_;
    std::array<Slot, 2> slots_{};
  };

  [[nodiscard]] bool live() const { return log_.size() < target_; }
  Toy& pick() { return *holders_[rng_.next_below(kHolders)]; }
  /// now + a delay with many exact ties: 0 or 1-4 whole seconds, or a
  /// fraction.
  TimePoint later() {
    const double r = rng_.next_double();
    const double delay = r < 0.1   ? 0.0
                         : r < 0.7 ? static_cast<double>(rng_.uniform_int(1, 4))
                                   : rng_.uniform(0.0, 4.0);
    return sim_.now() + Duration::seconds(delay);
  }

  /// A queued burst: re-key or empty one to three holders in one callback.
  void storm() {
    log_.emplace_back(-1, sim_.now().to_seconds());
    if (!live()) return;
    const auto count = rng_.uniform_int(1, 3);
    for (std::int64_t i = 0; i < count; ++i) {
      Toy& toy = pick();
      const double r = rng_.next_double();
      if (r < 0.2) {
        toy.disarm(0);
        toy.disarm(1);
      } else {
        toy.arm(r < 0.6 ? 0 : 1, later());
      }
      toy.publish();
    }
    sim_.schedule_at(later(), [this] { storm(); });
  }

  bool queued_;
  Pcg32 rng_;
  std::size_t target_;
  Simulation sim_;
  std::vector<std::pair<int, double>> log_;
  std::vector<std::unique_ptr<Toy>> holders_;
};

TEST(SimOracle, SlotHoldersRunInFullyQueuedOrder) {
  for (const std::uint64_t seed : {5U, 6U}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto held = HolderScenario{false, seed, 120000}.run();
    const auto queued = HolderScenario{true, seed, 120000}.run();
    ASSERT_GE(queued.size(), 100000U);
    for (std::size_t i = 0; i < std::min(held.size(), queued.size()); ++i) {
      ASSERT_EQ(held[i], queued[i]) << "first divergence at entry " << i;
    }
    ASSERT_EQ(held.size(), queued.size());
  }
}

// ---- lookahead windows against the fully queued order ----

/// One run of the window scenario. Twelve toy runtimes work through a
/// budget of whole work units in phases drawn from a stream of their own
/// (its own generator, seeded when a job begins): a phase takes at least as
/// many seconds as it does units, in quarter seconds, zero-unit zero-second
/// phases included. A phase that leaves work is private; the one that ends
/// the budget (a completion) and a second "alarm" slot interact, using the
/// scenario's shared generator: a completion may begin a new job or arm
/// another toy's alarm, an alarm may re-arm itself, cut its own phase or
/// re-key it. Toys 0-3 bound their next interacting event exactly (by
/// replaying their stream), toys 4-7 loosely (the key time plus the work
/// left), toys 8-11 not at all. Queued storms re-key or cancel one to three
/// toys (like a failure burst) and queued launches begin a pair of idle
/// toys of one class as twins (the same job, begun back to back). With
/// `queued` set every slot is a plain queued event instead, scheduled where
/// the toy would reserve its seq.
class WindowScenario {
 public:
  struct Logs {
    /// Per toy: (slot, time) of every executed event.
    std::vector<std::vector<std::pair<int, double>>> holders;
    /// (toy or -1, what, time, that toy's executed-event count) of every
    /// interacting event, and of every toy a queued event touches.
    std::vector<std::tuple<int, int, double, std::uint64_t>> interacting;
    std::uint64_t events{0};
  };

  WindowScenario(bool queued, std::uint64_t seed, std::uint64_t target)
      : queued_{queued}, rng_{seed}, target_{target} {
    for (int id = 0; id < kToys; ++id) {
      const auto mode = id < 4 ? Lookahead::kExact : id < 8 ? Lookahead::kLoose : Lookahead::kNone;
      toys_.push_back(std::make_unique<Toy>(*this, id, mode));
    }
  }

  Logs run() {
    for (int id = 0; id < kToys; ++id) {
      Toy& toy = *toys_[static_cast<std::size_t>(id)];
      toy.begin(static_cast<std::uint32_t>(rng_.uniform_int(5, 60)), rng_.next_u64());
      toy.publish();
      toy.arm(1, at(static_cast<double>(rng_.uniform_int(50, 400))));
      toy.publish();
    }
    sim_.schedule_at(at(3.0), [this] { storm(); });
    sim_.schedule_at(at(5.0), [this] { launch(); });
    sim_.schedule_at(at(7000.0), [this] {
      logs_.interacting.emplace_back(-1, 9, sim_.now().to_seconds(), 0);
      sim_.request_stop();
    });
    for (const double until : {600.0, 600.0, 1800.5, 4000.0}) {
      sim_.run_until(at(until));
      logs_.interacting.emplace_back(-1, 8, sim_.now().to_seconds(), 0);
    }
    sim_.run();  // returns at the stop request
    logs_.interacting.emplace_back(-1, 7, sim_.now().to_seconds(), 0);
    sim_.run_until(at(9000.0));
    sim_.run();
    logs_.events = sim_.events_processed();
    for (const auto& toy : toys_) logs_.holders.push_back(toy->log());
    return std::move(logs_);
  }

 private:
  static constexpr int kToys = 12;
  enum class Lookahead { kNone, kLoose, kExact };
  static TimePoint at(double s) { return TimePoint::at(Duration::seconds(s)); }

  class Toy final : public Simulation::SlotHolder {
   public:
    Toy(WindowScenario& scenario, int id, Lookahead mode)
        : s_{scenario}, id_{id}, mode_{mode} {
      if (mode_ != Lookahead::kNone && !s_.queued_) enable_lookahead();
    }
    ~Toy() {
      for (int k = 0; k < 2; ++k) disarm(k);
      s_.sim_.withdraw(*this);
    }
    Toy(const Toy&) = delete;
    Toy& operator=(const Toy&) = delete;

    [[nodiscard]] bool idle() const { return !slots_[0].armed && !slots_[1].armed; }
    [[nodiscard]] std::uint64_t count() const { return count_; }
    [[nodiscard]] const std::vector<std::pair<int, double>>& log() const { return log_; }

    /// Begin a job of \p work units whose phases come from \p stream_seed.
    void begin(std::uint32_t work, std::uint64_t stream_seed) {
      work_ = work;
      stream_ = Pcg32{stream_seed};
      next_phase();
    }
    /// A failure: the current phase starts over, ending \p delay from now.
    void rekey_phase(Duration delay) {
      if (slots_[0].armed) arm(0, s_.sim_.now() + delay);
    }

    /// (Re)arm slot \p k at \p when, taking one seq either way.
    void arm(int k, TimePoint when) {
      disarm(k);
      Slot& slot = slots_[static_cast<std::size_t>(k)];
      if (s_.queued_) {
        slot.event = s_.sim_.schedule_at(when, [this, k] {
          slots_[static_cast<std::size_t>(k)].armed = false;
          fire(k);
        });
      } else {
        slot.seq = s_.sim_.reserve_seq();
      }
      slot.time = when;
      slot.armed = true;
    }
    void disarm(int k) {
      Slot& slot = slots_[static_cast<std::size_t>(k)];
      if (slot.armed && s_.queued_) s_.sim_.cancel(slot.event);
      slot.armed = false;
    }
    /// Slots changed outside this toy's own inline run.
    void publish() {
      if (!s_.queued_) s_.sim_.publish(*this);
    }

    void run_inline() override {
      TimePoint when{};
      std::uint64_t seq{0};
      while (earliest_held(when, seq) && s_.sim_.comes_first(when, seq)) {
        const int k = next_slot();
        s_.sim_.advance(when);
        slots_[static_cast<std::size_t>(k)].armed = false;
        fire(k);
      }
    }
    void run_private(TimePoint bound) override {
      while (slots_[0].armed && slots_[0].time < bound && next_slot() == 0 &&
             work_ > phase_work_) {
        s_.sim_.advance_private(slots_[0].time);
        slots_[0].armed = false;
        fire(0);
      }
    }
    [[nodiscard]] TimePoint quiet_until() const override {
      if (mode_ == Lookahead::kNone) return SlotHolder::quiet_until();
      TimePoint key{};
      std::uint64_t seq{0};
      earliest_held(key, seq);
      if (next_slot() != 0 || work_ <= phase_work_) return key;
      TimePoint quiet = key + Duration::seconds(static_cast<double>(work_ - phase_work_));
      if (mode_ == Lookahead::kExact) {
        // Replay the stream: the completion's own time.
        Pcg32 stream = stream_;
        std::uint32_t work = work_ - phase_work_;
        quiet = key;
        while (work > 0) {
          const Phase phase = draw(stream, work);
          quiet = quiet + phase.length;
          work -= phase.work;
        }
      }
      if (slots_[1].armed && slots_[1].time < quiet) quiet = slots_[1].time;
      return quiet;
    }
    bool earliest_held(TimePoint& when, std::uint64_t& seq) const override {
      if (!slots_[0].armed && !slots_[1].armed) return false;
      const Slot& next = slots_[static_cast<std::size_t>(next_slot())];
      when = next.time;
      seq = next.seq;
      return true;
    }
    void held_keys(std::vector<HeldKey>& out) override {
      for (Slot& slot : slots_) {
        if (slot.armed) out.push_back({slot.time, &slot.seq});
      }
    }

   private:
    struct Slot {
      bool armed{false};
      TimePoint time{};
      std::uint64_t seq{0};
      EventId event{};
    };
    struct Phase {
      std::uint32_t work;
      Duration length;
    };

    /// The next phase of a job with \p left units: at least a second per
    /// unit, in quarter seconds; one in five does no work, and one in
    /// fifteen takes no time.
    static Phase draw(Pcg32& stream, std::uint32_t left) {
      const std::uint32_t work =
          stream.next_below(5) == 0 ? 0 : std::min(left, 1 + stream.next_below(3));
      const std::uint32_t quarters = stream.next_below(4) == 0 ? 0 : stream.next_below(9);
      return Phase{work, Duration::seconds(static_cast<double>(work) + 0.25 * quarters)};
    }
    void next_phase() {
      const Phase phase = draw(stream_, work_);
      phase_work_ = phase.work;
      // A toy that does not look ahead bounds every window by its key:
      // its phases are longer, so that windows still span many events.
      arm(0, s_.sim_.now() + phase.length * (mode_ == Lookahead::kNone ? 16.0 : 1.0));
    }
    /// The held slot whose event comes first by (time, seq).
    [[nodiscard]] int next_slot() const {
      if (!slots_[1].armed) return 0;
      if (!slots_[0].armed) return 1;
      if (slots_[0].time != slots_[1].time) return slots_[0].time < slots_[1].time ? 0 : 1;
      return slots_[0].seq < slots_[1].seq ? 0 : 1;
    }

    void fire(int k) {
      ++count_;
      log_.emplace_back(k, s_.sim_.now().to_seconds());
      if (k == 0 && work_ > phase_work_) {  // private: touches only this toy
        work_ -= phase_work_;
        next_phase();
        return;
      }
      EXPECT_GE(s_.sim_.now(), quiet_bound()) << "toy " << id_;
      s_.logs_.interacting.emplace_back(id_, k, s_.sim_.now().to_seconds(), count_);
      if (k == 0) work_ = 0;
      if (!s_.live()) return;
      const double r = s_.rng_.next_double();
      if (k == 0) {
        if (r < 0.6) {
          begin(static_cast<std::uint32_t>(s_.rng_.uniform_int(10, 100)), s_.rng_.next_u64());
        }
        if (s_.rng_.bernoulli(0.3)) {
          Toy& other = s_.pick();
          if (&other != this) {
            other.arm(1, s_.later(60.0));
            other.publish();
          }
        }
      } else if (r < 0.4) {
        arm(1, s_.later(60.0));
      } else if (r < 0.6) {
        disarm(0);
      } else if (r < 0.8) {
        rekey_phase(s_.later() - s_.sim_.now());
      }
    }

    WindowScenario& s_;
    int id_;
    Lookahead mode_;
    std::array<Slot, 2> slots_{};
    std::uint32_t work_{0};
    std::uint32_t phase_work_{0};
    Pcg32 stream_{0};
    std::uint64_t count_{0};
    std::vector<std::pair<int, double>> log_;

    friend class WindowScenario;
  };

  [[nodiscard]] bool live() const { return sim_.events_processed() < target_; }
  Toy& pick() { return *toys_[rng_.next_below(kToys)]; }
  /// now + \p base + a delay with many exact ties: 0, 1-4 whole seconds or
  /// quarters.
  TimePoint later(double base = 0.0) {
    const double r = rng_.next_double();
    const double delay = r < 0.1   ? 0.0
                         : r < 0.6 ? static_cast<double>(rng_.uniform_int(1, 4))
                                   : 0.25 * static_cast<double>(rng_.uniform_int(1, 16));
    return sim_.now() + Duration::seconds(base + delay);
  }

  /// Log a queued event touching \p toy, with the toy's executed count.
  void touch(Toy& toy, int what) {
    logs_.interacting.emplace_back(toy.id_, what, sim_.now().to_seconds(), toy.count());
  }

  /// A queued burst: re-key or cancel one to three toys in one callback.
  void storm() {
    logs_.interacting.emplace_back(-1, 2, sim_.now().to_seconds(), 0);
    if (!live()) return;
    const auto count = rng_.uniform_int(1, 3);
    for (std::int64_t i = 0; i < count; ++i) {
      Toy& toy = pick();
      touch(toy, 3);
      const double r = rng_.next_double();
      if (r < 0.15) {
        toy.disarm(0);
        toy.disarm(1);
      } else if (r < 0.6) {
        toy.rekey_phase(later() - sim_.now());
      } else {
        toy.arm(1, later(60.0));
      }
      toy.publish();
    }
    sim_.schedule_at(later(30.0), [this] { storm(); });
  }

  /// A queued launch: a pair of idle toys of one class begin as twins.
  void launch() {
    logs_.interacting.emplace_back(-1, 4, sim_.now().to_seconds(), 0);
    if (!live()) return;
    const std::size_t pair = 2 * rng_.next_below(kToys / 2);
    Toy& a = *toys_[pair];
    Toy& b = *toys_[pair + 1];
    const auto work = static_cast<std::uint32_t>(rng_.uniform_int(3, 100));
    const std::uint64_t stream_seed = rng_.next_u64();
    if (a.idle() && b.idle()) {
      touch(a, 5);
      touch(b, 5);
      a.begin(work, stream_seed);
      a.publish();
      b.begin(work, stream_seed);
      b.publish();
    }
    sim_.schedule_at(later(20.0), [this] { launch(); });
  }

  bool queued_;
  Pcg32 rng_;
  std::uint64_t target_;
  Simulation sim_;
  Logs logs_;
  std::vector<std::unique_ptr<Toy>> toys_;
};

TEST(SimOracle, LookaheadWindowsMatchFullyQueuedOrder) {
  for (const std::uint64_t seed : {7U, 8U}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const obs::PerfCounters before = obs::perf_snapshot();
    const auto held = WindowScenario{false, seed, 150000}.run();
    const obs::PerfCounters windowed = obs::perf_delta(before);
    const auto queued = WindowScenario{true, seed, 150000}.run();
    ASSERT_GE(queued.events, 100000U);
    EXPECT_EQ(held.events, queued.events);
    // The held run did run windows: far fewer holder runs than events.
    EXPECT_GT(windowed.events_executed, 2 * windowed.holder_runs);
    ASSERT_EQ(held.holders.size(), queued.holders.size());
    for (std::size_t toy = 0; toy < held.holders.size(); ++toy) {
      const auto& a = held.holders[toy];
      const auto& b = queued.holders[toy];
      for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        ASSERT_EQ(a[i], b[i]) << "toy " << toy << ": first divergence at event " << i;
      }
      ASSERT_EQ(a.size(), b.size()) << "toy " << toy;
    }
    const auto& a = held.interacting;
    const auto& b = queued.interacting;
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      ASSERT_EQ(a[i], b[i]) << "first divergence at interacting entry " << i;
    }
    ASSERT_EQ(a.size(), b.size());
  }
}

}  // namespace
}  // namespace xres
