// Unit tests for the event queue and simulation engine.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"
#include "util/check.hpp"

namespace xres {
namespace {

TimePoint at(double s) { return TimePoint::at(Duration::seconds(s)); }

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(at(3.0), [&] { order.push_back(3); });
  q.schedule(at(1.0), [&] { order.push_back(1); });
  q.schedule(at(2.0), [&] { order.push_back(2); });
  while (auto e = q.pop()) e->callback();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(at(5.0), [&] { order.push_back(1); });
  q.schedule(at(5.0), [&] { order.push_back(2); });
  q.schedule(at(5.0), [&] { order.push_back(3); });
  while (auto e = q.pop()) e->callback();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CancelPreventsDelivery) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(at(1.0), [&] { order.push_back(1); });
  const EventId doomed = q.schedule(at(2.0), [&] { order.push_back(2); });
  q.schedule(at(3.0), [&] { order.push_back(3); });
  EXPECT_TRUE(q.pending(doomed));
  EXPECT_TRUE(q.cancel(doomed));
  EXPECT_FALSE(q.pending(doomed));
  EXPECT_FALSE(q.cancel(doomed));  // second cancel is a no-op
  while (auto e = q.pop()) e->callback();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule(at(1.0), [] {});
  q.schedule(at(2.0), [] {});
  EXPECT_EQ(q.size(), 2U);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1U);
  EXPECT_EQ(q.next_time(), at(2.0));
  EXPECT_TRUE(q.pop().has_value());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.next_time().has_value());
}

TEST(EventQueue, RejectsEmptyCallback) {
  EventQueue q;
  EXPECT_THROW(q.schedule(at(1.0), EventCallback{}), CheckError);
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  // Regression: the runtime holds on to completion-event ids across
  // failures; cancelling one whose event already fired must be a safe
  // no-op, not a hit on whatever reused the slot.
  EventQueue q;
  const EventId id = q.schedule(at(1.0), [] {});
  const auto fired = q.pop();
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->id, id);
  EXPECT_FALSE(q.pending(id));
  EXPECT_FALSE(q.cancel(id));
  // The slot is recycled by the next schedule; the stale id must still be
  // rejected rather than cancelling the new occupant.
  const EventId fresh = q.schedule(at(2.0), [] {});
  EXPECT_FALSE(q.pending(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_TRUE(q.pending(fresh));
  EXPECT_EQ(q.size(), 1U);
}

TEST(EventQueue, ForeignQueueIdIsRejected) {
  // Regression: pending()/cancel() with another queue's id (or a
  // value-initialized one) must be safe and answer false, whatever state
  // either queue is in.
  EventQueue a;
  EventQueue b;
  const EventId in_a = a.schedule(at(1.0), [] {});
  b.schedule(at(1.0), [] {});
  EXPECT_FALSE(b.pending(in_a));
  EXPECT_FALSE(b.cancel(in_a));
  EXPECT_FALSE(a.pending(EventId{}));
  EXPECT_FALSE(a.cancel(EventId{}));
  EXPECT_TRUE(a.pending(in_a));  // still live in its own queue
  EXPECT_EQ(b.size(), 1U);
}

TEST(EventQueue, StaleIdStaysDeadAcrossSlotReuse) {
  // Cancel an event, then keep recycling its slot: every older handle for
  // the slot must remain dead while the current one works.
  EventQueue q;
  const EventId first = q.schedule(at(1.0), [] {});
  ASSERT_TRUE(q.cancel(first));
  std::vector<EventId> stale{first};
  for (int round = 0; round < 16; ++round) {
    const EventId current = q.schedule(at(1.0 + round), [] {});
    for (const EventId old : stale) {
      EXPECT_FALSE(q.pending(old));
      EXPECT_FALSE(q.cancel(old));
    }
    EXPECT_TRUE(q.pending(current));
    if (round % 2 == 0) {
      ASSERT_TRUE(q.cancel(current));
    } else {
      const auto fired = q.pop();
      ASSERT_TRUE(fired.has_value());
      EXPECT_EQ(fired->id, current);
    }
    stale.push_back(current);
  }
  EXPECT_TRUE(q.empty());
}

TEST(Simulation, ClockAdvancesWithEvents) {
  Simulation sim;
  EXPECT_EQ(sim.now(), TimePoint::origin());
  std::vector<double> times;
  sim.schedule_after(Duration::seconds(10.0), [&] { times.push_back(sim.now().to_seconds()); });
  sim.schedule_at(at(5.0), [&] { times.push_back(sim.now().to_seconds()); });
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{5.0, 10.0}));
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 10.0);
  EXPECT_EQ(sim.events_processed(), 2U);
}

TEST(Simulation, SchedulingInPastThrows) {
  Simulation sim;
  sim.schedule_at(at(5.0), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(at(1.0), [] {}), CheckError);
  EXPECT_THROW(sim.schedule_after(Duration::seconds(-1.0), [] {}), CheckError);
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(at(1.0), [&] {
    ++fired;
    sim.schedule_after(Duration::seconds(1.0), [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 2.0);
}

TEST(Simulation, RunUntilAdvancesClockPastLastEvent) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(at(3.0), [&] { ++fired; });
  sim.schedule_at(at(8.0), [&] { ++fired; });
  sim.run_until(at(5.0));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 5.0);
  EXPECT_EQ(sim.pending_events(), 1U);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, RequestStopHaltsRun) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(at(1.0), [&] {
    ++fired;
    sim.request_stop();
  });
  sim.schedule_at(at(2.0), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1U);
  sim.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, MaxEventsGuard) {
  Simulation sim;
  int fired = 0;
  // Self-perpetuating event chain.
  std::function<void()> tick = [&] {
    ++fired;
    sim.schedule_after(Duration::seconds(1.0), tick);
  };
  sim.schedule_after(Duration::seconds(1.0), tick);
  sim.run(/*max_events=*/25);
  EXPECT_EQ(fired, 25);
}

TEST(Simulation, CancelScheduledEvent) {
  Simulation sim;
  int fired = 0;
  const EventId id = sim.schedule_at(at(4.0), [&] { ++fired; });
  sim.schedule_at(at(1.0), [&] { sim.cancel(id); });
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 1.0);
}

TEST(Simulation, DeterministicTieOrderWithCancellation) {
  // A cancelled event between two live ones at the same time must not
  // disturb the deterministic order.
  Simulation sim;
  std::string log;
  sim.schedule_at(at(1.0), [&] { log += 'a'; });
  const EventId b = sim.schedule_at(at(1.0), [&] { log += 'b'; });
  sim.schedule_at(at(1.0), [&] { log += 'c'; });
  sim.cancel(b);
  sim.run();
  EXPECT_EQ(log, "ac");
}

/// A slot holder with one event, held at the time it is armed with.
class OneShotHolder final : public Simulation::SlotHolder {
 public:
  OneShotHolder(Simulation& sim, TimePoint when) : sim_{sim}, time_{when} {
    seq_ = sim_.reserve_seq();
    sim_.publish(*this);
  }
  ~OneShotHolder() { sim_.withdraw(*this); }
  OneShotHolder(const OneShotHolder&) = delete;
  OneShotHolder& operator=(const OneShotHolder&) = delete;

  void run_inline() override {
    if (!held_ || !sim_.comes_first(time_, seq_)) return;
    sim_.advance(time_);
    held_ = false;
  }
  bool earliest_held(TimePoint& when, std::uint64_t& seq) const override {
    when = time_;
    seq = seq_;
    return held_;
  }
  void held_keys(std::vector<HeldKey>& out) override {
    if (held_) out.push_back({time_, &seq_});
  }

 private:
  Simulation& sim_;
  TimePoint time_;
  std::uint64_t seq_{0};
  bool held_{true};
};

TEST(Simulation, BoundTimeResetsAfterHolderRun) {
  // The root holder runs bounded by the best other holder; once its run
  // ends that bound no longer applies, so a queued callback between two
  // holder runs must see no bound at all.
  Simulation sim;
  OneShotHolder first{sim, at(1.0)};
  OneShotHolder second{sim, at(10.0)};
  TimePoint seen{};
  sim.schedule_at(at(2.5), [&] { seen = sim.bound_time(); });
  sim.run();
  EXPECT_EQ(seen.to_seconds(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(sim.events_processed(), 3U);
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 10.0);
}

}  // namespace
}  // namespace xres
