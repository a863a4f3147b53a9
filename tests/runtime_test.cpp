// Scenario tests for ResilientAppRuntime: hand-crafted plans with
// deterministic failure injections and exact expected timelines.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runtime/app_runtime.hpp"
#include "sim/simulation.hpp"
#include "util/check.hpp"

namespace xres {
namespace {

/// A minimal single-level plan: 100 s of work, checkpoint every 10 s of
/// work at a cost of 2 s, restore 3 s.
ExecutionPlan tiny_plan() {
  ExecutionPlan plan;
  plan.kind = TechniqueKind::kCheckpointRestart;
  plan.app = AppSpec{app_type_by_name("A32"), 10, 100};
  plan.physical_nodes = 10;
  plan.baseline = Duration::seconds(100.0);
  plan.work_target = Duration::seconds(100.0);
  plan.checkpoint_quantum = Duration::seconds(10.0);
  plan.levels = {CheckpointLevelSpec{Duration::seconds(2.0), Duration::seconds(3.0), 3}};
  plan.nesting = {1};
  plan.failure_rate = Rate::zero();
  return plan;
}

struct Harness {
  Simulation sim;
  ExecutionResult result;
  bool finished{false};

  std::unique_ptr<ResilientAppRuntime> make(ExecutionPlan plan, std::uint64_t seed = 1) {
    return std::make_unique<ResilientAppRuntime>(
        sim, std::move(plan), seed, [this](const ExecutionResult& r) {
          result = r;
          finished = true;
        });
  }

  void inject_at(ResilientAppRuntime& rt, double seconds, SeverityLevel severity = 1) {
    sim.schedule_at(TimePoint::at(Duration::seconds(seconds)), [&rt, severity, this] {
      rt.on_failure(Failure{sim.now(), severity});
    });
  }
};

TEST(Runtime, FailureFreeTimelineIsExact) {
  // 10 segments of 10 s; checkpoints after segments 1..9 (the run completes
  // at the 10th boundary without checkpointing): 100 + 9×2 = 118 s.
  Harness h;
  auto rt = h.make(tiny_plan());
  rt->start();
  h.sim.run();
  ASSERT_TRUE(h.finished);
  EXPECT_TRUE(h.result.completed);
  EXPECT_DOUBLE_EQ(h.result.wall_time.to_seconds(), 118.0);
  EXPECT_EQ(h.result.checkpoints_completed, 9U);
  EXPECT_DOUBLE_EQ(h.result.time_working.to_seconds(), 100.0);
  EXPECT_DOUBLE_EQ(h.result.time_checkpointing.to_seconds(), 18.0);
  EXPECT_DOUBLE_EQ(h.result.efficiency, 100.0 / 118.0);
  EXPECT_EQ(h.result.failures_seen, 0U);
  // Energy: 10 nodes busy for the whole 118 s.
  EXPECT_DOUBLE_EQ(h.result.node_seconds, 1180.0);
}

TEST(Runtime, CoincidentCompletionsFollowReservationHistory) {
  // Four runtimes started at t=0 in the order A, B, C, D all complete at
  // t=118. A and D run tiny_plan (ten 10 s segments, 2 s checkpoints).
  // B: 44 s, a 30 s checkpoint, 44 s. C: three 32 s segments with 4 s
  // checkpoints, then 10 s. At a tie the completion whose final segment was
  // reserved first runs first: B's at t=74; C's and A's both at t=108, by
  // checkpoint ends whose own seqs were reserved at t=104 (C) and t=106
  // (A); D's at t=108 after A's (twins keep their start order).
  const auto plan = [](double work, double quantum, double save) {
    ExecutionPlan p = tiny_plan();
    p.baseline = Duration::seconds(work);
    p.work_target = Duration::seconds(work);
    p.checkpoint_quantum = Duration::seconds(quantum);
    p.levels = {CheckpointLevelSpec{Duration::seconds(save), Duration::seconds(3.0), 3}};
    return p;
  };
  Simulation sim;
  std::vector<char> finished;
  std::vector<std::unique_ptr<ResilientAppRuntime>> runtimes;
  const std::vector<std::pair<char, ExecutionPlan>> plans{
      {'A', plan(100.0, 10.0, 2.0)}, {'B', plan(88.0, 44.0, 30.0)},
      {'C', plan(106.0, 32.0, 4.0)}, {'D', plan(100.0, 10.0, 2.0)}};
  for (const auto& [name, p] : plans) {
    runtimes.push_back(std::make_unique<ResilientAppRuntime>(
        sim, p, 1, [&finished, &sim, name = name](const ExecutionResult& r) {
          EXPECT_TRUE(r.completed);
          EXPECT_EQ(sim.now().to_seconds(), 118.0);
          finished.push_back(name);
        }));
  }
  for (auto& rt : runtimes) rt->start();
  sim.run();
  EXPECT_EQ(std::string(finished.begin(), finished.end()), "BCAD");
}

TEST(Runtime, NoneplanRunsAtFullEfficiency) {
  Harness h;
  ExecutionPlan plan = tiny_plan();
  plan.kind = TechniqueKind::kNone;
  plan.levels.clear();
  plan.nesting.clear();
  plan.checkpoint_quantum = Duration::infinity();
  auto rt = h.make(std::move(plan));
  rt->start();
  h.sim.run();
  ASSERT_TRUE(h.finished);
  EXPECT_DOUBLE_EQ(h.result.wall_time.to_seconds(), 100.0);
  EXPECT_DOUBLE_EQ(h.result.efficiency, 1.0);
  EXPECT_EQ(h.result.checkpoints_completed, 0U);
}

TEST(Runtime, FailureDuringWorkRollsBackToLastCheckpoint) {
  // Timeline: w10 c2 (t=12), w10 c2 (t=24), failure at t=25 with progress
  // 21 -> roll back to 20, restart 3 s (t=28), redo 1 s + finish.
  // Total = 118 + 1 (lost work) + 3 (restart) = 122 s.
  Harness h;
  auto rt = h.make(tiny_plan());
  h.inject_at(*rt, 25.0);
  rt->start();
  h.sim.run();
  ASSERT_TRUE(h.finished);
  EXPECT_TRUE(h.result.completed);
  EXPECT_DOUBLE_EQ(h.result.wall_time.to_seconds(), 122.0);
  EXPECT_EQ(h.result.failures_seen, 1U);
  EXPECT_EQ(h.result.rollbacks, 1U);
  EXPECT_DOUBLE_EQ(h.result.rework.to_seconds(), 1.0);
  EXPECT_DOUBLE_EQ(h.result.time_restarting.to_seconds(), 3.0);
  // The lost second is worked twice.
  EXPECT_DOUBLE_EQ(h.result.time_working.to_seconds(), 101.0);
}

TEST(Runtime, FailureDuringCheckpointInvalidatesIt) {
  // The first checkpoint runs t=10..12. A failure at t=11 invalidates it:
  // progress 10 is NOT saved; roll back to 0, restart 3 s (t=14), redo the
  // full 118 s timeline. Wall = 14 + 118 = 132 s.
  Harness h;
  auto rt = h.make(tiny_plan());
  h.inject_at(*rt, 11.0);
  rt->start();
  h.sim.run();
  ASSERT_TRUE(h.finished);
  EXPECT_DOUBLE_EQ(h.result.wall_time.to_seconds(), 132.0);
  EXPECT_EQ(h.result.rollbacks, 1U);
  EXPECT_DOUBLE_EQ(h.result.rework.to_seconds(), 10.0);
  EXPECT_EQ(h.result.checkpoints_completed, 9U);
}

TEST(Runtime, FailureDuringRestartRestartsTheRestart) {
  // First failure at t=25 -> restart until t=28. Second failure at t=26
  // interrupts the restart: roll back again (no extra progress lost) and
  // restart anew: 26 + 3 = 29, then 1 s redo + remaining timeline.
  // Wall = 122 + 1 (failed restart second attempt offset) = 123 s.
  Harness h;
  auto rt = h.make(tiny_plan());
  h.inject_at(*rt, 25.0);
  h.inject_at(*rt, 26.0);
  rt->start();
  h.sim.run();
  ASSERT_TRUE(h.finished);
  EXPECT_DOUBLE_EQ(h.result.wall_time.to_seconds(), 123.0);
  EXPECT_EQ(h.result.rollbacks, 2U);
  EXPECT_DOUBLE_EQ(h.result.rework.to_seconds(), 1.0);  // only lost once
  EXPECT_DOUBLE_EQ(h.result.time_restarting.to_seconds(), 4.0);  // 1 aborted + 3 full
}

TEST(Runtime, MultilevelSeverityChoosesRecoveryLevel) {
  // Two levels: L1 (cov 1, save 1, restore 1) and L2 (cov 2, save 5,
  // restore 5), nesting {2,1}: checkpoints at progress 10 (L1), 20 (L2),
  // 30 (L1), ...
  ExecutionPlan plan = tiny_plan();
  plan.kind = TechniqueKind::kMultilevel;
  plan.levels = {CheckpointLevelSpec{Duration::seconds(1.0), Duration::seconds(1.0), 1},
                 CheckpointLevelSpec{Duration::seconds(5.0), Duration::seconds(5.0), 2}};
  plan.nesting = {2, 1};

  {
    // Severity-1 failure at t=15 (progress 14, after the L1 checkpoint at
    // 10): recovers from L1 at progress 10 with a 1 s restore.
    Harness h;
    auto rt = h.make(plan);
    h.inject_at(*rt, 15.0, 1);
    rt->start();
    h.sim.run();
    ASSERT_TRUE(h.finished);
    EXPECT_DOUBLE_EQ(h.result.rework.to_seconds(), 4.0);
    EXPECT_DOUBLE_EQ(h.result.time_restarting.to_seconds(), 1.0);
  }
  {
    // Severity-2 failure at t=15: the only completed checkpoint is L1,
    // which cannot recover severity 2 -> restart from scratch via L2
    // restore (5 s) with 14 s of rework.
    Harness h;
    auto rt = h.make(plan);
    h.inject_at(*rt, 15.0, 2);
    rt->start();
    h.sim.run();
    ASSERT_TRUE(h.finished);
    EXPECT_DOUBLE_EQ(h.result.rework.to_seconds(), 14.0);
    EXPECT_DOUBLE_EQ(h.result.time_restarting.to_seconds(), 5.0);
  }
  {
    // Severity-2 failure at t=28 (progress 25; L2 completed at progress 20
    // by t=17? timeline: w10 c1 t=11, w10 c5 t=26, fail at t=28 with
    // progress 22): recovers from L2 at progress 20.
    Harness h;
    auto rt = h.make(plan);
    h.inject_at(*rt, 28.0, 2);
    rt->start();
    h.sim.run();
    ASSERT_TRUE(h.finished);
    EXPECT_DOUBLE_EQ(h.result.rework.to_seconds(), 2.0);
    EXPECT_DOUBLE_EQ(h.result.time_restarting.to_seconds(), 5.0);
  }
}

TEST(Runtime, ParallelRecoveryRetainsProgress) {
  // PR plan: restore 3 s, parallelism 2. Failure at t=25 (progress 21,
  // saved 20): recovery = 3 + 1/2 = 3.5 s; progress stays 21.
  // Wall = 118 + 3.5 = 121.5 s.
  ExecutionPlan plan = tiny_plan();
  plan.kind = TechniqueKind::kParallelRecovery;
  plan.rollback_on_failure = false;
  plan.recovery_parallelism = 2.0;
  Harness h;
  auto rt = h.make(std::move(plan));
  h.inject_at(*rt, 25.0);
  rt->start();
  h.sim.run();
  ASSERT_TRUE(h.finished);
  EXPECT_TRUE(h.result.completed);
  EXPECT_DOUBLE_EQ(h.result.wall_time.to_seconds(), 121.5);
  EXPECT_EQ(h.result.rollbacks, 0U);
  EXPECT_DOUBLE_EQ(h.result.rework.to_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(h.result.time_recovering.to_seconds(), 3.5);
  EXPECT_DOUBLE_EQ(h.result.time_working.to_seconds(), 100.0);
  // Energy: 10 nodes for 118 s + 3 active nodes (1 + P) for 3.5 s.
  EXPECT_DOUBLE_EQ(h.result.node_seconds, 1180.0 + 3.0 * 3.5);
}

TEST(Runtime, ParallelRecoveryInterruptedCheckpointIsRetaken) {
  // Failure at t=11 (inside the first checkpoint, t=10..12): PR does not
  // roll back; lost = 10 - 0 = 10 since nothing is saved yet. Recovery =
  // 3 + 10/2 = 8 s (t=19), then the checkpoint is retaken (2 s, t=21),
  // then the remaining 90 s of work + 8 more checkpoints × 2 s.
  // Wall = 21 + 90 + 16 = 127 s.
  ExecutionPlan plan = tiny_plan();
  plan.kind = TechniqueKind::kParallelRecovery;
  plan.rollback_on_failure = false;
  plan.recovery_parallelism = 2.0;
  Harness h;
  auto rt = h.make(std::move(plan));
  h.inject_at(*rt, 11.0);
  rt->start();
  h.sim.run();
  ASSERT_TRUE(h.finished);
  EXPECT_DOUBLE_EQ(h.result.wall_time.to_seconds(), 127.0);
  EXPECT_EQ(h.result.checkpoints_completed, 9U);
}

TEST(Runtime, RedundancyMasksFirstReplicaFailure) {
  // One virtual process, two physical nodes (r = 2): the first failure is
  // always masked (both replicas healthy), the second before any
  // checkpoint exhausts the pair and forces a restart.
  ExecutionPlan plan = tiny_plan();
  plan.kind = TechniqueKind::kRedundancyFull;
  plan.app.nodes = 1;
  plan.physical_nodes = 2;
  plan.replication_degree = 2.0;

  {
    Harness h;
    auto rt = h.make(plan);
    h.inject_at(*rt, 5.0);
    rt->start();
    h.sim.run();
    ASSERT_TRUE(h.finished);
    // Masked: no delay at all.
    EXPECT_DOUBLE_EQ(h.result.wall_time.to_seconds(), 118.0);
    EXPECT_EQ(h.result.failures_seen, 1U);
    EXPECT_EQ(h.result.failures_masked, 1U);
    EXPECT_EQ(h.result.rollbacks, 0U);
  }
  {
    Harness h;
    auto rt = h.make(plan);
    h.inject_at(*rt, 5.0);
    h.inject_at(*rt, 7.0);  // second hit on the surviving replica: fatal
    rt->start();
    h.sim.run();
    ASSERT_TRUE(h.finished);
    EXPECT_EQ(h.result.failures_masked, 1U);
    EXPECT_EQ(h.result.rollbacks, 1U);
    // Lost 7 s of work + 3 s restart.
    EXPECT_DOUBLE_EQ(h.result.wall_time.to_seconds(), 128.0);
  }
  {
    // A completed checkpoint heals the degraded pair: failures at t=5 and
    // t=15 (after the checkpoint at t=12) are both masked.
    Harness h;
    auto rt = h.make(plan);
    h.inject_at(*rt, 5.0);
    h.inject_at(*rt, 15.0);
    rt->start();
    h.sim.run();
    ASSERT_TRUE(h.finished);
    EXPECT_EQ(h.result.failures_masked, 2U);
    EXPECT_EQ(h.result.rollbacks, 0U);
    EXPECT_DOUBLE_EQ(h.result.wall_time.to_seconds(), 118.0);
  }
}

TEST(Runtime, WallTimeCapAborts) {
  ExecutionPlan plan = tiny_plan();
  plan.max_wall_time = Duration::seconds(50.0);
  Harness h;
  auto rt = h.make(std::move(plan));
  rt->start();
  // Stall the run by hammering it with failures that each cost more than
  // they allow progress.
  for (double t = 5.0; t < 200.0; t += 4.0) h.inject_at(*rt, t);
  h.sim.run();
  ASSERT_TRUE(h.finished);
  EXPECT_FALSE(h.result.completed);
  EXPECT_DOUBLE_EQ(h.result.efficiency, 0.0);
  EXPECT_DOUBLE_EQ(h.result.wall_time.to_seconds(), 50.0);
  EXPECT_EQ(rt->phase(), ResilientAppRuntime::Phase::kAborted);
}

TEST(Runtime, ExternalAbortStopsSilently) {
  Harness h;
  auto rt = h.make(tiny_plan());
  rt->start();
  h.sim.schedule_at(TimePoint::at(Duration::seconds(30.0)), [&] { rt->abort(); });
  h.sim.run();
  EXPECT_FALSE(h.finished);  // no completion callback on external abort
  EXPECT_EQ(rt->phase(), ResilientAppRuntime::Phase::kAborted);
  EXPECT_FALSE(rt->result().completed);
}

TEST(Runtime, FailuresAfterCompletionAreIgnored) {
  Harness h;
  auto rt = h.make(tiny_plan());
  rt->start();
  h.sim.run();
  ASSERT_TRUE(h.finished);
  const ExecutionResult before = rt->result();
  rt->on_failure(Failure{h.sim.now(), 1});
  EXPECT_EQ(rt->result().failures_seen, before.failures_seen);
}

TEST(Runtime, ProgressFractionAndPhaseNames) {
  Harness h;
  auto rt = h.make(tiny_plan());
  EXPECT_STREQ(rt->phase_name(), "idle");
  rt->start();
  EXPECT_STREQ(rt->phase_name(), "working");
  h.sim.run_until(TimePoint::at(Duration::seconds(12.0)));
  EXPECT_NEAR(rt->progress_fraction(), 0.1, 1e-12);
  h.sim.run();
  EXPECT_STREQ(rt->phase_name(), "done");
  EXPECT_DOUBLE_EQ(rt->progress_fraction(), 1.0);
}

// Tie-break at the first checkpoint's completion (t=12, right after its
// work segment): which of two events at the same instant fires first is
// decided by insertion order alone.
TEST(Runtime, FailureQueuedBeforeStartPreemptsTiedCheckpoint) {
  // The failure was queued before the runtime's phases, so it fires first
  // and invalidates the checkpoint: progress 10 rolls back to 0, restart
  // 3 s (t=15), then the full 118 s timeline. Wall = 15 + 118 = 133 s.
  Harness h;
  auto rt = h.make(tiny_plan());
  h.inject_at(*rt, 12.0);
  rt->start();
  h.sim.run();
  ASSERT_TRUE(h.finished);
  EXPECT_DOUBLE_EQ(h.result.wall_time.to_seconds(), 133.0);
  EXPECT_EQ(h.result.rollbacks, 1U);
  EXPECT_DOUBLE_EQ(h.result.rework.to_seconds(), 10.0);
  EXPECT_EQ(h.result.checkpoints_completed, 9U);
  EXPECT_DOUBLE_EQ(h.result.time_working.to_seconds(), 110.0);
  EXPECT_DOUBLE_EQ(h.result.time_checkpointing.to_seconds(), 20.0);
  EXPECT_DOUBLE_EQ(h.result.time_restarting.to_seconds(), 3.0);
}

TEST(Runtime, FailureQueuedAfterCheckpointFollowsIt) {
  // An event at t=10, queued after start(), injects the failure for t=12
  // only after the checkpoint completion was scheduled, so the checkpoint
  // completes first: progress 10 is saved, the failure costs no rework,
  // and the run pays just the 3 s restart. Wall = 118 + 3 = 121 s.
  Harness h;
  auto rt = h.make(tiny_plan());
  rt->start();
  h.sim.schedule_at(TimePoint::at(Duration::seconds(10.0)),
                    [&] { h.inject_at(*rt, 12.0); });
  h.sim.run();
  ASSERT_TRUE(h.finished);
  EXPECT_DOUBLE_EQ(h.result.wall_time.to_seconds(), 121.0);
  EXPECT_EQ(h.result.rollbacks, 1U);
  EXPECT_DOUBLE_EQ(h.result.rework.to_seconds(), 0.0);
  EXPECT_EQ(h.result.checkpoints_completed, 9U);
  EXPECT_DOUBLE_EQ(h.result.time_working.to_seconds(), 100.0);
  EXPECT_DOUBLE_EQ(h.result.time_checkpointing.to_seconds(), 18.0);
  EXPECT_DOUBLE_EQ(h.result.time_restarting.to_seconds(), 3.0);
}

TEST(Runtime, RunUntilStopsTwoRuntimesMidCheckpoint) {
  // Both runtimes finish their first work segment at t=10 and are inside
  // the first checkpoint (t=10..12) when run_until(11 s) returns.
  Simulation sim;
  int finished = 0;
  const auto done = [&finished](const ExecutionResult&) { ++finished; };
  ResilientAppRuntime a{sim, tiny_plan(), 1, done};
  ResilientAppRuntime b{sim, tiny_plan(), 2, done};
  a.start();
  b.start();
  sim.run_until(TimePoint::at(Duration::seconds(11.0)));
  EXPECT_EQ(sim.now(), TimePoint::at(Duration::seconds(11.0)));
  for (const ResilientAppRuntime* rt : {&a, &b}) {
    EXPECT_STREQ(rt->phase_name(), "checkpointing");
    EXPECT_EQ(rt->result().checkpoints_completed, 0U);
    EXPECT_DOUBLE_EQ(rt->result().time_working.to_seconds(), 10.0);
    EXPECT_EQ(rt->progress_fraction(), 0.1);
  }
  sim.run();
  EXPECT_EQ(finished, 2);
  EXPECT_DOUBLE_EQ(a.result().wall_time.to_seconds(), 118.0);
  EXPECT_DOUBLE_EQ(b.result().wall_time.to_seconds(), 118.0);
}

// Two runtimes whose phases tie at every instant run in the order their
// seqs were reserved: the one that reserved first completes first.
/// The order and times in which runtimes sharing one Simulation complete.
struct CompletionLog {
  explicit CompletionLog(Simulation& s) : sim{s} {}

  Simulation& sim;
  std::string order;
  std::vector<double> times;

  ResilientAppRuntime::CompletionCallback on(char name) {
    return [this, name](const ExecutionResult&) {
      order += name;
      times.push_back(sim.now().to_seconds());
    };
  }
};

TEST(Runtime, TiedRuntimesCompleteInReservationOrder) {
  Simulation sim;
  CompletionLog log{sim};
  ResilientAppRuntime a{sim, tiny_plan(), 1, log.on('a')};
  ResilientAppRuntime b{sim, tiny_plan(), 2, log.on('b')};
  a.start();
  b.start();
  sim.run();
  EXPECT_EQ(log.order, "ab");
  EXPECT_EQ(log.times, (std::vector<double>{118.0, 118.0}));
}

TEST(Runtime, FailureDeliveryOrderDecidesTiedRestarts) {
  // One queued callback at t=5 fails b, then a: b's restart reserves its
  // seq first, so b now leads every tie. Each loses 5 s of work and pays a
  // 3 s restart: both complete at 5 + 3 + 118 = 126 s, b first.
  Simulation sim;
  CompletionLog log{sim};
  ResilientAppRuntime a{sim, tiny_plan(), 1, log.on('a')};
  ResilientAppRuntime b{sim, tiny_plan(), 2, log.on('b')};
  a.start();
  b.start();
  sim.schedule_at(TimePoint::at(Duration::seconds(5.0)), [&] {
    b.on_failure(Failure{sim.now(), 1});
    a.on_failure(Failure{sim.now(), 1});
  });
  sim.run();
  EXPECT_EQ(log.order, "ba");
  EXPECT_EQ(log.times, (std::vector<double>{126.0, 126.0}));
  for (const ResilientAppRuntime* rt : {&a, &b}) {
    EXPECT_EQ(rt->result().rollbacks, 1U);
    EXPECT_DOUBLE_EQ(rt->result().rework.to_seconds(), 5.0);
    EXPECT_DOUBLE_EQ(rt->result().wall_time.to_seconds(), 126.0);
  }
}

TEST(Runtime, StartTwiceThrows) {
  Harness h;
  auto rt = h.make(tiny_plan());
  rt->start();
  EXPECT_THROW(rt->start(), CheckError);
}

TEST(Runtime, InfeasiblePlanRefusesToStart) {
  ExecutionPlan plan = tiny_plan();
  plan.feasible = false;
  Harness h;
  auto rt = h.make(std::move(plan));
  EXPECT_THROW(rt->start(), CheckError);
}

}  // namespace
}  // namespace xres
