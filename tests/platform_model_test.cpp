// Tests for the pluggable platform layer: Eq. 3/5/6 boundary cases pinned
// to hand-computed constants, flat/fattree convergence and divergence, the
// PFS device in both shapes (queued and processor-sharing) and its
// contention effect on runtimes and the workload engine, topology-aware
// allocation, and the `--platform.*` parameter materialization/validation
// path.

#include <gtest/gtest.h>

#include "core/workload_engine.hpp"
#include "platform/allocator.hpp"
#include "platform/fattree.hpp"
#include "platform/platform_model.hpp"
#include "platform/spec.hpp"
#include "platform/transfer.hpp"
#include "runtime/app_runtime.hpp"
#include "sim/pfs_device.hpp"
#include "study/platform_params.hpp"
#include "util/check.hpp"

namespace xres {
namespace {

Bandwidth bps(double v) { return Bandwidth::bytes_per_second(v); }

/// A machine with clean round numbers: N_m = 100 B, B_M = 20 B/s,
/// B_N = 10 B/s, N_S = 4, L = 0.
MachineSpec tiny_machine(double latency_us = 0.0) {
  MachineSpec machine = MachineSpec::testbed(64);
  machine.node.memory = DataSize::bytes(100.0);
  machine.node.memory_bandwidth = bps(20.0);
  machine.network.bandwidth = bps(10.0);
  machine.network.switch_connections = 4;
  machine.network.latency = Duration::microseconds(latency_us);
  return machine;
}

/// The fat tree's shape: FIFO admission to \p channels channels of
/// \p channel_bps each.
PfsDeviceShape queued_device(std::uint32_t channels, double channel_bps) {
  const Bandwidth aggregate = bps(channel_bps * static_cast<double>(channels));
  return PfsDeviceShape{channels, aggregate, aggregate};
}

/// The flat platform's shared-channel shape: unbounded admission, total
/// \p capacity and per-stream cap \p stream.
PfsDeviceShape shared_channel(double capacity, double stream) {
  return PfsDeviceShape{0, bps(capacity), bps(stream)};
}

/// A request with topology information: \p bytes under \p cap, nominally
/// \p nominal_s seconds.
TransferRequest sized(double bytes, double cap, double nominal_s) {
  TransferRequest request;
  request.nominal = Duration::seconds(nominal_s);
  request.bytes = DataSize::bytes(bytes);
  request.rate_cap = bps(cap);
  return request;
}

/// A request as the flat platform issues it: only a nominal duration, which
/// the device converts to bytes at its stream rate \p stream.
TransferRequest flat_request(double bytes, double stream) {
  TransferRequest request;
  request.nominal = Duration::seconds(bytes / stream);
  return request;
}

// --- Eq. 3/5/6 boundary cases, hand-computed ------------------------------

TEST(TransferEquations, Eq3OneNodeApplication) {
  // T = (N_m / B_N) · (N_a / N_S) = (100/10) · (1/4) = 2.5 s.
  const MachineSpec m = tiny_machine();
  EXPECT_DOUBLE_EQ(
      pfs_checkpoint_time(m.node.memory, 1, m.network).to_seconds(), 2.5);
}

TEST(TransferEquations, Eq3AppAtAndBelowChannelCount) {
  const MachineSpec m = tiny_machine();
  // N_a == N_S: the contention factor is exactly 1 → N_m / B_N = 10 s.
  EXPECT_DOUBLE_EQ(
      pfs_checkpoint_time(m.node.memory, 4, m.network).to_seconds(), 10.0);
  // N_a = 2 < N_S: half the full-leaf time.
  EXPECT_DOUBLE_EQ(
      pfs_checkpoint_time(m.node.memory, 2, m.network).to_seconds(), 5.0);
  // N_a = 8 = 2 N_S: contention doubles the time.
  EXPECT_DOUBLE_EQ(
      pfs_checkpoint_time(m.node.memory, 8, m.network).to_seconds(), 20.0);
}

TEST(TransferEquations, Eq5LocalMemory) {
  // T = N_m / B_M = 100 / 20 = 5 s, independent of N_a.
  const MachineSpec m = tiny_machine();
  EXPECT_DOUBLE_EQ(
      local_memory_checkpoint_time(m.node.memory, m.node).to_seconds(), 5.0);
}

TEST(TransferEquations, Eq6PartnerCopyZeroLatency) {
  // T = 2 (T_L1 + L + N_m / B_M) with L = 0: 2 (5 + 0 + 5) = 20 s.
  const MachineSpec m = tiny_machine();
  EXPECT_DOUBLE_EQ(
      partner_copy_checkpoint_time(m.node.memory, m.node, m.network).to_seconds(),
      20.0);
}

TEST(TransferEquations, Eq6PartnerCopyWithLatency) {
  // L = 0.5 s → 2 (5 + 0.5 + 5) = 21 s.
  const MachineSpec m = tiny_machine(0.5 * 1e6);
  EXPECT_DOUBLE_EQ(
      partner_copy_checkpoint_time(m.node.memory, m.node, m.network).to_seconds(),
      21.0);
}

// --- FlatPlatformModel: bit-identical delegation --------------------------

TEST(FlatPlatformModel, DelegatesToClosedForms) {
  const MachineSpec m = tiny_machine(0.5 * 1e6);
  const FlatPlatformModel model{m};
  for (std::uint32_t nodes : {1U, 2U, 4U, 8U, 64U}) {
    EXPECT_EQ(model.pfs_transfer_time(m.node.memory, nodes).to_seconds(),
              pfs_checkpoint_time(m.node.memory, nodes, m.network).to_seconds());
  }
  EXPECT_EQ(model.local_memory_time(m.node.memory).to_seconds(),
            local_memory_checkpoint_time(m.node.memory, m.node).to_seconds());
  EXPECT_EQ(model.partner_copy_time(m.node.memory).to_seconds(),
            partner_copy_checkpoint_time(m.node.memory, m.node, m.network)
                .to_seconds());
  // Effective bandwidth is B_N · N_S regardless of application size.
  EXPECT_DOUBLE_EQ(model.pfs_effective_bandwidth(1).to_bytes_per_second(), 40.0);
  EXPECT_DOUBLE_EQ(model.pfs_effective_bandwidth(64).to_bytes_per_second(), 40.0);
  EXPECT_DOUBLE_EQ(model.pfs_rate_cap_for_range(17, 3).to_bytes_per_second(), 40.0);
}

TEST(PlatformFactory, SelectsModelByKind) {
  MachineSpec m = tiny_machine();
  EXPECT_STREQ(make_platform_model(m)->name(), "flat");
  m.platform.model = PlatformModelKind::kFattree;
  EXPECT_STREQ(make_platform_model(m)->name(), "fattree");
}

TEST(PlatformFactory, DeviceShapeFollowsModel) {
  MachineSpec m = tiny_machine();  // B_N = 10, N_S = 4
  // Flat without gateways: the paper's independent PFS, no device.
  EXPECT_FALSE(make_platform_model(m)->pfs_device().has_value());
  // Flat with g gateways: processor sharing of g · B_N · N_S, each stream
  // capped at B_N · N_S.
  m.platform.pfs_gateways = 3;
  const auto shared = make_platform_model(m)->pfs_device();
  ASSERT_TRUE(shared.has_value());
  EXPECT_EQ(shared->admission, 0U);
  EXPECT_DOUBLE_EQ(shared->aggregate.to_bytes_per_second(), 120.0);
  EXPECT_DOUBLE_EQ(shared->stream_rate.to_bytes_per_second(), 40.0);
  // Fat tree: FIFO admission to N_S (or platform.pfs.channels) channels
  // of B_N.
  m.platform.pfs_gateways = 0;
  m.platform.model = PlatformModelKind::kFattree;
  const auto queued = make_platform_model(m)->pfs_device();
  ASSERT_TRUE(queued.has_value());
  EXPECT_EQ(queued->admission, 4U);
  EXPECT_DOUBLE_EQ(queued->aggregate.to_bytes_per_second(), 40.0);
  EXPECT_DOUBLE_EQ(queued->stream_rate.to_bytes_per_second(), 40.0);
  m.platform.fattree.pfs_channels = 2;
  const auto two_channels = make_platform_model(m)->pfs_device();
  ASSERT_TRUE(two_channels.has_value());
  EXPECT_EQ(two_channels->admission, 2U);
  EXPECT_DOUBLE_EQ(two_channels->aggregate.to_bytes_per_second(), 20.0);
  // Gateways are a flat-only option.
  m.platform.pfs_gateways = 1;
  EXPECT_THROW(m.validate(), CheckError);
}

TEST(PlatformSpec, DescribeSuffixOnlyWhenNonFlat) {
  // The flat default must leave MachineSpec::describe() byte-identical to
  // the pre-topology rendering (artifact compatibility).
  MachineSpec m = MachineSpec::exascale();
  const std::string flat = m.describe();
  EXPECT_EQ(flat.find("platform="), std::string::npos);
  m.platform.model = PlatformModelKind::kFattree;
  EXPECT_NE(m.describe().find("platform=fattree"), std::string::npos);
}

// --- Fat tree: convergence and divergence vs. Eq. 3 -----------------------

TEST(FatTree, ConvergesToFlatWhenUncongested) {
  // Contiguous N_a ≥ N_S: injection ≥ N_S · B_N, the device aggregate
  // binds, and the fat-tree time equals Eq. 3 within 1% (here exactly).
  MachineSpec m = MachineSpec::exascale();
  m.platform.model = PlatformModelKind::kFattree;
  const FatTreePlatformModel model{m};
  for (std::uint32_t nodes : {12U, 24U, 1200U, 60000U}) {
    const double flat =
        pfs_checkpoint_time(m.node.memory, nodes, m.network).to_seconds();
    const double tree = model.pfs_transfer_time(m.node.memory, nodes).to_seconds();
    EXPECT_NEAR(tree, flat, flat * 0.01) << nodes << " nodes";
  }
}

TEST(FatTree, SmallAppIsInjectionBound) {
  // N_a < N_S: the application's own links bind before the device, so it
  // is N_S / N_a slower than Eq. 3 — the emergent divergence.
  MachineSpec m = MachineSpec::exascale();
  m.platform.model = PlatformModelKind::kFattree;
  const FatTreePlatformModel model{m};
  const double flat =
      pfs_checkpoint_time(m.node.memory, 3, m.network).to_seconds();
  const double tree = model.pfs_transfer_time(m.node.memory, 3).to_seconds();
  EXPECT_NEAR(tree / flat, 12.0 / 3.0, 1e-9);
}

TEST(FatTree, TaperCapsUpperLevels) {
  // 64 nodes, radix 4, taper 0.5, N_S = 4, B_N = 10. Uplink levels cover
  // subtrees strictly smaller than the machine (the root's hop to the PFS
  // is the device): level 1 uplink 4·10·1 = 40, level 2 = 20.
  // A contiguous 16-node app fills one level-2 subtree: injection =
  // min(16·10, 4·40, 1·20) = 20 B/s.
  MachineSpec m = tiny_machine();
  m.platform.model = PlatformModelKind::kFattree;
  m.platform.fattree.leaf_radix = 4;
  m.platform.fattree.taper = 0.5;
  const FatTreeTopology topo{64, m.network, m.platform.fattree};
  EXPECT_EQ(topo.levels(), 2U);
  EXPECT_DOUBLE_EQ(topo.uplink(1).to_bytes_per_second(), 40.0);
  EXPECT_DOUBLE_EQ(topo.uplink(2).to_bytes_per_second(), 20.0);
  EXPECT_EQ(topo.spanned_subtrees(1, 0, 16), 4U);
  EXPECT_EQ(topo.spanned_subtrees(2, 0, 16), 1U);
  EXPECT_DOUBLE_EQ(topo.injection_bandwidth(0, 16).to_bytes_per_second(), 20.0);
}

TEST(FatTree, PlacementChangesRateCap) {
  // Same machine as above: an 8-node app packed inside one level-2 subtree
  // drains through that subtree's 20 B/s uplink; straddling two level-2
  // subtrees doubles the available level-2 capacity to 40.
  MachineSpec m = tiny_machine();
  m.platform.model = PlatformModelKind::kFattree;
  m.platform.fattree.leaf_radix = 4;
  m.platform.fattree.taper = 0.5;
  const FatTreeTopology topo{64, m.network, m.platform.fattree};
  EXPECT_DOUBLE_EQ(topo.injection_bandwidth(0, 8).to_bytes_per_second(), 20.0);
  EXPECT_DOUBLE_EQ(topo.injection_bandwidth(12, 8).to_bytes_per_second(), 40.0);
}

// --- Queued PFS device (the fat tree's shape) -----------------------------

TEST(PfsDevice, FifoAdmissionAndFairShare) {
  // 2 channels × 10 B/s. Three 100-byte transfers, each rate-capped at 10:
  // A and B are admitted (10 B/s each), C waits. A and B complete at 10 s;
  // C then runs alone at its 10 B/s cap and completes at 20 s.
  Simulation sim;
  PfsDevice device{sim, queued_device(2, 10.0)};
  std::vector<double> done(3, -1.0);
  for (int i = 0; i < 3; ++i) {
    device.begin_transfer(sized(100.0, 10.0, 10.0),
                          [&done, i, &sim] { done[i] = sim.now().to_seconds(); });
  }
  EXPECT_EQ(device.in_service(), 2U);
  EXPECT_EQ(device.queued(), 1U);
  sim.run();
  EXPECT_NEAR(done[0], 10.0, 1e-6);
  EXPECT_NEAR(done[1], 10.0, 1e-6);
  EXPECT_NEAR(done[2], 20.0, 1e-6);
  EXPECT_EQ(device.completed_transfers(), 3U);
  // Divergence accounting: 10 + 10 + 20 measured vs. 3 × 10 nominal.
  EXPECT_NEAR(device.measured_seconds(), 40.0, 1e-6);
  EXPECT_NEAR(device.nominal_seconds(), 30.0, 1e-6);
}

TEST(PfsDevice, UncappedTransfersShareAggregate) {
  // 2 channels × 10 B/s = 20 aggregate; two uncapped transfers run at 10
  // each, and the survivor speeds to 20 when the first completes.
  Simulation sim;
  PfsDevice device{sim, queued_device(2, 10.0)};
  double small_done = -1.0;
  double big_done = -1.0;
  device.begin_transfer(sized(300.0, 1e9, 1.0), [&] { big_done = sim.now().to_seconds(); });
  device.begin_transfer(sized(100.0, 1e9, 1.0), [&] { small_done = sim.now().to_seconds(); });
  sim.run();
  // Small: 100 B at 10 B/s → 10 s. Big: 100 B by t=10, then 200 B at 20.
  EXPECT_NEAR(small_done, 10.0, 1e-6);
  EXPECT_NEAR(big_done, 20.0, 1e-6);
}

TEST(PfsDevice, CancelQueuedAndActive) {
  Simulation sim;
  PfsDevice device{sim, queued_device(1, 10.0)};
  bool active_done = false;
  bool queued_done = false;
  double survivor_done = -1.0;
  const auto active_id =
      device.begin_transfer(sized(100.0, 10.0, 10.0), [&] { active_done = true; });
  const auto survivor_id = device.begin_transfer(
      sized(100.0, 10.0, 10.0), [&] { survivor_done = sim.now().to_seconds(); });
  const auto queued_id =
      device.begin_transfer(sized(100.0, 10.0, 10.0), [&] { queued_done = true; });
  (void)survivor_id;
  EXPECT_TRUE(device.cancel(queued_id));
  EXPECT_TRUE(device.cancel(active_id));
  EXPECT_FALSE(device.cancel(active_id));  // already cancelled
  sim.run();
  EXPECT_FALSE(active_done);
  EXPECT_FALSE(queued_done);
  // The survivor was admitted when the active transfer was cancelled and
  // ran the full 100 bytes at 10 B/s from t = 0.
  EXPECT_NEAR(survivor_done, 10.0, 1e-6);
  EXPECT_EQ(device.completed_transfers(), 1U);
}

// --- Shared channel (the flat platform's shape) ---------------------------
//
// PlatformSpec::pfs_gateways = g gives the flat platform a PfsDevice with
// unbounded admission, total capacity g · B_N · N_S and per-stream cap
// B_N · N_S: n concurrent transfers each progress at min(cap, capacity / n),
// the egalitarian processor-sharing queue.

TEST(SharedChannel, LoneTransferRunsAtPerStreamCap) {
  Simulation sim;
  PfsDevice channel{sim, shared_channel(100.0, 10.0)};
  double done_at = -1.0;
  channel.begin_transfer(flat_request(50.0, 10.0), [&] { done_at = sim.now().to_seconds(); });
  EXPECT_EQ(channel.in_service(), 1U);
  sim.run();
  EXPECT_DOUBLE_EQ(done_at, 5.0);  // 50 bytes at 10 B/s
  EXPECT_EQ(channel.completed_transfers(), 1U);
}

TEST(SharedChannel, CapacitySharedBeyondSaturation) {
  // Capacity 20, cap 10: two transfers still run at 10 each; four run at 5.
  Simulation sim;
  PfsDevice channel{sim, shared_channel(20.0, 10.0)};
  std::vector<double> done;
  for (int i = 0; i < 4; ++i) {
    channel.begin_transfer(flat_request(100.0, 10.0),
                           [&] { done.push_back(sim.now().to_seconds()); });
  }
  // Unbounded admission: nothing waits.
  EXPECT_EQ(channel.in_service(), 4U);
  EXPECT_EQ(channel.queued(), 0U);
  sim.run();
  ASSERT_EQ(done.size(), 4U);
  // All four start together and share equally throughout: 4 x 100 bytes /
  // 20 B/s = 20 s each.
  for (double t : done) EXPECT_NEAR(t, 20.0, 1e-9);
}

TEST(SharedChannel, RatesRecomputeOnCompletion) {
  // Two transfers of different sizes at capacity 10 (cap 10): both run at
  // 5 until the small one finishes, then the big one speeds to 10.
  // Small: 50 bytes -> t = 10. Big: 150 bytes: 50 done by t=10, remaining
  // 100 at 10 B/s -> t = 20.
  Simulation sim;
  PfsDevice channel{sim, shared_channel(10.0, 10.0)};
  double small_done = -1.0;
  double big_done = -1.0;
  channel.begin_transfer(flat_request(150.0, 10.0), [&] { big_done = sim.now().to_seconds(); });
  channel.begin_transfer(flat_request(50.0, 10.0), [&] { small_done = sim.now().to_seconds(); });
  sim.run();
  EXPECT_NEAR(small_done, 10.0, 1e-9);
  EXPECT_NEAR(big_done, 20.0, 1e-9);
}

TEST(SharedChannel, LateArrivalSlowsInFlightTransfer) {
  // Transfer A (100 bytes) alone at 10 B/s; at t=5 transfer B (25 bytes)
  // arrives, both drop to 5 B/s. B finishes at t=10; A has 25 left ->
  // finishes at t=12.5.
  Simulation sim;
  PfsDevice channel{sim, shared_channel(10.0, 10.0)};
  double a_done = -1.0;
  double b_done = -1.0;
  channel.begin_transfer(flat_request(100.0, 10.0), [&] { a_done = sim.now().to_seconds(); });
  sim.schedule_at(TimePoint::at(Duration::seconds(5.0)), [&] {
    channel.begin_transfer(flat_request(25.0, 10.0),
                           [&] { b_done = sim.now().to_seconds(); });
  });
  sim.run();
  EXPECT_NEAR(b_done, 10.0, 1e-9);
  EXPECT_NEAR(a_done, 12.5, 1e-9);
}

TEST(SharedChannel, CancelFreesBandwidth) {
  // A and B share 10 B/s; at t=5, B is cancelled and A speeds back up.
  // A: 100 bytes; 25 done by t=5, 75 at 10 B/s -> t = 12.5.
  Simulation sim;
  PfsDevice channel{sim, shared_channel(10.0, 10.0)};
  double a_done = -1.0;
  bool b_done = false;
  channel.begin_transfer(flat_request(100.0, 10.0), [&] { a_done = sim.now().to_seconds(); });
  const auto b = channel.begin_transfer(flat_request(500.0, 10.0), [&] { b_done = true; });
  sim.schedule_at(TimePoint::at(Duration::seconds(5.0)), [&] {
    EXPECT_TRUE(channel.cancel(b));
    EXPECT_FALSE(channel.cancel(b));  // second cancel is a no-op
  });
  sim.run();
  EXPECT_NEAR(a_done, 12.5, 1e-9);
  EXPECT_FALSE(b_done);
}

TEST(SharedChannel, ZeroSizeTransferCompletesImmediately) {
  Simulation sim;
  PfsDevice channel{sim, shared_channel(10.0, 10.0)};
  bool done = false;
  channel.begin_transfer(flat_request(0.0, 10.0), [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 0.0);
}

TEST(SharedChannel, NominalDurationHoldsUncontended) {
  // A request without topology information converts its nominal duration
  // to bytes at the stream rate, so alone it takes exactly that long.
  Simulation sim;
  PfsDevice channel{sim, shared_channel(400.0, 100.0)};
  double done_at = -1.0;
  TransferRequest request;
  request.nominal = Duration::seconds(9.0);
  channel.begin_transfer(request, [&] { done_at = sim.now().to_seconds(); });
  sim.run();
  EXPECT_NEAR(done_at, 9.0, 1e-9);
  EXPECT_NEAR(channel.nominal_seconds(), 9.0, 1e-9);
}

// --- PFS contention between runtimes and in the workload engine ------------

/// A 100 s checkpoint-restart run with a 2 s PFS checkpoint every 10 s.
ExecutionPlan pfs_checkpointing_plan() {
  ExecutionPlan plan;
  plan.kind = TechniqueKind::kCheckpointRestart;
  plan.app = AppSpec{app_type_by_name("A32"), 10, 100};
  plan.physical_nodes = 10;
  plan.baseline = Duration::seconds(100.0);
  plan.work_target = Duration::seconds(100.0);
  plan.checkpoint_quantum = Duration::seconds(10.0);
  plan.levels = {CheckpointLevelSpec{Duration::seconds(2.0), Duration::seconds(3.0), 3,
                                     /*uses_shared_pfs=*/true}};
  plan.nesting = {1};
  plan.failure_rate = Rate::zero();
  return plan;
}

/// Two runtimes checkpointing simultaneously through a single-gateway PFS:
/// both checkpoints take twice their nominal time.
TEST(PfsContention, ConcurrentCheckpointsStretch) {
  Simulation sim;
  PfsDevice pfs{sim, shared_channel(100.0, 100.0)};  // one gateway

  ExecutionResult r1;
  ExecutionResult r2;
  ResilientAppRuntime a{sim, pfs_checkpointing_plan(), 1,
                        [&](const ExecutionResult& r) { r1 = r; }};
  ResilientAppRuntime b{sim, pfs_checkpointing_plan(), 2,
                        [&](const ExecutionResult& r) { r2 = r; }};
  a.set_pfs_device(&pfs);
  b.set_pfs_device(&pfs);
  a.start();
  b.start();
  sim.run();

  // In lockstep, every checkpoint is contended: 9 checkpoints x 4 s
  // instead of x 2 s -> wall 136 s for both.
  ASSERT_TRUE(r1.completed);
  ASSERT_TRUE(r2.completed);
  EXPECT_DOUBLE_EQ(r1.wall_time.to_seconds(), 136.0);
  EXPECT_DOUBLE_EQ(r2.wall_time.to_seconds(), 136.0);
  EXPECT_DOUBLE_EQ(r1.time_checkpointing.to_seconds(), 36.0);
}

TEST(PfsContention, SoloRuntimeUnaffected) {
  Simulation sim;
  PfsDevice pfs{sim, shared_channel(100.0, 100.0)};
  ExecutionResult result;
  ResilientAppRuntime runtime{sim, pfs_checkpointing_plan(), 1,
                              [&](const ExecutionResult& r) { result = r; }};
  runtime.set_pfs_device(&pfs);
  runtime.start();
  sim.run();
  EXPECT_DOUBLE_EQ(result.wall_time.to_seconds(), 118.0);  // same as uncontended
}

/// A small oversubscribed checkpoint-restart workload on a 1000-node testbed.
struct ContentionWorkload {
  ArrivalPattern pattern;
  WorkloadEngineConfig config;
};

ContentionWorkload contention_workload() {
  WorkloadConfig wconfig;
  wconfig.machine_nodes = 1000;
  wconfig.arrival_count = 15;
  wconfig.mean_interarrival = Duration::hours(1.0);
  wconfig.size_fractions = {0.10, 0.20};
  wconfig.baseline_hours = {3.0, 6.0};
  ContentionWorkload w;
  w.pattern = generate_pattern(wconfig, 21, 0);
  w.config.machine = MachineSpec::testbed(1000);
  w.config.policy = TechniquePolicy::fixed_technique(TechniqueKind::kCheckpointRestart);
  w.config.resilience.node_mtbf = Duration::years(1.0);
  return w;
}

TEST(PfsContention, WorkloadEngineTogglesCleanly) {
  // The same pattern with a single shared gateway cannot drop fewer jobs,
  // and accounting invariants must hold either way.
  ContentionWorkload w = contention_workload();
  const WorkloadRunResult without = run_workload(w.config, w.pattern);
  w.config.machine.platform.pfs_gateways = 1;
  const WorkloadRunResult with = run_workload(w.config, w.pattern);

  EXPECT_EQ(with.completed + with.dropped, with.total_jobs);
  EXPECT_GE(with.dropped, without.dropped);
  if (with.completed_slowdown.count > 0 && without.completed_slowdown.count > 0) {
    EXPECT_GE(with.completed_slowdown.mean, without.completed_slowdown.mean - 1e-9);
  }
}

TEST(PfsContention, SharedDeviceReportsAccounting) {
  // The device keeps the transfer accounting on the flat platform too:
  // with one gateway, concurrent checkpoints take longer than Eq. 3 says.
  ContentionWorkload w = contention_workload();
  const WorkloadRunResult independent = run_workload(w.config, w.pattern);
  EXPECT_EQ(independent.pfs_transfers, 0U);
  EXPECT_EQ(independent.pfs_measured_s, 0.0);
  EXPECT_EQ(independent.pfs_nominal_s, 0.0);

  w.config.machine.platform.pfs_gateways = 1;
  const WorkloadRunResult shared = run_workload(w.config, w.pattern);
  EXPECT_GT(shared.pfs_transfers, 0U);
  EXPECT_GT(shared.pfs_nominal_s, 0.0);
  EXPECT_GE(shared.pfs_measured_s, shared.pfs_nominal_s);
}

// --- Topology-aware allocation --------------------------------------------

TEST(NodeAllocator, GroupedAllocationPrefersFewestGroups) {
  NodeAllocator alloc{36};
  ASSERT_TRUE(alloc.allocate(10).has_value());  // [0, 10)
  // Plain first fit would return [10, 14), which straddles leaf groups
  // [0,12) and [12,24); the grouped allocator aligns to the boundary.
  const auto range = alloc.allocate_grouped(4, 12);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->first, 12U);
  EXPECT_EQ(range->count, 4U);
  alloc.validate();
}

TEST(NodeAllocator, GroupedFallsBackWhenNoAlignedFit) {
  NodeAllocator alloc{24};
  ASSERT_TRUE(alloc.allocate(2).has_value());   // [0, 2)
  // 22 free nodes in [2, 24): a 20-node request cannot avoid straddling,
  // and only start-of-block fits (20 > 12 remaining after the boundary).
  const auto range = alloc.allocate_grouped(20, 12);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->first, 2U);
  alloc.validate();
}

TEST(NodeAllocator, GroupSizeOneIsFirstFit) {
  NodeAllocator alloc{16};
  const auto a = alloc.allocate_grouped(5, 1);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->first, 0U);
}

// --- --platform.* materialization -----------------------------------------

TEST(PlatformParams, MaterializeAppliesAndValidates) {
  study::ParamSchema schema;
  study::add_platform_params(schema);
  study::ParamSet params{schema, "test"};
  params.set(study::kPlatformModelKey, "fattree");
  params.set(study::kPlatformRadixKey, "24");
  params.set(study::kPlatformTaperKey, "0.5");
  params.set(study::kPlatformPfsChannelsKey, "6");
  MachineSpec machine = MachineSpec::exascale();
  study::materialize_platform(machine, params);
  EXPECT_EQ(machine.platform.model, PlatformModelKind::kFattree);
  EXPECT_EQ(machine.platform.fattree.leaf_radix, 24U);
  EXPECT_DOUBLE_EQ(machine.platform.fattree.taper, 0.5);
  EXPECT_EQ(machine.platform.fattree.pfs_channels, 6U);
}

TEST(PlatformParams, BadModelNamesOffendingKey) {
  // Spec files and --set bypass per-option CLI validation; materialization
  // must still reject the value and name the key for the exit-2 diagnostic.
  study::ParamSchema schema;
  study::add_platform_params(schema);
  study::ParamSet params{schema, "test"};
  params.set(study::kPlatformModelKey, "hypercube");
  MachineSpec machine = MachineSpec::exascale();
  try {
    study::materialize_platform(machine, params);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string{e.what()}.find("platform.model"), std::string::npos)
        << e.what();
  }
}

TEST(PlatformParams, DefaultsLeaveMachineFlat) {
  study::ParamSchema schema;
  study::add_platform_params(schema);
  const study::ParamSet params{schema, "test"};
  MachineSpec machine = MachineSpec::exascale();
  const std::string before = machine.describe();
  study::materialize_platform(machine, params);
  EXPECT_EQ(machine.platform.model, PlatformModelKind::kFlat);
  EXPECT_EQ(machine.describe(), before);
}

}  // namespace
}  // namespace xres
