// Tests for the correlated (burst) failure extension.

#include <gtest/gtest.h>

#include <map>

#include "core/workload_engine.hpp"
#include "failure/process.hpp"
#include "platform/machine.hpp"
#include "sim/simulation.hpp"
#include "util/check.hpp"

namespace xres {
namespace {

TEST(Machine, OwnersInRangeFindsIntersections) {
  Machine machine{MachineSpec::testbed(100)};
  ASSERT_TRUE(machine.allocate(20, OwnerId{1}).has_value());  // 0-19
  ASSERT_TRUE(machine.allocate(30, OwnerId{2}).has_value());  // 20-49
  ASSERT_TRUE(machine.allocate(10, OwnerId{3}).has_value());  // 50-59

  EXPECT_EQ(machine.owners_in_range(0, 5), (std::vector<OwnerId>{OwnerId{1}}));
  EXPECT_EQ(machine.owners_in_range(15, 10),
            (std::vector<OwnerId>{OwnerId{1}, OwnerId{2}}));
  EXPECT_EQ(machine.owners_in_range(19, 41),
            (std::vector<OwnerId>{OwnerId{1}, OwnerId{2}, OwnerId{3}}));
  EXPECT_TRUE(machine.owners_in_range(60, 40).empty());
  EXPECT_EQ(machine.owners_in_range(49, 2),
            (std::vector<OwnerId>{OwnerId{2}, OwnerId{3}}));
  EXPECT_THROW((void)machine.owners_in_range(0, 0), CheckError);
}

TEST(BurstFailures, ConfigValidation) {
  BurstFailureConfig config;
  config.probability = 1.5;
  EXPECT_THROW(config.validate(), CheckError);
  config = BurstFailureConfig{};
  config.width = 0;
  EXPECT_THROW(config.validate(), CheckError);
}

TEST(BurstFailures, BurstHitsAllIntersectingApplications) {
  Simulation sim;
  Machine machine{MachineSpec::testbed(100)};
  ASSERT_TRUE(machine.allocate(50, OwnerId{1}).has_value());  // 0-49
  ASSERT_TRUE(machine.allocate(50, OwnerId{2}).has_value());  // 50-99
  const SeverityModel severity = SeverityModel::bluegene_default();

  BurstFailureConfig bursts;
  bursts.probability = 1.0;  // every failure is a burst
  bursts.width = 100;        // spanning the whole machine

  std::map<OwnerId, int> hits;
  SystemFailureProcess process{sim,
                               machine,
                               Duration::days(30.0),
                               severity,
                               Pcg32{5},
                               [&](const Failure& f, const Machine::Victim& v) {
                                 hits[v.owner]++;
                                 EXPECT_GE(f.severity, 2);  // bursts are node losses
                               },
                               bursts};
  process.start();
  sim.run_until(TimePoint::at(Duration::days(60.0)));
  process.stop();

  ASSERT_GT(process.bursts_delivered(), 50U);
  // Bursts extend upward from the victim: owner 2 (nodes 50-99) is hit by
  // every burst; owner 1 only by bursts originating in its own range
  // (about half, since victims are uniform).
  EXPECT_EQ(static_cast<std::uint64_t>(hits[OwnerId{2}]), process.bursts_delivered());
  EXPECT_GT(hits[OwnerId{1}], 0);
  EXPECT_LT(hits[OwnerId{1}], hits[OwnerId{2}]);
  EXPECT_NEAR(static_cast<double>(hits[OwnerId{1}]) /
                  static_cast<double>(process.bursts_delivered()),
              0.5, 0.15);
}

TEST(BurstFailures, NarrowBurstsHitFewerApplications) {
  Simulation sim;
  Machine machine{MachineSpec::testbed(100)};
  ASSERT_TRUE(machine.allocate(50, OwnerId{1}).has_value());
  ASSERT_TRUE(machine.allocate(50, OwnerId{2}).has_value());
  const SeverityModel severity = SeverityModel::single_level();

  BurstFailureConfig bursts;
  bursts.probability = 1.0;
  bursts.width = 2;  // can straddle at most one boundary

  int total_callbacks = 0;
  SystemFailureProcess process{
      sim,
      machine,
      Duration::days(30.0),
      severity,
      Pcg32{6},
      [&](const Failure&, const Machine::Victim&) { ++total_callbacks; },
      bursts};
  process.start();
  sim.run_until(TimePoint::at(Duration::days(60.0)));
  process.stop();

  // Each burst hits 1 application (2 only when starting at node 49).
  EXPECT_GE(static_cast<std::uint64_t>(total_callbacks), process.bursts_delivered());
  EXPECT_LE(static_cast<std::uint64_t>(total_callbacks),
            process.bursts_delivered() + process.bursts_delivered() / 10);
}

TEST(BurstFailures, ZeroProbabilityReproducesPaperModel) {
  Simulation sim;
  Machine machine{MachineSpec::testbed(100)};
  ASSERT_TRUE(machine.allocate(100, OwnerId{1}).has_value());
  const SeverityModel severity = SeverityModel::bluegene_default();
  SystemFailureProcess process{
      sim,        machine, Duration::days(30.0), severity, Pcg32{7},
      [](const Failure&, const Machine::Victim&) {}};
  process.start();
  sim.run_until(TimePoint::at(Duration::days(90.0)));
  process.stop();
  EXPECT_EQ(process.bursts_delivered(), 0U);
  EXPECT_GT(process.failures_delivered(), 0U);
}

TEST(BurstFailures, WorkloadEngineBurstsIncreaseDrops) {
  WorkloadConfig wconfig;
  wconfig.machine_nodes = 1000;
  wconfig.arrival_count = 15;
  wconfig.mean_interarrival = Duration::hours(1.0);
  wconfig.size_fractions = {0.10, 0.20};
  wconfig.baseline_hours = {3.0, 6.0};
  const ArrivalPattern pattern = generate_pattern(wconfig, 31, 0);

  WorkloadEngineConfig config;
  config.machine = MachineSpec::testbed(1000);
  config.policy = TechniquePolicy::fixed_technique(TechniqueKind::kCheckpointRestart);
  config.resilience.node_mtbf = Duration::years(1.0);

  const WorkloadRunResult independent = run_workload(config, pattern);
  config.bursts.probability = 0.3;
  config.bursts.width = 500;
  const WorkloadRunResult bursty = run_workload(config, pattern);

  EXPECT_EQ(bursty.completed + bursty.dropped, bursty.total_jobs);
  // More applications take hits per event; the workload cannot fare better.
  EXPECT_GE(bursty.failures_injected + 5, independent.failures_injected);
}

}  // namespace
}  // namespace xres
