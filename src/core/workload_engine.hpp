#pragma once

/// \file workload_engine.hpp
/// Discrete-event execution of an arrival pattern on the simulated machine
/// (paper Sections VI–VII): applications arrive, are mapped by a resource
/// management heuristic, execute under a resilience technique while the
/// machine injects failures, and are dropped when they miss their
/// deadlines. The headline metric is the fraction of dropped applications.

#include <cstdint>
#include <map>

#include "apps/workload.hpp"
#include "core/occupancy.hpp"
#include "core/policy.hpp"
#include "failure/process.hpp"
#include "platform/spec.hpp"
#include "resilience/config.hpp"
#include "rm/scheduler.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace xres {

namespace obs {
class TrialObs;
}

struct WorkloadEngineConfig {
  MachineSpec machine{MachineSpec::exascale()};
  ResilienceConfig resilience{};
  TechniquePolicy policy{TechniquePolicy::fixed_technique(TechniqueKind::kCheckpointRestart)};
  SchedulerKind scheduler{SchedulerKind::kFcfs};
  /// Seed for the engine's stochastic elements (failure process, random
  /// scheduler, runtime internals) — independent of the pattern's seed.
  std::uint64_t seed{1};

  /// Record each job's node tenancy for occupancy charts (cheap; off by
  /// default only to keep results lean in large sweeps).
  bool record_occupancy{false};

  /// Extension: spatially correlated failures — with `bursts.probability`
  /// a failure event strikes `bursts.width` contiguous nodes (cabinet/PSU
  /// fault), hitting every intersecting application. The default
  /// (probability 0) reproduces the paper's independent-failure model.
  BurstFailureConfig bursts{};

  /// Optional observation context (metrics channel; obs/trial_obs.hpp) for
  /// this pattern run: job counters plus the per-runtime event metrics.
  /// Must outlive the run and is touched only by the running thread. Null
  /// disables observation at pointer-test cost.
  obs::TrialObs* obs{nullptr};
};

struct WorkloadRunResult {
  std::uint32_t total_jobs{0};
  std::uint32_t completed{0};
  std::uint32_t dropped{0};
  /// dropped / total: the Figures 4–5 metric.
  double dropped_fraction{0.0};
  /// Drop breakdown: never started (deadline passed in the queue, or
  /// proactively removed by the slack scheduler) vs. aborted mid-run.
  std::uint32_t dropped_before_start{0};
  std::uint32_t dropped_while_running{0};
  /// wall time / baseline for jobs that completed (resilience stretch +
  /// failure delays; 1.0 is delay-free).
  Summary completed_slowdown{};
  /// Hours between arrival and the mapping that started the job.
  Summary queue_wait_hours{};
  std::uint64_t failures_injected{0};
  /// Simulated time at which the last job left the system.
  Duration makespan{};
  /// Time-averaged fraction of machine nodes busy.
  double mean_utilization{0.0};
  /// How often Resilience Selection picked each technique (selection mode).
  std::map<TechniqueKind, std::uint32_t> selection_counts;
  /// Job tenancies (populated when record_occupancy is set).
  OccupancyLog occupancy;

  /// PFS-device accounting, zero when the platform model gives the run no
  /// device (PlatformModel::pfs_device): completed device transfers, their
  /// summed wall time (submit → completion, including queueing, sharing
  /// and rate caps) and their summed closed-form Eq.-3 nominal time.
  /// measured / nominal is the run's emergent divergence from the analytic
  /// contention model.
  std::uint64_t pfs_transfers{0};
  double pfs_measured_s{0.0};
  double pfs_nominal_s{0.0};
};

/// Execute one pattern to completion.
[[nodiscard]] WorkloadRunResult run_workload(const WorkloadEngineConfig& config,
                                             const ArrivalPattern& pattern);

}  // namespace xres
