#pragma once

/// \file workload_engine.hpp
/// Discrete-event execution of an arrival pattern on the simulated machine
/// (paper Sections VI–VII): applications arrive, are mapped by a resource
/// management heuristic, execute under a resilience technique while the
/// machine injects failures, and are dropped when they miss their
/// deadlines. The headline metric is the fraction of dropped applications.

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>

#include "apps/workload.hpp"
#include "core/occupancy.hpp"
#include "core/policy.hpp"
#include "failure/process.hpp"
#include "platform/spec.hpp"
#include "resilience/config.hpp"
#include "resilience/plan.hpp"
#include "resilience/selector.hpp"
#include "rm/scheduler.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace xres {

namespace obs {
class TrialObs;
}

/// The execution plans of workload jobs, keyed by (technique policy,
/// AppSpec) under one machine and resilience config. A workload study's
/// (combo, pattern) runs all plan through one cache, so each distinct key
/// is planned once, at its first request and under the cache's lock:
/// planning work and results do not depend on how many threads share it.
/// A plan keeps its address for the cache's lifetime.
class WorkloadPlanCache {
 public:
  WorkloadPlanCache(MachineSpec machine, ResilienceConfig resilience);

  WorkloadPlanCache(const WorkloadPlanCache&) = delete;
  WorkloadPlanCache& operator=(const WorkloadPlanCache&) = delete;

  /// The plan for \p spec under \p policy: make_plan for a fixed technique
  /// (kNone for the Ideal Baseline), the selector's choice under Resilience
  /// Selection.
  [[nodiscard]] const ExecutionPlan& plan(const TechniquePolicy& policy, const AppSpec& spec);

  [[nodiscard]] const MachineSpec& machine() const { return machine_; }
  [[nodiscard]] const ResilienceConfig& resilience() const { return resilience_; }

  /// Distinct (policy, spec) keys planned so far.
  [[nodiscard]] std::size_t size() const;

 private:
  struct Key {
    TechniquePolicy::Mode mode;
    TechniqueKind fixed;
    AppSpec spec;

    friend auto operator<=>(const Key&, const Key&) = default;
  };

  const MachineSpec machine_;
  const ResilienceConfig resilience_;
  mutable std::mutex mutex_;
  std::optional<ResilienceSelector> selector_;  ///< built at the first selection
  std::map<Key, ExecutionPlan> plans_;
};

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

  /// The plan cache this run plans through, shared with the other runs of
  /// a study; its machine and resilience config must equal this config's.
  /// Null plans through a cache local to the run.
  WorkloadPlanCache* plans{nullptr};
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
