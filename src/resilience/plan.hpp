#pragma once

/// \file plan.hpp
/// ExecutionPlan: the technique-agnostic contract between the resilience
/// planners (Section IV models) and the ResilientAppRuntime state machine.
///
/// A plan says *what* an application's resilient execution looks like —
/// how much stretched work must be done, how often checkpoints of which
/// level are taken and what they cost, what a failure of each severity
/// rolls back, and how recovery is parallelized — without prescribing the
/// event mechanics, which live in runtime/.

#include <cstdint>
#include <vector>

#include "apps/application.hpp"
#include "failure/severity.hpp"
#include "resilience/technique.hpp"
#include "util/units.hpp"

namespace xres {

/// One checkpoint level available to the technique, cheapest/least durable
/// first.
struct CheckpointLevelSpec {
  Duration save_cost{};     ///< blocking time to take a checkpoint
  Duration restore_cost{};  ///< blocking time to restart from it (symmetric in the paper)
  SeverityLevel coverage{1};  ///< highest failure severity it can recover from
  /// True when the level moves data through the machine-wide parallel file
  /// system: under a contention-modeling engine these transfers share PFS
  /// bandwidth with other applications (RAM/partner levels never do).
  bool uses_shared_pfs{false};
  /// Topology-aware transfer description (platform/platform_model.hpp),
  /// filled by the planner for PFS-backed levels: total checkpoint bytes
  /// across the application and the aggregate rate the interconnect grants
  /// it. Zero under the flat model — the nominal costs above are taken
  /// literally (byte-identical legacy behavior).
  DataSize pfs_bytes{DataSize::zero()};
  Bandwidth pfs_rate_cap{Bandwidth::bytes_per_second(0.0)};

  friend bool operator==(const CheckpointLevelSpec&, const CheckpointLevelSpec&) = default;
};

struct ExecutionPlan {
  TechniqueKind kind{TechniqueKind::kNone};
  AppSpec app{};

  /// Nodes the technique physically occupies (⌈r · N_a⌉ for redundancy).
  std::uint32_t physical_nodes{1};

  /// Unstretched baseline T_B (the efficiency numerator, Figures 1–3).
  Duration baseline{};

  /// Stretched execution requirement: µ·T_B for parallel recovery (Eq. 7),
  /// T_S(T_W + r·T_C) for redundancy (Eq. 8), T_B otherwise.
  Duration work_target{};

  /// Work time between consecutive checkpoints (the τ of Eq. 4, or the
  /// multilevel quantum w). Infinity means "never checkpoint" (kNone).
  Duration checkpoint_quantum{Duration::infinity()};

  /// Checkpoint levels, cheapest first. Empty for kNone.
  std::vector<CheckpointLevelSpec> levels;

  /// Hierarchical schedule: nesting[i] = number of level-(i+1) periods per
  /// level-(i+2) period, for i in [0, levels-1); the last entry is unused
  /// and kept at 1. Example 3-level plan {4, 8}: every checkpoint is L1,
  /// every 4th is L2, every 32nd is L3.
  std::vector<int> nesting;

  /// Parallel recovery fans the failed node's rework across this many
  /// helpers; 1 for every other technique.
  double recovery_parallelism{1.0};

  /// True (CR/ML/redundancy): a non-masked failure rolls global progress
  /// back to a saved checkpoint. False (parallel recovery): progress is
  /// retained and only the failed node's work since the last checkpoint is
  /// recomputed (in parallel) while the rest of the system idles.
  bool rollback_on_failure{true};

  /// Replication degree r; 1 when the technique does not replicate.
  double replication_degree{1.0};

  /// False when the machine cannot host the technique (redundancy needing
  /// more nodes than exist): the study reports efficiency 0 without
  /// simulating.
  bool feasible{true};

  /// Extension (semi-blocking checkpointing): fraction of the normal work
  /// rate sustained *while* a checkpoint is in flight. 0 = fully blocking
  /// (every paper technique); work accrued concurrently is NOT covered by
  /// the in-flight checkpoint (its snapshot is taken at phase entry).
  double checkpoint_work_rate{0.0};

  /// Extension: re-estimate the failure rate online and re-derive the
  /// Eq.-4 interval after every completed checkpoint (Gamma-prior MLE with
  /// the planned rate as prior mean). Protects against a misspecified
  /// M_n. Only meaningful for single-level plans.
  bool adaptive_interval{false};

  /// Application failure rate λ over the plan's *physical* nodes.
  Rate failure_rate{};

  /// Abort cap: executions exceeding this wall time report efficiency 0.
  Duration max_wall_time{Duration::infinity()};

  /// Severity level of the k-th checkpoint (k counts from 1) under the
  /// nesting odometer; returns a 0-based index into `levels`.
  [[nodiscard]] std::size_t level_index_for_checkpoint(std::uint64_t k) const;

  /// The cheapest level able to recover from \p severity; throws if no
  /// level covers it (planner bug).
  [[nodiscard]] std::size_t recovery_level_for(SeverityLevel severity) const;

  void validate() const;

  friend bool operator==(const ExecutionPlan&, const ExecutionPlan&) = default;
};

}  // namespace xres
