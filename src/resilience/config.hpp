#pragma once

/// \file config.hpp
/// Tunable parameters of the resilience models (paper Table II plus the
/// constants the paper adopts from its references).

#include <vector>

#include "util/units.hpp"

namespace xres {

struct ResilienceConfig {
  /// M_n: per-node mean time between failures. The paper evaluates 10 years
  /// (default) and 2.5 years (Figure 3).
  Duration node_mtbf{Duration::years(10.0)};

  /// Per-severity-level failure weights (normalized internally). Index 0 is
  /// level 1. Default after the BlueGene/L-derived ratios of Moody et al.
  /// [3]; see DESIGN.md §5 for the substitution rationale.
  std::vector<double> severity_weights{0.55, 0.35, 0.10};

  /// Message-logging slowdown per unit of communication fraction:
  /// µ = 1 + comm_slowdown_per_tc × T_C. The paper uses T_C / 10, i.e. 0.1
  /// (Section IV-D).
  double comm_slowdown_per_tc{0.1};

  /// Parallel recovery fans the failed node's rework across this many
  /// helpers (from the virtualization ratios in Meneses et al. [2]).
  double recovery_parallelism{4.0};

  /// Degrees of redundancy evaluated (Section IV-E).
  double partial_redundancy{1.5};
  double full_redundancy{2.0};

  /// Abort an execution once wall time exceeds this multiple of the
  /// (stretched) baseline; such runs report efficiency 0. Captures the
  /// paper's "unable to even complete execution at exascale sizes".
  double max_slowdown{100.0};

  /// Multilevel optimizer search bound for checkpoints-per-parent-level.
  int max_nesting{128};

  /// Extension: let single-level techniques (checkpoint/restart, parallel
  /// recovery) adapt their checkpoint interval to the observed failure
  /// rate at runtime (see ExecutionPlan::adaptive_interval).
  bool adaptive_interval{false};

  /// Extension: work rate sustained while a semi-blocking checkpoint
  /// drains (kSemiBlockingCheckpoint only). 0.5 means the application
  /// progresses at half speed during checkpoint I/O.
  double semi_blocking_work_rate{0.5};

  /// Extension: checkpoint image size as a fraction of application memory
  /// (incremental/compressed checkpointing). 1.0 = the paper's full-memory
  /// images; 0.25 means images are a quarter of N_m. Scales every level's
  /// save/restore cost (Eqs. 3, 5, 6).
  double checkpoint_compression{1.0};

  void validate() const;

  friend bool operator==(const ResilienceConfig&, const ResilienceConfig&) = default;
};

}  // namespace xres
