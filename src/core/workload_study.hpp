#pragma once

/// \file workload_study.hpp
/// Orchestration of the workload experiments: run every (scheduler ×
/// technique-policy) combination over the same set of seeded arrival
/// patterns and summarize the dropped-application fraction (paper
/// Figures 4 and 5).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "apps/workload.hpp"
#include "core/executor.hpp"
#include "core/policy.hpp"
#include "core/workload_engine.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace xres {

/// Seed key of a workload pattern run's engine: pattern p runs with
/// `derive_seed(study seed, kWorkloadEngineSeedKey, p)`, whatever the combo,
/// so every combo of a study sees the same failure sequence per pattern.
inline constexpr std::uint64_t kWorkloadEngineSeedKey = 0x656e67696eULL;

struct WorkloadStudyConfig {
  MachineSpec machine{MachineSpec::exascale()};
  ResilienceConfig resilience{};
  WorkloadConfig workload{};
  /// 50 arrival patterns in the paper.
  std::uint32_t patterns{50};
  std::uint64_t seed{20170530};
  /// Worker threads for pattern runs; 0 = hardware_concurrency, 1 =
  /// serial. Results are identical for every value (see core/executor.hpp).
  unsigned threads{0};
  /// Collect a deterministic MetricSet per combo (one per pattern run,
  /// merged in pattern order — thread-count-invariant like the results).
  bool collect_metrics{false};
  /// Crash-safety envelope — journal/resume/watchdog/retry
  /// (docs/ROBUSTNESS.md). The default reproduces the historical behavior.
  /// Pattern runs are journaled under `recovery_batch` by the executor's
  /// run_journaled, fingerprinted by (study seed, FNV-1a of the combo name,
  /// pattern), so reordering or editing the combo list invalidates exactly
  /// the affected records.
  recovery::TrialRecoveryOptions recovery{};
  /// Journal batch label. Drivers running several studies against one
  /// journal (e.g. one per workload bias) must give each a distinct label.
  std::string recovery_batch{"workload"};
};

/// One bar of Figure 4/5: a scheduler + technique policy evaluated over all
/// patterns.
struct WorkloadCombo {
  SchedulerKind scheduler{SchedulerKind::kFcfs};
  TechniquePolicy policy{};

  [[nodiscard]] std::string name() const;
};

struct WorkloadComboResult {
  WorkloadCombo combo{};
  Summary dropped_fraction;     ///< over patterns
  Summary mean_utilization;     ///< over patterns
  double mean_failures{0.0};    ///< failures injected per pattern
  std::map<TechniqueKind, std::uint32_t> selection_counts;  ///< summed
  /// Merged over this combo's pattern runs (set when collect_metrics).
  std::optional<obs::MetricSet> metrics;
};

/// Progress callback: (completed pattern-runs, total pattern-runs).
/// Invoked from worker threads under the executor's mutex (one invocation
/// at a time, strictly increasing counts) — see TrialProgress.
using WorkloadProgress = TrialProgress;

/// Evaluate each combo over the study's patterns. Pattern i is identical
/// across combos (same generator seed), matching the paper's methodology.
/// \p report (optional) receives the crash-safety accounting; when it comes
/// back `interrupted`, completed runs are valid, the rest reduced as zeros —
/// callers should print partial progress and exit with
/// recovery::kExitInterrupted instead of writing figure artifacts.
[[nodiscard]] std::vector<WorkloadComboResult> run_workload_study(
    const WorkloadStudyConfig& config, const std::vector<WorkloadCombo>& combos,
    const WorkloadProgress& progress = {}, recovery::BatchReport* report = nullptr);

/// The Figure-4 combo set: Ideal Baseline plus each scheduler × each
/// workload technique.
[[nodiscard]] std::vector<WorkloadCombo> figure4_combos();

/// The Figure-5 combo set for one bias: each scheduler with Parallel
/// Recovery and with Resilience Selection.
[[nodiscard]] std::vector<WorkloadCombo> figure5_combos();

/// Render combo results as a table (rows: combos).
[[nodiscard]] Table workload_results_table(const std::vector<WorkloadComboResult>& results);

}  // namespace xres
