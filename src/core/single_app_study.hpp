#pragma once

/// \file single_app_study.hpp
/// Application-scaling efficiency studies (paper Section V, Figures 1–3):
/// one application at a time, scaled from 1% of the machine to the full
/// machine, executed under each resilience technique for many seeded
/// trials, reporting mean ± σ efficiency.
///
/// Trials execute through `TrialExecutor` (core/executor.hpp): results are
/// bit-identical for every thread count, and `threads == 1` reproduces the
/// historical serial path byte for byte.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/executor.hpp"
#include "core/surrogate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace xres {

/// A full figure: sweep application size × technique.
struct EfficiencyStudyConfig {
  MachineSpec machine{MachineSpec::exascale()};
  ResilienceConfig resilience{};
  AppType app_type{};
  /// T_B = 1440 min (one day) in Figures 1–3.
  Duration baseline{Duration::minutes(1440.0)};
  /// Fractions of the machine the application occupies (figure x-axis).
  std::vector<double> size_fractions{0.01, 0.02, 0.05, 0.10, 0.25, 0.50, 0.75, 1.00};
  std::vector<TechniqueKind> techniques{evaluated_techniques().begin(),
                                        evaluated_techniques().end()};
  std::uint32_t trials{200};
  std::uint64_t seed{20170529};
  FailureDistribution failure_distribution{FailureDistribution::exponential()};
  /// Worker threads for trial execution; 0 = hardware_concurrency, 1 =
  /// serial. Results are identical for every value (see core/executor.hpp).
  unsigned threads{0};
  /// Collect deterministic metrics (result.metrics / technique_metrics):
  /// one MetricSet per trial, merged in spec order, so the aggregate is
  /// byte-identical for every `threads` value. Never perturbs results.
  bool collect_metrics{false};
  /// Record a sim-time trace of trial 0 of every (size × technique) cell
  /// into result.trace — one Perfetto track per cell.
  bool collect_trace{false};
  /// Crash-safety envelope — journal/resume/watchdog/retry
  /// (docs/ROBUSTNESS.md). The default reproduces the historical behavior
  /// exactly. Batches are labeled "s<si>.t<ti>", so a journal written by
  /// one sweep only resumes the same sweep.
  recovery::TrialRecoveryOptions recovery{};
  /// How cells are answered (core/surrogate.hpp): kSim simulates every
  /// cell (the historical path, byte-identical); kAnalytic/kAuto simulate
  /// only anchor sizes and answer the rest from the analytic surrogate
  /// with a per-cell error bound. Simulated cells (anchors, auto
  /// fallbacks) use exactly the kSim per-trial seeds.
  SurrogateMode surrogate{SurrogateMode::kSim};
};

struct EfficiencyStudyResult {
  EfficiencyStudyConfig config{};
  /// cell[size_index][technique_index]: efficiency summary over trials.
  std::vector<std::vector<Summary>> efficiency;
  /// Mean failures seen per trial, same indexing (diagnostics).
  std::vector<std::vector<double>> mean_failures;

  /// Whole-study metrics merged over every trial in spec order (set when
  /// config.collect_metrics).
  std::optional<obs::MetricSet> metrics;
  /// Per-technique merges, index-aligned with config.techniques (set when
  /// config.collect_metrics).
  std::vector<obs::MetricSet> technique_metrics;
  /// Sim-time trace: trial 0 of each cell as its own track (populated when
  /// config.collect_trace).
  obs::TraceLog trace;
  /// What the crash-safety envelope did (always filled; all-zero counters
  /// and interrupted == false when config.recovery is inactive). When
  /// `interrupted` is set the study drained early: completed cells are
  /// valid, the rest are zero — callers should report partial progress and
  /// exit with recovery::kExitInterrupted instead of writing figure
  /// artifacts.
  recovery::BatchReport recovery_report{};

  /// Per-cell provenance when config.surrogate != kSim, indexed like
  /// `efficiency`; empty for pure-simulation runs. Surrogate-answered
  /// cells carry count == 0 summaries in `efficiency` (mean = predicted,
  /// stddev = 0) — `trials` in the CSV tells them apart.
  std::vector<std::vector<SurrogateCell>> surrogate_cells;

  /// The figure's series as an aligned table (rows: size; columns:
  /// technique "mean ± σ").
  [[nodiscard]] Table to_table() const;
  /// Surrogate provenance: per cell source (sim/anchor/fallback/surrogate),
  /// analytic prediction, surrogate prediction and error bound. Empty
  /// table when the study simulated every cell.
  [[nodiscard]] Table to_surrogate_table() const;
  /// Raw CSV: size_fraction, technique, mean, stddev, trials.
  [[nodiscard]] Table to_csv_table() const;
  /// Instrumented breakdown (rows: non-zero metrics; columns: one per
  /// technique plus a study total). Empty table when metrics were not
  /// collected.
  [[nodiscard]] Table to_metrics_table() const;
};

/// \p progress receives (completed cells, total cells) on the calling
/// thread, once per finished (size × technique) cell.
[[nodiscard]] EfficiencyStudyResult run_efficiency_study(
    const EfficiencyStudyConfig& config, const TrialProgress& progress = {});

}  // namespace xres
