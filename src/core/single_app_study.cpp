#include "core/single_app_study.hpp"

#include <cmath>

#include "obs/perf.hpp"
#include "resilience/analytic.hpp"
#include "resilience/planner.hpp"
#include "util/check.hpp"

namespace xres {

namespace {

/// The application spec for one size fraction (the historical rounding).
AppSpec cell_app(const EfficiencyStudyConfig& config, double fraction) {
  XRES_CHECK(fraction > 0.0 && fraction <= 1.0, "size fraction must be in (0, 1]");
  const auto nodes = static_cast<std::uint32_t>(
      std::llround(fraction * static_cast<double>(config.machine.node_count)));
  return AppSpec::from_baseline(config.app_type, std::max(1U, nodes), config.baseline);
}

SingleAppTrialConfig cell_trial(const EfficiencyStudyConfig& config, const AppSpec& app,
                                std::size_t ti) {
  SingleAppTrialConfig trial;
  trial.app = app;
  trial.technique = config.techniques[ti];
  trial.machine = config.machine;
  trial.resilience = config.resilience;
  trial.failure_distribution = config.failure_distribution;
  return trial;
}

struct SimulatedCell {
  Summary efficiency;
  double mean_failures{0.0};
};

/// One simulated (size × technique) cell, exactly as the historical study
/// loop ran it: one batch with per-trial seeds derive_seed(seed, si, ti, t)
/// and journal label "s<si>.t<ti>", observers when requested, reduction in
/// trial order (bit-identical for every thread count).
SimulatedCell simulate_cell(const EfficiencyStudyConfig& config,
                            const TrialExecutor& executor,
                            const SingleAppTrialConfig& trial, double fraction,
                            std::size_t si, std::size_t ti,
                            EfficiencyStudyResult& result) {
  const bool observing = config.collect_metrics || config.collect_trace;

  std::vector<TrialSpec> specs;
  specs.reserve(config.trials);
  for (std::uint32_t t = 0; t < config.trials; ++t) {
    specs.push_back(TrialSpec{trial, {si, ti, t}});
  }
  // The journal batch label: stable across runs of the same sweep, and
  // the record's derived-seed fingerprint guards against a changed one.
  const std::string batch = "s" + std::to_string(si) + ".t" + std::to_string(ti);

  // One observer per trial when observing; metrics on all, trace on trial
  // 0 only (a full-study trace would drown Perfetto in identical tracks).
  std::vector<obs::TrialObs> observers;
  if (observing) {
    observers.resize(specs.size());
    for (obs::TrialObs& o : observers) {
      if (config.collect_metrics) o.enable_metrics();
    }
    if (config.collect_trace) observers.front().enable_trace();
  }
  const std::vector<ExecutionResult> outcomes = executor.run_batch(
      config.seed, specs, observers, config.recovery, batch, &result.recovery_report);
  if (config.collect_metrics) {
    // Merge in spec order: byte-identical for every thread count.
    for (const obs::TrialObs& o : observers) {
      result.metrics->merge(*o.metrics());
      result.technique_metrics[ti].merge(*o.metrics());
    }
  }
  if (config.collect_trace) {
    result.trace.add_track(
        fmt_percent(fraction, 0) + " " + to_string(config.techniques[ti]),
        std::move(*observers.front().trace()));
  }

  // Reduce in trial order: bit-identical for every thread count.
  RunningStats efficiency;
  RunningStats failures;
  for (const ExecutionResult& r : outcomes) {
    efficiency.add(r.efficiency);
    failures.add(static_cast<double>(r.failures_seen));
  }
  return {efficiency.summary(), failures.empty() ? 0.0 : failures.mean()};
}

/// The surrogate study loop (config.surrogate != kSim): simulate the
/// anchor sizes (endpoints + every second interior point), answer interior
/// cells from the analytic prediction corrected by the interpolated anchor
/// residual, and — in auto mode — fall back to full simulation for cells
/// whose reported bound exceeds kAutoBoundThreshold. Simulated cells are
/// byte-identical to the kSim path (same seeds, same batch labels).
EfficiencyStudyResult run_surrogate_study(const EfficiencyStudyConfig& config,
                                          const TrialProgress& progress) {
  EfficiencyStudyResult result;
  result.config = config;
  const std::size_t sizes = config.size_fractions.size();
  const std::size_t techs = config.techniques.size();
  const std::size_t total_cells = sizes * techs;
  std::size_t done_cells = 0;

  const TrialExecutor executor{config.threads};
  if (config.collect_metrics) {
    result.metrics.emplace();
    result.technique_metrics.resize(techs);
  }
  // Observed or journaled trials have per-trial side effects a memo hit
  // would skip; bypass the anchor memo entirely for those runs.
  const bool memoizable = !config.collect_metrics && !config.collect_trace &&
                          !config.recovery.active();

  result.efficiency.assign(sizes, std::vector<Summary>(techs));
  result.mean_failures.assign(sizes, std::vector<double>(techs, 0.0));
  result.surrogate_cells.assign(sizes, std::vector<SurrogateCell>(techs));

  // Closed-form predictions for every cell, and the anchor grid.
  std::vector<AppSpec> apps;
  apps.reserve(sizes);
  for (double fraction : config.size_fractions) apps.push_back(cell_app(config, fraction));
  std::vector<std::vector<SurrogateAnchor>> anchors(sizes);
  std::uint64_t hits = 0;
  std::uint64_t fallbacks = 0;

  const auto simulate = [&](std::size_t si, std::size_t ti) -> SimulatedCell {
    const SingleAppTrialConfig trial = cell_trial(config, apps[si], ti);
    return simulate_cell(config, executor, trial, config.size_fractions[si], si, ti,
                         result);
  };

  // Pass 1: anchors (memoized when side-effect free).
  for (std::size_t si = 0; si < sizes; ++si) {
    if (!surrogate_anchor_index(si, sizes)) continue;
    anchors[si].resize(techs);
    for (std::size_t ti = 0; ti < techs; ++ti) {
      const SingleAppTrialConfig trial = cell_trial(config, apps[si], ti);
      const ExecutionPlan plan =
          make_plan(trial.technique, trial.app, trial.machine, trial.resilience);
      const double analytic = predict_efficiency(plan, trial.resilience);

      const SurrogateCellKey key{trial, config.seed, si, ti, config.trials};
      std::optional<SurrogateAnchor> memo =
          memoizable ? surrogate_memo_find(key) : std::nullopt;
      SurrogateAnchor anchor;
      if (memo.has_value()) {
        anchor = *memo;
      } else {
        const SimulatedCell cell = simulate(si, ti);
        anchor.fraction = config.size_fractions[si];
        anchor.analytic = analytic;
        anchor.mean = cell.efficiency.mean;
        anchor.sem = cell.efficiency.count > 0
                         ? cell.efficiency.stddev /
                               std::sqrt(static_cast<double>(cell.efficiency.count))
                         : 0.0;
        anchor.mean_failures = cell.mean_failures;
        result.efficiency[si][ti] = cell.efficiency;
        if (memoizable) surrogate_memo_store(key, anchor);
      }
      if (memo.has_value()) {
        // Anchor restored from the memo: report the memoized statistics
        // (count 0 marks it as not re-simulated in this run's CSV).
        result.efficiency[si][ti] = Summary{};
        result.efficiency[si][ti].mean = anchor.mean;
      }
      anchors[si][ti] = anchor;
      result.mean_failures[si][ti] = anchor.mean_failures;
      SurrogateCell& cell = result.surrogate_cells[si][ti];
      cell.simulated = true;
      cell.anchor = true;
      cell.analytic = analytic;
      cell.predicted = anchor.mean;
      cell.bound = 2.0 * anchor.sem;
      ++done_cells;
      if (progress) progress(done_cells, total_cells);
    }
  }

  // Pass 2: interior cells, interpolated between the bracketing anchors.
  for (std::size_t si = 0; si < sizes; ++si) {
    if (surrogate_anchor_index(si, sizes)) continue;
    std::size_t lo = si;
    while (lo > 0 && !surrogate_anchor_index(--lo, sizes)) {}
    std::size_t hi = si;
    while (hi + 1 < sizes && !surrogate_anchor_index(++hi, sizes)) {}
    for (std::size_t ti = 0; ti < techs; ++ti) {
      const SingleAppTrialConfig trial = cell_trial(config, apps[si], ti);
      const ExecutionPlan plan =
          make_plan(trial.technique, trial.app, trial.machine, trial.resilience);
      const double analytic = predict_efficiency(plan, trial.resilience);
      const SurrogateEstimate est = surrogate_estimate(
          anchors[lo][ti], anchors[hi][ti], config.size_fractions[si], analytic);

      SurrogateCell& cell = result.surrogate_cells[si][ti];
      cell.analytic = analytic;
      cell.predicted = est.predicted;
      cell.bound = est.bound;
      if (config.surrogate == SurrogateMode::kAuto && est.bound > kAutoBoundThreshold) {
        const SimulatedCell sim = simulate(si, ti);
        cell.simulated = true;
        cell.fallback = true;
        result.efficiency[si][ti] = sim.efficiency;
        result.mean_failures[si][ti] = sim.mean_failures;
        ++fallbacks;
      } else {
        cell.simulated = false;
        result.efficiency[si][ti] = Summary{};
        result.efficiency[si][ti].mean = est.predicted;
        result.mean_failures[si][ti] = est.mean_failures;
        ++hits;
      }
      ++done_cells;
      if (progress) progress(done_cells, total_cells);
    }
  }

  obs::perf_add_surrogate(hits, fallbacks);
  return result;
}

}  // namespace

EfficiencyStudyResult run_efficiency_study(const EfficiencyStudyConfig& config,
                                           const TrialProgress& progress) {
  XRES_CHECK(config.trials > 0, "study needs at least one trial");
  XRES_CHECK(!config.size_fractions.empty(), "study needs at least one size");
  XRES_CHECK(!config.techniques.empty(), "study needs at least one technique");

  if (config.surrogate != SurrogateMode::kSim) {
    return run_surrogate_study(config, progress);
  }

  EfficiencyStudyResult result;
  result.config = config;
  const std::size_t total_cells =
      config.size_fractions.size() * config.techniques.size();
  std::size_t done_cells = 0;

  const TrialExecutor executor{config.threads};

  if (config.collect_metrics) {
    result.metrics.emplace();
    result.technique_metrics.resize(config.techniques.size());
  }

  for (std::size_t si = 0; si < config.size_fractions.size(); ++si) {
    const double fraction = config.size_fractions[si];
    const AppSpec app = cell_app(config, fraction);

    result.efficiency.emplace_back();
    result.mean_failures.emplace_back();
    for (std::size_t ti = 0; ti < config.techniques.size(); ++ti) {
      const SingleAppTrialConfig trial = cell_trial(config, app, ti);
      const SimulatedCell cell =
          simulate_cell(config, executor, trial, fraction, si, ti, result);
      result.efficiency[si].push_back(cell.efficiency);
      result.mean_failures[si].push_back(cell.mean_failures);
      ++done_cells;
      if (progress) progress(done_cells, total_cells);
    }
  }
  return result;
}

Table EfficiencyStudyResult::to_table() const {
  std::vector<std::string> headers{"system share"};
  for (TechniqueKind kind : config.techniques) headers.emplace_back(to_string(kind));
  Table table{std::move(headers)};
  for (std::size_t si = 0; si < config.size_fractions.size(); ++si) {
    std::vector<std::string> row{fmt_percent(config.size_fractions[si], 0)};
    for (std::size_t ti = 0; ti < config.techniques.size(); ++ti) {
      const Summary& s = efficiency[si][ti];
      row.push_back(fmt_mean_std(s.mean, s.stddev));
    }
    table.add_row(std::move(row));
  }
  return table;
}

Table EfficiencyStudyResult::to_metrics_table() const {
  std::vector<std::string> headers{"metric"};
  for (TechniqueKind kind : config.techniques) headers.emplace_back(to_string(kind));
  headers.emplace_back("total");
  Table table{std::move(headers)};
  if (!metrics.has_value()) return table;

  const auto cell = [](const obs::MetricSet& set, const obs::MetricDesc& d) -> std::string {
    switch (d.id.kind()) {
      case obs::MetricKind::kCounter:
        return std::to_string(set.counter(d.id));
      case obs::MetricKind::kGauge:
        return fmt_double(set.gauge(d.id), 2);
      case obs::MetricKind::kHistogram: {
        const obs::HistogramData& h = set.histogram(d.id);
        if (h.count == 0) return "-";
        return fmt_double(h.mean(), 3) + " (n=" + std::to_string(h.count) + ")";
      }
    }
    return "?";
  };
  const auto is_zero = [](const obs::MetricSet& set, const obs::MetricDesc& d) {
    switch (d.id.kind()) {
      case obs::MetricKind::kCounter: return set.counter(d.id) == 0;
      case obs::MetricKind::kGauge: return set.gauge(d.id) == 0.0;
      case obs::MetricKind::kHistogram: return set.histogram(d.id).count == 0;
    }
    return true;
  };

  for (const obs::MetricDesc& d : obs::MetricRegistry::global().descriptors()) {
    if (is_zero(*metrics, d)) continue;  // keep the breakdown readable
    std::vector<std::string> row{d.name};
    for (const obs::MetricSet& set : technique_metrics) row.push_back(cell(set, d));
    row.push_back(cell(*metrics, d));
    table.add_row(std::move(row));
  }
  return table;
}

Table EfficiencyStudyResult::to_surrogate_table() const {
  Table table{{"system share", "technique", "source", "analytic", "predicted",
               "bound"}};
  if (surrogate_cells.empty()) return table;
  for (std::size_t si = 0; si < config.size_fractions.size(); ++si) {
    for (std::size_t ti = 0; ti < config.techniques.size(); ++ti) {
      const SurrogateCell& cell = surrogate_cells[si][ti];
      const char* source = cell.anchor     ? "anchor"
                           : cell.fallback ? "fallback"
                           : cell.simulated ? "sim"
                                            : "surrogate";
      table.add_row({fmt_percent(config.size_fractions[si], 0),
                     to_string(config.techniques[ti]), source,
                     fmt_double(cell.analytic, 4), fmt_double(cell.predicted, 4),
                     fmt_double(cell.bound, 4)});
    }
  }
  return table;
}

Table EfficiencyStudyResult::to_csv_table() const {
  Table table{{"size_fraction", "technique", "mean_efficiency", "stddev", "trials",
               "mean_failures"}};
  for (std::size_t si = 0; si < config.size_fractions.size(); ++si) {
    for (std::size_t ti = 0; ti < config.techniques.size(); ++ti) {
      const Summary& s = efficiency[si][ti];
      table.add_row({fmt_double(config.size_fractions[si], 4),
                     to_string(config.techniques[ti]), fmt_double(s.mean, 6),
                     fmt_double(s.stddev, 6), std::to_string(s.count),
                     fmt_double(mean_failures[si][ti], 2)});
    }
  }
  return table;
}

}  // namespace xres
