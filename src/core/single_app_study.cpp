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

/// One simulated (size × technique) cell into result.efficiency[si][ti] and
/// result.mean_failures[si][ti]: one batch with per-trial seeds
/// derive_seed(seed, si, ti, t) and journal label "s<si>.t<ti>", observers
/// when requested, reduction in trial order (bit-identical for every
/// thread count).
void simulate_cell(const TrialExecutor& executor, const SingleAppTrialConfig& trial,
                   std::size_t si, std::size_t ti, EfficiencyStudyResult& result) {
  const EfficiencyStudyConfig& config = result.config;
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
        fmt_percent(config.size_fractions[si], 0) + " " + to_string(config.techniques[ti]),
        std::move(*observers.front().trace()));
  }

  // Reduce in trial order: bit-identical for every thread count.
  RunningStats efficiency;
  RunningStats failures;
  for (const ExecutionResult& r : outcomes) {
    efficiency.add(r.efficiency);
    failures.add(static_cast<double>(r.failures_seen));
  }
  result.efficiency[si][ti] = efficiency.summary();
  result.mean_failures[si][ti] = failures.empty() ? 0.0 : failures.mean();
}

/// The simulated anchor cell (si, ti) as the interpolation reads it.
SurrogateAnchor anchor_at(const EfficiencyStudyResult& result, std::size_t si,
                          std::size_t ti) {
  const Summary& s = result.efficiency[si][ti];
  SurrogateAnchor anchor;
  anchor.fraction = result.config.size_fractions[si];
  anchor.analytic = result.surrogate_cells[si][ti].analytic;
  anchor.mean = s.mean;
  anchor.sem = s.count > 0 ? s.stddev / std::sqrt(static_cast<double>(s.count)) : 0.0;
  anchor.mean_failures = result.mean_failures[si][ti];
  return anchor;
}

}  // namespace

EfficiencyStudyResult run_efficiency_study(const EfficiencyStudyConfig& config,
                                           const TrialProgress& progress) {
  XRES_CHECK(config.trials > 0, "study needs at least one trial");
  XRES_CHECK(!config.size_fractions.empty(), "study needs at least one size");
  XRES_CHECK(!config.techniques.empty(), "study needs at least one technique");

  EfficiencyStudyResult result;
  result.config = config;
  const std::size_t sizes = config.size_fractions.size();
  const std::size_t techs = config.techniques.size();
  const bool surrogate = config.surrogate != SurrogateMode::kSim;
  std::size_t done_cells = 0;
  std::uint64_t hits = 0;
  std::uint64_t fallbacks = 0;

  const TrialExecutor executor{config.threads};
  if (config.collect_metrics) {
    result.metrics.emplace();
    result.technique_metrics.resize(techs);
  }
  result.efficiency.assign(sizes, std::vector<Summary>(techs));
  result.mean_failures.assign(sizes, std::vector<double>(techs, 0.0));
  if (surrogate) result.surrogate_cells.assign(sizes, std::vector<SurrogateCell>(techs));

  // Pass 0 simulates every cell in sim mode, and only the anchor sizes in
  // the surrogate modes. Pass 1 (surrogate modes only) answers each
  // interior cell from the anchors one size below and above it, or, in
  // auto mode, simulates it when that answer's bound is too wide.
  // Simulated cells run in this order whatever the mode, with the same
  // seeds and batch labels.
  for (int pass = 0; pass < (surrogate ? 2 : 1); ++pass) {
    for (std::size_t si = 0; si < sizes; ++si) {
      const bool interior = surrogate && !surrogate_anchor_index(si, sizes);
      if (interior != (pass == 1)) continue;
      const AppSpec app = cell_app(config, config.size_fractions[si]);
      for (std::size_t ti = 0; ti < techs; ++ti) {
        const SingleAppTrialConfig trial = cell_trial(config, app, ti);
        bool simulate = true;
        if (surrogate) {
          SurrogateCell& cell = result.surrogate_cells[si][ti];
          cell.analytic = predict_efficiency(
              make_plan(trial.technique, trial.app, trial.machine, trial.resilience),
              trial.resilience);
          if (interior) {
            const SurrogateEstimate est =
                surrogate_estimate(anchor_at(result, si - 1, ti), anchor_at(result, si + 1, ti),
                                   config.size_fractions[si], cell.analytic);
            simulate = config.surrogate == SurrogateMode::kAuto &&
                       est.bound > kAutoBoundThreshold;
            cell.simulated = simulate;
            cell.fallback = simulate;
            cell.predicted = est.predicted;
            cell.bound = est.bound;
            if (simulate) {
              ++fallbacks;
            } else {
              ++hits;
              result.efficiency[si][ti].mean = est.predicted;
              result.mean_failures[si][ti] = est.mean_failures;
            }
          }
        }
        if (simulate) simulate_cell(executor, trial, si, ti, result);
        if (surrogate && !interior) {
          // An anchor predicts itself, to within twice its standard error.
          const SurrogateAnchor anchor = anchor_at(result, si, ti);
          SurrogateCell& cell = result.surrogate_cells[si][ti];
          cell.anchor = true;
          cell.predicted = anchor.mean;
          cell.bound = 2.0 * anchor.sem;
        }
        ++done_cells;
        if (progress) progress(done_cells, sizes * techs);
      }
    }
  }
  obs::perf_add_surrogate(hits, fallbacks);
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
