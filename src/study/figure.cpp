#include "study/figure.hpp"

#include <cstdio>
#include <vector>

#include "core/report.hpp"
#include "obs/profile.hpp"
#include "study/platform_params.hpp"
#include "util/barchart.hpp"

namespace xres::study {

void add_surrogate_param(ParamSchema& schema) {
  schema.text("surrogate",
              "sim | analytic | auto — answer cells from the analytic "
              "surrogate with a per-cell error bound (docs/STUDIES.md)",
              "sim");
}

SurrogateMode surrogate_param(const ParamSet& params) {
  try {
    return surrogate_mode_from_string(params.str("surrogate"));
  } catch (const CheckError& e) {
    usage_error_from(e);
  }
}

int run_efficiency_figure(const std::string& title, EfficiencyStudyConfig config,
                          StudyContext& ctx) {
  const HarnessOptions& options = ctx.options();
  obs::PhaseProfiler profiler;
  profiler.begin("setup");
  config.trials = ctx.params().u32("trials");
  config.surrogate = surrogate_param(ctx.params());
  config.seed = ctx.seed();
  config.threads = ctx.threads();
  config.collect_metrics = options.obs.metrics();
  config.collect_trace = options.obs.trace();
  apply_platform_params(config.machine, ctx.params());

  std::printf("%s\n", title.c_str());
  std::printf("machine: %s\n", config.machine.describe().c_str());
  std::printf("node MTBF: %s; baseline T_B: %s; %u trials per bar",
              to_string(config.resilience.node_mtbf).c_str(),
              to_string(config.baseline).c_str(), config.trials);
  // The worker-thread count is run status, not experiment data — results
  // are byte-identical for every --threads value. Direct runs keep the
  // historical "; N threads" suffix; the suite routes it to stderr so the
  // captured artifact stays threads-invariant.
  if (status_stream() == stdout) {
    std::printf("; %u threads", ctx.make_executor().threads());
  } else {
    statusf("(%u worker threads)\n", ctx.make_executor().threads());
  }
  std::printf("\n\n");

  RecoveryCoordinator& coordinator = ctx.recovery();
  config.recovery = coordinator.options();

  profiler.begin("run");
  obs::ProgressMeter meter{"cell"};
  const EfficiencyStudyResult result = run_efficiency_study(config, meter.callback());
  coordinator.absorb(result.recovery_report);

  if (coordinator.interrupted()) {
    // Partial progress only: completed cells are journaled, artifacts are
    // withheld so nothing half-reduced reaches downstream tooling.
    return coordinator.finish();
  }

  profiler.begin("reduce");
  std::printf("%s", result.to_table().to_text().c_str());
  if (!result.surrogate_cells.empty()) {
    std::printf("\nSurrogate provenance (bound = max |predicted - simulated mean|):\n%s",
                result.to_surrogate_table().to_text().c_str());
  }

  if (options.chart) {
    std::vector<std::string> series;
    for (TechniqueKind kind : config.techniques) series.emplace_back(to_string(kind));
    BarChart chart{series};
    for (std::size_t si = 0; si < config.size_fractions.size(); ++si) {
      std::vector<double> values;
      for (const Summary& s : result.efficiency[si]) values.push_back(s.mean);
      chart.add_category(fmt_percent(config.size_fractions[si], 0), values);
    }
    std::printf("\n%s", chart.render(50, 1.0).c_str());
  }

  ctx.emit_csv(result.to_csv_table());

  if (options.obs.metrics()) {
    std::printf("\nInstrumented breakdown (per technique, whole study):\n%s",
                result.to_metrics_table().to_text().c_str());
    result.metrics->write_json(options.obs.metrics_path);
    statusf("metrics written to %s\n", options.obs.metrics_path.c_str());
  }
  if (options.obs.trace()) {
    result.trace.write(options.obs.trace_path);
    statusf("trace written to %s (%zu tracks, %zu events; open in Perfetto)\n",
            options.obs.trace_path.c_str(), result.trace.track_count(),
            result.trace.event_count());
  }

  if (!options.report_path.empty()) {
    StudyReport report{title};
    report.add_config("machine", config.machine.describe());
    report.add_config("node MTBF", to_string(config.resilience.node_mtbf));
    report.add_config("application type", config.app_type.name);
    report.add_config("baseline T_B", to_string(config.baseline));
    report.add_config("trials per bar", std::to_string(config.trials));
    report.add_config("seed", std::to_string(config.seed));
    report.add_paragraph(
        "Efficiency = delay-free baseline execution time divided by the "
        "simulated execution time with failures and resilience overhead "
        "(mean ± sample standard deviation across trials).");
    report.add_table("Efficiency by system share", result.to_table());
    report.add_table("Raw data", result.to_csv_table());
    if (!result.surrogate_cells.empty()) {
      report.add_table("Surrogate provenance", result.to_surrogate_table());
    }
    if (result.metrics.has_value()) {
      report.add_table("Instrumented breakdown", result.to_metrics_table());
    }
    report.write(options.report_path);
    statusf("report written to %s\n", options.report_path.c_str());
  }

  profiler.end();
  statusf("(efficiency = baseline / simulated execution time; phases: %s)\n",
          profiler.summary().c_str());
  return coordinator.finish();
}

}  // namespace xres::study
