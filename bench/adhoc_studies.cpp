// The adhoc studies `xres efficiency` and `xres workload`: the CLI's
// parameterized exploration surfaces (a technique-efficiency sweep over
// application sizes, and one oversubscribed-machine workload combo).

#include <cstdio>
#include <vector>

#include "apps/app_type.hpp"
#include "core/single_app_study.hpp"
#include "core/workload_study.hpp"
#include "study/context.hpp"
#include "study/figure.hpp"
#include "study/platform_params.hpp"
#include "study/registry.hpp"
#include "util/barchart.hpp"

namespace xres::study {
namespace {

int run_efficiency_adhoc(StudyContext& ctx) {
  EfficiencyStudyConfig config;
  try {
    config.app_type = app_type_by_name(ctx.params().str("type"));
  } catch (const CheckError& e) {
    usage_error_from(e);
  }
  config.surrogate = surrogate_param(ctx.params());
  config.resilience.node_mtbf = Duration::years(ctx.params().real("mtbf-years"));
  config.baseline = Duration::hours(ctx.params().real("baseline-hours"));
  config.trials = ctx.params().u32("trials");
  config.seed = ctx.seed();
  config.threads = ctx.threads();
  apply_platform_params(config.machine, ctx.params());
  const ObsOptions& obs = ctx.options().obs;
  config.collect_metrics = obs.metrics();
  config.collect_trace = obs.trace();

  RecoveryCoordinator& rec = ctx.recovery();
  config.recovery = rec.options();

  const EfficiencyStudyResult result = run_efficiency_study(config);
  rec.absorb(result.recovery_report);
  if (rec.interrupted()) return rec.finish();  // withhold partial output
  std::printf("%s", result.to_table().to_text().c_str());
  if (!result.surrogate_cells.empty()) {
    std::printf("\nSurrogate provenance (bound = max |predicted - simulated mean|):\n%s",
                result.to_surrogate_table().to_text().c_str());
  }
  if (obs.metrics()) {
    std::printf("\nInstrumented breakdown (per technique, whole study):\n%s",
                result.to_metrics_table().to_text().c_str());
    result.metrics->write_json(obs.metrics_path);
    statusf("metrics written to %s\n", obs.metrics_path.c_str());
  }
  if (obs.trace()) {
    result.trace.write(obs.trace_path);
    statusf("trace written to %s (%zu tracks, %zu events; open in Perfetto)\n",
            obs.trace_path.c_str(), result.trace.track_count(),
            result.trace.event_count());
  }
  if (ctx.options().chart) {
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
  return rec.finish();
}

int run_workload_adhoc(StudyContext& ctx) {
  WorkloadStudyConfig config;
  WorkloadCombo combo;
  try {
    config.workload.bias = workload_bias_from_string(ctx.params().str("bias"));
    combo.scheduler = scheduler_from_string(ctx.params().str("scheduler"));
    const std::string technique = ctx.params().str("technique");
    combo.policy = technique == "selection" ? TechniquePolicy::selection()
                   : technique == "none"    ? TechniquePolicy::ideal_baseline()
                   : TechniquePolicy::fixed_technique(technique_from_string(technique));
  } catch (const CheckError& e) {
    usage_error_from(e);
  }
  config.patterns = ctx.params().u32("patterns");
  config.seed = ctx.seed();
  config.threads = ctx.threads();
  apply_platform_params(config.machine, ctx.params());
  const ObsOptions& obs = ctx.options().obs;
  config.collect_metrics = obs.metrics();
  config.resilience.node_mtbf = Duration::years(ctx.params().real("mtbf-years"));

  RecoveryCoordinator& rec = ctx.recovery();
  config.recovery = rec.options();

  recovery::BatchReport report;
  const auto results = run_workload_study(
      config, {combo},
      [](std::size_t done, std::size_t total) {
        std::fprintf(stderr, "\r  pattern %zu/%zu", done, total);
        if (done == total) std::fprintf(stderr, "\n");
      },
      &report);
  rec.absorb(report);
  if (rec.interrupted()) return rec.finish();  // withhold partial output
  std::printf("%s", workload_results_table(results).to_text().c_str());
  if (obs.metrics()) {
    obs::MetricSet merged;
    for (const WorkloadComboResult& r : results) {
      if (r.metrics.has_value()) merged.merge(*r.metrics);
    }
    std::printf("\nInstrumented breakdown:\n%s", merged.to_table().to_text().c_str());
    merged.write_json(obs.metrics_path);
    statusf("metrics written to %s\n", obs.metrics_path.c_str());
  }
  return rec.finish();
}

StudyDefinition make_efficiency() {
  StudyDefinition def;
  def.name = "efficiency";
  def.group = StudyGroup::kAdhoc;
  def.description = "technique-efficiency sweep over application sizes";
  def.summary = "xres efficiency — technique-efficiency sweep over application sizes";
  def.journal_id = "xres efficiency";  // historical journal identity
  def.options.default_seed = 20170529;
  def.options.chart = true;
  def.params.text("type", "application type (Table I)", "C64");
  def.params.real("mtbf-years", "per-node MTBF", 10).min(0.001);
  def.params.integer("trials", "trials per cell", 50).min(1);
  def.params.real("baseline-hours", "delay-free execution time", 24).min(0.001);
  add_surrogate_param(def.params);
  def.run = run_efficiency_adhoc;
  return def;
}

StudyDefinition make_workload() {
  StudyDefinition def;
  def.name = "workload";
  def.group = StudyGroup::kAdhoc;
  def.description = "oversubscribed-machine dropped-applications study";
  def.summary = "xres workload — oversubscribed-machine study";
  def.journal_id = "xres workload";  // historical journal identity
  def.options.default_seed = 20170530;
  def.options.obs = StudyOptionsSpec::Obs::kNoTrace;
  def.params.text("scheduler", "FCFS | Random | Slack | FirstFit | SJF | TopoPack",
                  "Slack");
  def.params.text("technique", "technique name, 'selection' or 'none'",
                  "parallel-recovery");
  def.params.integer("patterns", "arrival patterns to average", 10).min(1);
  def.params.real("mtbf-years", "per-node MTBF", 10).min(0.001);
  def.params.text("bias", "unbiased | high-memory | high-communication | large-apps",
                  "unbiased");
  def.run = run_workload_adhoc;
  return def;
}

const Registration efficiency_registered{make_efficiency()};
const Registration workload_registered{make_workload()};

}  // namespace
}  // namespace xres::study
