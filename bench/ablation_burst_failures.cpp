// Ablation: spatially correlated (burst) failures in the workload study.
// The paper assumes independent single-node failures; real machines also
// lose cabinets and power domains. This sweep keeps the event rate fixed
// and converts a growing fraction of events into contiguous-block bursts.

#include <cstdio>
#include <vector>

#include "core/workload_study.hpp"
#include "study/context.hpp"
#include "study/platform_params.hpp"
#include "study/registry.hpp"

namespace {
using namespace xres;

int run(study::StudyContext& ctx) {
  const auto width = ctx.params().u32("burst-width");
  study::RecoveryCoordinator& coordinator = ctx.recovery();
  study::ObsCollector& collector = ctx.collector();

  std::printf("Ablation: correlated failures (bursts of %u nodes), scheduler Slack\n\n",
              width);

  Table table{{"burst probability", "checkpoint-restart dropped %",
               "multilevel dropped %", "parallel-recovery dropped %"}};
  std::vector<WorkloadCombo> combos;
  for (TechniqueKind kind : workload_techniques()) {
    combos.push_back(
        WorkloadCombo{SchedulerKind::kSlack, TechniquePolicy::fixed_technique(kind)});
  }
  for (double probability : {0.0, 0.1, 0.3, 0.6}) {
    // Each row is one workload study, journaled under the row's name.
    std::vector<std::string> row{fmt_percent(probability, 0)};
    WorkloadStudyConfig config;
    study::apply_platform_params(config.machine, ctx.params());
    config.bursts = BurstFailureConfig{probability, width};
    config.patterns = ctx.params().u32("patterns");
    config.seed = ctx.seed();
    config.threads = ctx.threads();
    config.collect_metrics = ctx.options().obs.metrics();
    config.recovery = coordinator.options();
    config.recovery_batch = row.front();
    recovery::BatchReport report;
    const std::vector<WorkloadComboResult> results =
        run_workload_study(config, combos, {}, &report);
    coordinator.absorb(report);
    if (coordinator.interrupted()) return coordinator.finish();

    for (const WorkloadComboResult& r : results) {
      row.push_back(fmt_double(r.dropped_fraction.mean * 100.0, 2) + " ± " +
                    fmt_double(r.dropped_fraction.stddev * 100.0, 2));
      if (r.metrics.has_value()) collector.merge(*r.metrics);
    }
    table.add_row(std::move(row));
    std::fprintf(stderr, "finished probability %.1f\n", probability);
  }
  std::printf("%s", table.to_text().c_str());
  collector.finish();
  std::printf("(bursts multiply the per-event damage; severities are clamped to\n"
              " node-loss level, which multilevel absorbs with partner copies)\n");
  return coordinator.finish();
}

study::StudyDefinition make() {
  study::StudyDefinition def;
  def.name = "ablation_burst_failures";
  def.group = study::StudyGroup::kAblation;
  def.description =
      "dropped applications as independent failures become correlated bursts";
  def.summary = "ablation_burst_failures — dropped %% vs correlated-failure mix";
  def.options.default_seed = 20170530;
  def.options.threads = false;  // one worker: ctx.threads() is 1
  def.options.obs = study::StudyOptionsSpec::Obs::kNoTrace;
  def.params.integer("patterns", "arrival patterns per cell", 15).min(1);
  def.params.integer("burst-width", "nodes per burst (cabinet size)", 512).min(1);
  def.run = run;
  return def;
}

const study::Registration registered{make()};

}  // namespace
