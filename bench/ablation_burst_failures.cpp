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
  const auto patterns = ctx.params().u32("patterns");
  const auto width = ctx.params().u32("burst-width");
  const std::uint64_t seed = ctx.seed();
  study::RecoveryCoordinator& coordinator = ctx.recovery();
  study::ObsCollector& collector = ctx.collector();
  const TrialExecutor executor{1};  // pattern runs are serial in this sweep

  std::printf("Ablation: correlated failures (bursts of %u nodes), scheduler Slack\n\n",
              width);

  Table table{{"burst probability", "checkpoint-restart dropped %",
               "multilevel dropped %", "parallel-recovery dropped %"}};
  for (double probability : {0.0, 0.1, 0.3, 0.6}) {
    std::vector<std::string> row{fmt_percent(probability, 0)};
    for (TechniqueKind kind : workload_techniques()) {
      WorkloadStudyConfig study_config;
      study::apply_platform_params(study_config.machine, ctx.params());
      const std::vector<WorkloadRunResult> runs = collector.run_patterns(
          executor, patterns, seed,
          "burst:" + fmt_percent(probability, 0) + "/" + to_string(kind), coordinator,
          [&](std::uint32_t p, obs::TrialObs* obs) {
            WorkloadEngineConfig engine;
            engine.machine = study_config.machine;
            engine.resilience = study_config.resilience;
            engine.policy = TechniquePolicy::fixed_technique(kind);
            engine.scheduler = SchedulerKind::kSlack;
            engine.seed = derive_seed(seed, kWorkloadEngineSeedKey, p);
            engine.bursts = BurstFailureConfig{probability, width};
            engine.obs = obs;
            return run_workload(engine, generate_pattern(study_config.workload, seed, p));
          });
      if (coordinator.interrupted()) return coordinator.finish();
      RunningStats dropped;
      for (const WorkloadRunResult& r : runs) dropped.add(r.dropped_fraction);
      row.push_back(fmt_double(dropped.mean() * 100.0, 2) + " ± " +
                    fmt_double(dropped.stddev() * 100.0, 2));
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
  def.options.threads = false;  // pattern runs are serial in this sweep
  def.options.obs = study::StudyOptionsSpec::Obs::kNoTrace;
  def.params.integer("patterns", "arrival patterns per cell", 15).min(1);
  def.params.integer("burst-width", "nodes per burst (cabinet size)", 512).min(1);
  def.run = run;
  return def;
}

const study::Registration registered{make()};

}  // namespace
