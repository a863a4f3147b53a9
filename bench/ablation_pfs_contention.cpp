// Ablation: machine-wide PFS bandwidth contention in the workload study.
// The paper's Eq. 3 models per-application PFS contention (N_a / N_S) but
// treats concurrent applications' checkpoints as independent; this
// extension gives the flat platform g shared PFS gateways, so all PFS
// traffic goes through one processor-sharing PFS device, and measures the
// impact on dropped applications.

#include <cstdio>
#include <vector>

#include "core/workload_study.hpp"
#include "study/context.hpp"
#include "study/platform_params.hpp"
#include "study/registry.hpp"

namespace {
using namespace xres;

int run(study::StudyContext& ctx) {
  study::require_flat_platform(ctx.params(), "ablation_pfs_contention");
  const auto patterns = ctx.params().u32("patterns");
  const std::uint64_t seed = ctx.seed();
  study::RecoveryCoordinator& coordinator = ctx.recovery();
  study::ObsCollector& collector = ctx.collector();
  const TrialExecutor executor{1};  // pattern runs are serial in this sweep

  std::printf("Ablation: PFS contention in the oversubscribed workload study\n");
  std::printf("scheduler Slack, %u patterns per cell\n\n", patterns);

  Table table{{"PFS model", "checkpoint-restart dropped %", "multilevel dropped %",
               "parallel-recovery dropped %"}};

  struct Variant {
    const char* name;
    std::uint32_t gateways;  // 0 = no shared device
  };
  for (const Variant variant : {Variant{"independent (paper)", 0},
                                Variant{"shared, 8 gateways", 8},
                                Variant{"shared, 4 gateways", 4},
                                Variant{"shared, 1 gateway", 1}}) {
    std::vector<std::string> row{variant.name};
    for (TechniqueKind kind : workload_techniques()) {
      WorkloadStudyConfig study_config;
      study::apply_platform_params(study_config.machine, ctx.params());
      study_config.machine.platform.pfs_gateways = variant.gateways;

      // The collector's crash-safe pattern loop journals each run under a
      // per-cell batch label.
      const std::vector<WorkloadRunResult> runs = collector.run_patterns(
          executor, patterns, seed, std::string{variant.name} + "/" + to_string(kind),
          coordinator, [&](std::uint32_t p, obs::TrialObs* obs) {
            WorkloadEngineConfig engine;
            engine.machine = study_config.machine;
            engine.resilience = study_config.resilience;
            engine.policy = TechniquePolicy::fixed_technique(kind);
            engine.scheduler = SchedulerKind::kSlack;
            engine.seed = derive_seed(seed, kWorkloadEngineSeedKey, p);
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
    std::fprintf(stderr, "finished: %s\n", variant.name);
  }
  std::printf("%s", table.to_text().c_str());
  collector.finish();
  std::printf("(parallel recovery never touches the PFS, so its column is the "
              "control: contention leaves it unchanged)\n");
  return coordinator.finish();
}

study::StudyDefinition make() {
  study::StudyDefinition def;
  def.name = "ablation_pfs_contention";
  def.group = study::StudyGroup::kAblation;
  def.description =
      "dropped applications with and without machine-wide PFS bandwidth contention";
  def.summary = "ablation_pfs_contention — dropped %% with/without machine-wide "
                "PFS contention";
  def.options.default_seed = 20170530;
  def.options.threads = false;  // pattern runs are serial in this sweep
  def.options.obs = study::StudyOptionsSpec::Obs::kNoTrace;
  def.params.integer("patterns", "arrival patterns per cell", 15).min(1);
  def.run = run;
  return def;
}

const study::Registration registered{make()};

}  // namespace
