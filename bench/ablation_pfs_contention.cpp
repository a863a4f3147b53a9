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
  study::RecoveryCoordinator& coordinator = ctx.recovery();
  study::ObsCollector& collector = ctx.collector();

  std::printf("Ablation: PFS contention in the oversubscribed workload study\n");
  std::printf("scheduler Slack, %u patterns per cell\n\n", patterns);

  Table table{{"PFS model", "checkpoint-restart dropped %", "multilevel dropped %",
               "parallel-recovery dropped %"}};
  std::vector<WorkloadCombo> combos;
  for (TechniqueKind kind : workload_techniques()) {
    combos.push_back(
        WorkloadCombo{SchedulerKind::kSlack, TechniquePolicy::fixed_technique(kind)});
  }

  struct Variant {
    const char* name;
    std::uint32_t gateways;  // 0 = no shared device
  };
  for (const Variant variant : {Variant{"independent (paper)", 0},
                                Variant{"shared, 8 gateways", 8},
                                Variant{"shared, 4 gateways", 4},
                                Variant{"shared, 1 gateway", 1}}) {
    // Each row is one workload study, journaled under the row's name.
    WorkloadStudyConfig config;
    study::apply_platform_params(config.machine, ctx.params());
    config.machine.platform.pfs_gateways = variant.gateways;
    config.patterns = patterns;
    config.seed = ctx.seed();
    config.threads = ctx.threads();
    config.collect_metrics = ctx.options().obs.metrics();
    config.recovery = coordinator.options();
    config.recovery_batch = variant.name;
    recovery::BatchReport report;
    const std::vector<WorkloadComboResult> results =
        run_workload_study(config, combos, {}, &report);
    coordinator.absorb(report);
    if (coordinator.interrupted()) return coordinator.finish();

    std::vector<std::string> row{variant.name};
    for (const WorkloadComboResult& r : results) {
      row.push_back(fmt_double(r.dropped_fraction.mean * 100.0, 2) + " ± " +
                    fmt_double(r.dropped_fraction.stddev * 100.0, 2));
      if (r.metrics.has_value()) collector.merge(*r.metrics);
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
  def.options.threads = false;  // one worker: ctx.threads() is 1
  def.options.obs = study::StudyOptionsSpec::Obs::kNoTrace;
  def.params.integer("patterns", "arrival patterns per cell", 15).min(1);
  def.run = run;
  return def;
}

const study::Registration registered{make()};

}  // namespace
