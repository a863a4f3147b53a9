// Ablation: topology-aware PFS contention in the workload study. The flat
// platform prices every PFS checkpoint with Eq. 3 and lets concurrent
// applications overlap for free; the fat-tree platform routes the same
// traffic through a queued PFS device with N_S service channels behind
// per-level link caps. This study runs both on identical arrival patterns
// and reports (a) the dropped-% impact per technique and (b) the measured
// vs. Eq.-3 divergence of every completed device transfer — the emergent
// gap between the closed form and the queued dynamics.

#include <cstdio>
#include <vector>

#include "core/workload_study.hpp"
#include "study/context.hpp"
#include "study/platform_params.hpp"
#include "study/registry.hpp"

namespace {
using namespace xres;

struct Variant {
  const char* name;
  bool fattree;
  std::uint32_t pfs_channels;  // 0 = MachineSpec default N_S
};

int run(study::StudyContext& ctx) {
  study::require_flat_platform(ctx.params(), "ablation_pfs_contention_topology");
  const auto patterns = ctx.params().u32("patterns");
  study::RecoveryCoordinator& coordinator = ctx.recovery();
  study::ObsCollector& collector = ctx.collector();
  const std::uint32_t channels = MachineSpec{}.network.switch_connections;

  std::printf("Ablation: flat (Eq. 3) vs. fat-tree queued-PFS platform\n");
  std::printf("scheduler Slack, %u patterns per cell\n\n", patterns);

  Table table{{"platform", "checkpoint-restart dropped %", "multilevel dropped %",
               "parallel-recovery dropped %", "PFS measured/Eq.3"}};
  std::vector<WorkloadCombo> combos;
  for (TechniqueKind kind : workload_techniques()) {
    combos.push_back(
        WorkloadCombo{SchedulerKind::kSlack, TechniquePolicy::fixed_technique(kind)});
  }

  const std::vector<Variant> variants{
      Variant{"flat (paper)", false, 0},
      Variant{"fattree, N_S channels", true, 0},
      Variant{"fattree, 4 channels", true, 4},
      Variant{"fattree, 1 channel", true, 1}};
  for (const Variant& variant : variants) {
    // Each row is one workload study, journaled under the row's name.
    WorkloadStudyConfig config;
    study::apply_platform_params(config.machine, ctx.params());
    if (variant.fattree) {
      config.machine.platform.model = PlatformModelKind::kFattree;
      config.machine.platform.fattree.pfs_channels = variant.pfs_channels;
    }
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
    std::uint64_t transfers = 0;
    double measured_s = 0.0;
    double nominal_s = 0.0;
    for (const WorkloadComboResult& r : results) {
      row.push_back(fmt_double(r.dropped_fraction.mean * 100.0, 2) + " ± " +
                    fmt_double(r.dropped_fraction.stddev * 100.0, 2));
      if (r.metrics.has_value()) collector.merge(*r.metrics);
      for (const WorkloadRunResult& run : r.runs) {
        transfers += run.pfs_transfers;
        measured_s += run.pfs_measured_s;
        nominal_s += run.pfs_nominal_s;
      }
    }
    // Per-variant divergence: wall time of every completed device transfer
    // over its Eq.-3 nominal. 1.00x means the queued device reproduced the
    // closed form exactly; contention and small-app channel starvation
    // (N_a < N_S) push it above 1.
    if (transfers > 0 && nominal_s > 0) {
      row.push_back(fmt_double(measured_s / nominal_s, 3) + "x over " +
                    std::to_string(transfers) + " transfers");
    } else {
      row.push_back("n/a (no device)");
    }
    table.add_row(std::move(row));
    std::fprintf(stderr, "finished: %s\n", variant.name);
  }
  std::printf("%s", table.to_text().c_str());
  collector.finish();
  std::printf("(flat prices PFS checkpoints with Eq. 3 and never queues; the\n"
              " fat-tree device serves at most %u concurrent transfers, so the\n"
              " checkpoint storms of the oversubscribed machine queue up and\n"
              " the measured/Eq.3 ratio exceeds 1; parallel recovery never\n"
              " touches the PFS, so its column is the control)\n",
              channels);
  return coordinator.finish();
}

study::StudyDefinition make() {
  study::StudyDefinition def;
  def.name = "ablation_pfs_contention_topology";
  def.group = study::StudyGroup::kAblation;
  def.description =
      "flat Eq.-3 platform vs. fat-tree queued-PFS device: dropped %% and "
      "measured-vs-Eq.3 divergence";
  def.summary = "ablation_pfs_contention_topology — dropped %% and measured vs. "
                "Eq.-3 PFS divergence, flat vs. fat-tree platform";
  def.options.default_seed = 20170530;
  def.options.threads = false;  // one worker: ctx.threads() is 1
  def.options.obs = study::StudyOptionsSpec::Obs::kNoTrace;
  def.params.integer("patterns", "arrival patterns per cell", 15).min(1);
  def.run = run;
  return def;
}

const study::Registration registered{make()};

}  // namespace
