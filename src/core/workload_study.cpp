#include "core/workload_study.hpp"

#include "util/check.hpp"

namespace xres {

/// Seed key of a pattern run's engine: pattern p runs with
/// `derive_seed(study seed, kWorkloadEngineSeedKey, p)`, whatever the combo,
/// so every combo of a study sees the same failure sequence per pattern.
constexpr std::uint64_t kWorkloadEngineSeedKey = 0x656e67696eULL;

std::string WorkloadCombo::name() const {
  return std::string{to_string(scheduler)} + " + " + policy.name();
}

std::vector<WorkloadComboResult> run_workload_study(
    const WorkloadStudyConfig& config, const std::vector<WorkloadCombo>& combos,
    const TrialProgress& progress, recovery::BatchReport* report) {
  XRES_CHECK(config.patterns > 0, "study needs at least one pattern");
  XRES_CHECK(!combos.empty(), "study needs at least one combo");

  // Generate the patterns once; every combo replays the identical
  // workloads (paper Section VI).
  std::vector<ArrivalPattern> patterns;
  patterns.reserve(config.patterns);
  for (std::uint32_t p = 0; p < config.patterns; ++p) {
    patterns.push_back(generate_pattern(config.workload, config.seed, p));
  }

  // One plan cache for the study: each distinct (policy, job spec) among
  // all combos and patterns is planned once.
  WorkloadPlanCache plans{config.machine, config.resilience};

  // Every (combo, pattern) run is independent: execute the flat grid on
  // the worker pool, each run writing its own slot, then reduce serially in
  // (combo, pattern) order so summaries are identical for any thread count.
  const std::size_t total_runs = combos.size() * config.patterns;
  std::vector<obs::TrialObs> observers;
  if (config.collect_metrics) {
    observers.resize(total_runs);
    for (obs::TrialObs& o : observers) o.enable_metrics();
  }
  std::vector<WorkloadRunResult> runs =
      TrialExecutor{config.threads}.run_journaled<WorkloadRunResult>(
          total_runs,
          [&](std::size_t idx, obs::TrialObs* obs) {
            const WorkloadCombo& combo = combos[idx / config.patterns];
            const auto p = static_cast<std::uint32_t>(idx % config.patterns);
            WorkloadEngineConfig engine;
            engine.machine = config.machine;
            engine.resilience = config.resilience;
            engine.policy = combo.policy;
            engine.scheduler = combo.scheduler;
            // The engine seed varies per pattern but NOT per combo: combos
            // see identical failure sequences for a given pattern (variance
            // reduction, mirroring the paper's shared arrival patterns).
            engine.seed = derive_seed(config.seed, kWorkloadEngineSeedKey, p);
            engine.bursts = config.bursts;
            engine.obs = obs;
            engine.plans = &plans;
            return run_workload(engine, patterns[p]);
          },
          observers, config.recovery, config.recovery_batch,
          // Journal fingerprint: study seed x combo content x pattern.
          [&](std::size_t idx) {
            return derive_seed(config.seed, fnv1a(combos[idx / config.patterns].name()),
                               idx % config.patterns);
          },
          report, progress);

  std::vector<WorkloadComboResult> results;
  results.reserve(combos.size());
  for (std::size_t ci = 0; ci < combos.size(); ++ci) {
    WorkloadComboResult out;
    out.combo = combos[ci];
    RunningStats dropped;
    RunningStats utilization;
    RunningStats failures;
    for (std::uint32_t p = 0; p < config.patterns; ++p) {
      WorkloadRunResult& r = runs[ci * config.patterns + p];
      dropped.add(r.dropped_fraction);
      utilization.add(r.mean_utilization);
      failures.add(static_cast<double>(r.failures_injected));
      for (const auto& [kind, count] : r.selection_counts) {
        out.selection_counts[kind] += count;
      }
      out.runs.push_back(std::move(r));
    }
    out.dropped_fraction = dropped.summary();
    out.mean_utilization = utilization.summary();
    out.mean_failures = failures.empty() ? 0.0 : failures.mean();
    if (config.collect_metrics) {
      // Merge in pattern order: byte-identical for every thread count.
      out.metrics.emplace();
      for (std::uint32_t p = 0; p < config.patterns; ++p) {
        out.metrics->merge(*observers[ci * config.patterns + p].metrics());
      }
    }
    results.push_back(std::move(out));
  }
  return results;
}

std::vector<WorkloadCombo> figure4_combos() {
  std::vector<WorkloadCombo> combos;
  combos.push_back(WorkloadCombo{SchedulerKind::kFcfs, TechniquePolicy::ideal_baseline()});
  for (SchedulerKind sched : all_schedulers()) {
    for (TechniqueKind kind : workload_techniques()) {
      combos.push_back(WorkloadCombo{sched, TechniquePolicy::fixed_technique(kind)});
    }
  }
  return combos;
}

std::vector<WorkloadCombo> figure5_combos() {
  std::vector<WorkloadCombo> combos;
  for (SchedulerKind sched : all_schedulers()) {
    combos.push_back(WorkloadCombo{
        sched, TechniquePolicy::fixed_technique(TechniqueKind::kParallelRecovery)});
    combos.push_back(WorkloadCombo{sched, TechniquePolicy::selection()});
  }
  return combos;
}

Table workload_results_table(const std::vector<WorkloadComboResult>& results) {
  Table table{{"scheduler", "resilience", "dropped %", "std %", "utilization %",
               "failures/pattern"}};
  for (const WorkloadComboResult& r : results) {
    table.add_row({to_string(r.combo.scheduler), r.combo.policy.name(),
                   fmt_double(r.dropped_fraction.mean * 100.0, 2),
                   fmt_double(r.dropped_fraction.stddev * 100.0, 2),
                   fmt_double(r.mean_utilization.mean * 100.0, 1),
                   fmt_double(r.mean_failures, 1)});
  }
  return table;
}

}  // namespace xres
