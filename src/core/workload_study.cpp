#include "core/workload_study.hpp"

#include <atomic>

#include "core/workload_record.hpp"
#include "recovery/journal.hpp"
#include "recovery/json_parse.hpp"
#include "util/check.hpp"

namespace xres {

namespace {

/// FNV-1a over the combo's display name: a content fingerprint that makes
/// journal records from an edited or reordered combo list read as stale.
std::uint64_t combo_fingerprint(const WorkloadCombo& combo) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : combo.name()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::string WorkloadCombo::name() const {
  return std::string{to_string(scheduler)} + " + " + policy.name();
}

std::vector<WorkloadComboResult> run_workload_study(
    const WorkloadStudyConfig& config, const std::vector<WorkloadCombo>& combos,
    const WorkloadProgress& progress, recovery::BatchReport* report) {
  XRES_CHECK(config.patterns > 0, "study needs at least one pattern");
  XRES_CHECK(!combos.empty(), "study needs at least one combo");

  // Generate the patterns once; every combo replays the identical
  // workloads (paper Section VI).
  std::vector<ArrivalPattern> patterns;
  patterns.reserve(config.patterns);
  for (std::uint32_t p = 0; p < config.patterns; ++p) {
    patterns.push_back(generate_pattern(config.workload, config.seed, p));
  }

  // Every (combo, pattern) run is independent: execute the flat grid on
  // the worker pool, each run writing its own slot, then reduce serially in
  // (combo, pattern) order so summaries are identical for any thread count.
  const std::size_t total_runs = combos.size() * config.patterns;
  std::vector<WorkloadRunResult> runs(total_runs);
  std::vector<obs::TrialObs> observers;
  if (config.collect_metrics) {
    observers.resize(total_runs);
    for (obs::TrialObs& o : observers) o.enable_metrics();
  }
  const TrialExecutor executor{config.threads};
  const recovery::TrialRecoveryOptions& rec = config.recovery;
  const std::string& kBatch = config.recovery_batch;
  std::atomic<std::size_t> stale{0};

  // Journal fingerprint for run idx: study seed x combo content x pattern.
  const auto fingerprint = [&](std::size_t idx) {
    return derive_seed(config.seed, combo_fingerprint(combos[idx / config.patterns]),
                       idx % config.patterns);
  };
  const auto journal_outcome = [&](std::size_t idx, WorkloadOutcome outcome) {
    recovery::JournalRecord record;
    record.batch = kBatch;
    record.index = idx;
    record.seed = fingerprint(idx);
    record.payload = serialize_workload_outcome(outcome);
    rec.journal->append(record);
  };

  TrialLoopControl control;
  control.progress = progress;
  control.trial_timeout_seconds = rec.trial_timeout_seconds;
  control.trial_attempts = rec.trial_attempts;
  if (rec.resume != nullptr) {
    control.already_done = [&](std::size_t idx) {
      const recovery::JournalRecord* record = rec.resume->find(kBatch, idx);
      if (record == nullptr) return false;
      if (record->seed != fingerprint(idx)) {
        stale.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      WorkloadOutcome outcome;
      try {
        outcome = parse_workload_outcome(record->payload);
      } catch (const recovery::JsonParseError&) {
        stale.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      if (config.collect_metrics) {
        if (!outcome.metrics.has_value()) return false;  // journaled unobserved: re-run
        *observers[idx].metrics() = *outcome.metrics;
      }
      runs[idx] = outcome.result;
      return true;
    };
  }
  if (rec.quarantine_enabled()) {
    control.quarantine = [&](std::size_t idx, const std::string& reason) {
      runs[idx] = WorkloadRunResult{};  // zero jobs: reduces as a no-op-ish run
      if (config.collect_metrics) observers[idx].enable_metrics();
      if (rec.journal != nullptr) {
        WorkloadOutcome outcome;
        outcome.quarantined = true;
        outcome.quarantine_reason = reason;
        if (config.collect_metrics) outcome.metrics.emplace();
        journal_outcome(idx, std::move(outcome));
      }
    };
  }

  executor.for_each_controlled(
      total_runs,
      [&](std::size_t idx) {
        const WorkloadCombo& combo = combos[idx / config.patterns];
        const auto p = static_cast<std::uint32_t>(idx % config.patterns);
        WorkloadEngineConfig engine;
        engine.machine = config.machine;
        engine.resilience = config.resilience;
        engine.policy = combo.policy;
        engine.scheduler = combo.scheduler;
        // The engine seed varies per pattern but NOT per combo: combos see
        // identical failure sequences for a given pattern (variance
        // reduction, mirroring the paper's shared arrival patterns).
        engine.seed = derive_seed(config.seed, 0x656e67696eULL, p);
        if (config.collect_metrics) {
          observers[idx].enable_metrics();  // fresh set, also on a retry
          engine.obs = &observers[idx];
        }
        runs[idx] = run_workload(engine, patterns[p]);
        if (rec.journal != nullptr) {
          WorkloadOutcome outcome;
          outcome.result = runs[idx];
          if (config.collect_metrics) outcome.metrics = *observers[idx].metrics();
          journal_outcome(idx, std::move(outcome));
        }
      },
      control, report);
  if (report != nullptr) {
    report->stale_records += stale.load(std::memory_order_relaxed);
  }

  std::vector<WorkloadComboResult> results;
  results.reserve(combos.size());
  for (std::size_t ci = 0; ci < combos.size(); ++ci) {
    WorkloadComboResult out;
    out.combo = combos[ci];
    RunningStats dropped;
    RunningStats utilization;
    RunningStats failures;
    for (std::uint32_t p = 0; p < config.patterns; ++p) {
      const WorkloadRunResult& r = runs[ci * config.patterns + p];
      dropped.add(r.dropped_fraction);
      utilization.add(r.mean_utilization);
      failures.add(static_cast<double>(r.failures_injected));
      for (const auto& [kind, count] : r.selection_counts) {
        out.selection_counts[kind] += count;
      }
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
