#include "study/harness.hpp"

#include <cstdio>
#include <vector>

namespace xres::study {

RecoveryCoordinator::RecoveryCoordinator(const RecoveryCliOptions& cli, std::string study,
                                         std::uint64_t root_seed)
    : cli_{cli} {
  if (cli_.journal_path.empty()) return;

  recovery::JournalMeta meta;
  meta.study = std::move(study);
  meta.root_seed = root_seed;

  if (cli_.resume) {
    index_.emplace(recovery::ResumeIndex::load(cli_.journal_path, meta));
    const recovery::JournalLoadStats& stats = index_->stats();
    if (stats.found) {
      statusf("journal %s: %zu trial(s) to resume", cli_.journal_path.c_str(),
              index_->size());
      if (stats.corrupt_records != 0) {
        statusf(", %zu corrupt record(s) skipped", stats.corrupt_records);
      }
      if (stats.duplicate_records != 0) {
        statusf(", %zu duplicate(s) ignored", stats.duplicate_records);
      }
      if (stats.torn_tail) statusf(", torn tail dropped");
      statusf("\n");
    } else {
      statusf("journal %s: not found, starting fresh\n", cli_.journal_path.c_str());
    }
  } else {
    // A fresh (non-resume) run replaces any stale journal: appending to it
    // would let a later --resume resurrect the previous run's records.
    std::remove(cli_.journal_path.c_str());
  }
  journal_ = std::make_unique<recovery::TrialJournal>(cli_.journal_path, meta);
  recovery::install_shutdown_handlers();
}

recovery::TrialRecoveryOptions RecoveryCoordinator::options() {
  recovery::TrialRecoveryOptions options;
  options.journal = journal_.get();
  options.resume = index_.has_value() ? &*index_ : nullptr;
  options.trial_timeout_seconds = cli_.trial_timeout;
  options.trial_attempts = cli_.trial_retries + 1;
  return options;
}

int RecoveryCoordinator::finish() {
  if (journal_ != nullptr) journal_->flush();
  if (cli_.any() || report_.interrupted) {
    statusf("recovery: %s\n", report_.summary().c_str());
  }
  if (report_.interrupted) {
    statusf("interrupted by signal %d — journal flushed", recovery::shutdown_signal());
    if (journal_ != nullptr) {
      statusf("; resume with --journal %s --resume", journal_->path().c_str());
    }
    statusf("\n");
    return recovery::kExitInterrupted;
  }
  return 0;
}

std::vector<ExecutionResult> ObsCollector::run_batch(const TrialExecutor& executor,
                                                     std::uint64_t root_seed,
                                                     std::span<const TrialSpec> specs,
                                                     const std::string& label,
                                                     RecoveryCoordinator& coordinator,
                                                     const TrialProgress& progress) {
  recovery::BatchReport report;
  std::vector<obs::TrialObs> observers;
  if (options_.enabled()) {
    observers.resize(specs.size());
    for (obs::TrialObs& o : observers) {
      if (options_.metrics()) o.enable_metrics();
    }
    if (options_.trace() && !observers.empty()) observers.front().enable_trace();
  }
  std::vector<ExecutionResult> results = executor.run_batch(
      root_seed, specs, observers, coordinator.options(), label, &report, progress);
  coordinator.absorb(report);
  // On an interrupted batch the observers of undrained trials are empty;
  // merging them is harmless because the driver withholds artifacts.
  if (options_.metrics()) {
    for (const obs::TrialObs& o : observers) merge(*o.metrics());
  }
  if (options_.trace() && !observers.empty()) {
    trace_.add_track(label, std::move(*observers.front().trace()));
  }
  return results;
}

void ObsCollector::merge(const obs::MetricSet& metrics) {
  if (!metrics_.has_value()) metrics_.emplace();
  metrics_->merge(metrics);
}

void ObsCollector::finish() {
  if (options_.metrics() && metrics_.has_value()) {
    std::printf("\nInstrumented breakdown (whole sweep):\n%s",
                metrics_->to_table().to_text().c_str());
    metrics_->write_json(options_.metrics_path);
    statusf("metrics written to %s\n", options_.metrics_path.c_str());
  }
  if (options_.trace() && !trace_.empty()) {
    trace_.write(options_.trace_path);
    statusf("trace written to %s (%zu tracks, %zu events)\n",
            options_.trace_path.c_str(), trace_.track_count(), trace_.event_count());
  }
}

}  // namespace xres::study
