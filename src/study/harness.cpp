#include "study/harness.hpp"

#include <atomic>
#include <cstdio>
#include <vector>

#include "recovery/json_parse.hpp"
#include "util/rng.hpp"

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
  if (options_.metrics() && !observers.empty()) {
    if (!metrics_.has_value()) metrics_.emplace();
    for (const obs::TrialObs& o : observers) metrics_->merge(*o.metrics());
  }
  if (options_.trace() && !observers.empty()) {
    trace_.add_track(label, std::move(*observers.front().trace()));
  }
  return results;
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

namespace {

/// FNV-1a over the batch label, mixed into the per-pattern fingerprint so an
/// edited sweep grid reads its old records as stale instead of wrong.
std::uint64_t label_hash(const std::string& label) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : label) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

void run_patterns_controlled(
    RecoveryCoordinator& coordinator, const TrialExecutor& executor,
    const std::string& label, std::uint32_t patterns, std::uint64_t root_seed,
    const std::function<WorkloadOutcome(std::uint32_t)>& run,
    const std::function<void(std::uint32_t, const WorkloadOutcome&)>& consume) {
  const recovery::TrialRecoveryOptions rec = coordinator.options();
  std::vector<WorkloadOutcome> outcomes(patterns);
  std::atomic<std::size_t> stale{0};

  const auto fingerprint = [&](std::size_t idx) {
    return derive_seed(root_seed, label_hash(label), idx);
  };
  const auto journal_outcome = [&](std::size_t idx, const WorkloadOutcome& outcome) {
    if (rec.journal == nullptr) return;
    recovery::JournalRecord record;
    record.batch = label;
    record.index = idx;
    record.seed = fingerprint(idx);
    record.payload = serialize_workload_outcome(outcome);
    rec.journal->append(record);
  };

  TrialLoopControl control;
  control.trial_timeout_seconds = rec.trial_timeout_seconds;
  control.trial_attempts = rec.trial_attempts;
  if (rec.resume != nullptr) {
    control.already_done = [&](std::size_t idx) {
      const recovery::JournalRecord* record = rec.resume->find(label, idx);
      if (record == nullptr) return false;
      if (record->seed != fingerprint(idx)) {
        stale.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      try {
        outcomes[idx] = parse_workload_outcome(record->payload);
      } catch (const recovery::JsonParseError&) {
        stale.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      return true;
    };
  }
  if (rec.quarantine_enabled()) {
    control.quarantine = [&](std::size_t idx, const std::string& reason) {
      outcomes[idx] = WorkloadOutcome{};
      outcomes[idx].quarantined = true;
      outcomes[idx].quarantine_reason = reason;
      journal_outcome(idx, outcomes[idx]);
    };
  }

  recovery::BatchReport report;
  executor.for_each_controlled(
      patterns,
      [&](std::size_t idx) {
        outcomes[idx] = run(static_cast<std::uint32_t>(idx));
        journal_outcome(idx, outcomes[idx]);
      },
      control, &report);
  report.stale_records += stale.load(std::memory_order_relaxed);
  coordinator.absorb(report);

  if (report.interrupted) return;  // partial sweep: caller withholds artifacts
  for (std::uint32_t p = 0; p < patterns; ++p) consume(p, outcomes[p]);
}

}  // namespace xres::study
