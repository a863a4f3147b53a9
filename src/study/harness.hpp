#pragma once

/// \file harness.hpp
/// The live harness plumbing a study run owns: crash-safety coordination
/// (journal/resume/watchdog/shutdown) and observed batch execution for
/// hand-rolled sweeps. Moved here from bench/common.cpp so the bench
/// binaries, the xres CLI and the suite runner share exactly one copy.

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/single_app_study.hpp"
#include "core/workload_engine.hpp"
#include "obs/trial_obs.hpp"
#include "recovery/journal.hpp"
#include "recovery/options.hpp"
#include "recovery/shutdown.hpp"
#include "study/options.hpp"

namespace xres::study {

/// Owns the live crash-safety state for one study run: loads the resume
/// index (validating the journal against the study name and seed), opens
/// the write-ahead journal, installs the SIGINT/SIGTERM handlers, and
/// accumulates the executor's BatchReport. Construct after parsing, pass
/// options() into the study config, call finish() last and return its exit
/// code.
class RecoveryCoordinator {
 public:
  /// \p study and \p root_seed identify the journal (recovery::JournalMeta).
  /// Without --resume an existing journal file at --journal is replaced,
  /// not appended to (appending would resurrect the previous run's records
  /// on a later --resume). Load reports (found/corrupt/torn-tail) print to
  /// the status stream.
  RecoveryCoordinator(const RecoveryCliOptions& cli, std::string study,
                      std::uint64_t root_seed);

  /// The executor-facing view (pointers into this coordinator; valid for
  /// its lifetime).
  [[nodiscard]] recovery::TrialRecoveryOptions options();

  /// Merge one study/batch report into the run's total.
  void absorb(const recovery::BatchReport& report) { report_.merge(report); }
  [[nodiscard]] const recovery::BatchReport& report() const { return report_; }

  /// True when the run drained early on SIGINT/SIGTERM — the driver should
  /// skip writing figure artifacts and return finish().
  [[nodiscard]] bool interrupted() const { return report_.interrupted; }

  /// Flush the journal, print the recovery summary (when anything was
  /// active), and return the driver exit code: recovery::kExitInterrupted
  /// after a drain, else 0.
  [[nodiscard]] int finish();

 private:
  RecoveryCliOptions cli_;
  std::optional<recovery::ResumeIndex> index_;
  std::unique_ptr<recovery::TrialJournal> journal_;
  recovery::BatchReport report_;
};

/// Observed batch execution for drivers that drive TrialExecutor directly
/// (the ablation/extension harnesses): `run_batch` and `run_patterns` run
/// one batch of units through the executor's journaled loop under a
/// RecoveryCoordinator and, when observation is requested, attach one
/// observer per unit and merge metrics in unit order; `run_batch` also
/// keeps trial 0 of each batch as a trace track named \p label. Call
/// finish() once after the sweep to write the artifacts.
class ObsCollector {
 public:
  explicit ObsCollector(ObsOptions options) : options_{std::move(options)} {}

  /// \p label doubles as the journal batch label (keep it stable across
  /// runs), and the batch's accounting is absorbed into \p coordinator.
  [[nodiscard]] std::vector<ExecutionResult> run_batch(
      const TrialExecutor& executor, std::uint64_t root_seed,
      std::span<const TrialSpec> specs, const std::string& label,
      RecoveryCoordinator& coordinator, const TrialProgress& progress = {});

  /// The workload ablations' counterpart of run_batch: `run(p, obs)` for
  /// each pattern p in [0, patterns), journaled under (\p label, p) and
  /// fingerprinted by `derive_seed(root_seed, fnv1a(label), p)`. \p obs is
  /// non-null only when --metrics is on. \p label must be stable across
  /// runs and unique within the study (e.g. "variant/technique"). After an
  /// interrupted loop (`coordinator.interrupted()`) the runs must not be
  /// reduced.
  [[nodiscard]] std::vector<WorkloadRunResult> run_patterns(
      const TrialExecutor& executor, std::uint32_t patterns, std::uint64_t root_seed,
      const std::string& label, RecoveryCoordinator& coordinator,
      const std::function<WorkloadRunResult(std::uint32_t, obs::TrialObs*)>& run);

  /// Merged metrics so far (null until the first observed batch).
  [[nodiscard]] const obs::MetricSet* metrics() const {
    return metrics_.has_value() ? &*metrics_ : nullptr;
  }

  /// Write the requested artifacts (prints the instrumented breakdown to
  /// stdout; "written to" notices go to the status stream).
  void finish();

 private:
  ObsOptions options_;
  std::optional<obs::MetricSet> metrics_;
  obs::TraceLog trace_;
};

}  // namespace xres::study
