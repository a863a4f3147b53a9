#pragma once

/// \file options.hpp
/// The recovery knobs a study threads through to its executor loops, plus
/// the per-batch accounting the executor reports back. Bundled as values so
/// study configs (EfficiencyStudyConfig, WorkloadStudyConfig) and the
/// src/study CLI layer share one vocabulary for
/// `--journal/--resume/--trial-timeout/--trial-retries`.

#include <cstddef>
#include <string>

namespace xres::recovery {

class TrialJournal;
class ResumeIndex;

/// How an executor loop should behave under failure and interruption. The
/// defaults reproduce the historical behavior exactly: no journal, no
/// resume, no watchdog, one attempt, exceptions propagate.
struct TrialRecoveryOptions {
  /// Non-null: stream every completed trial into this journal.
  TrialJournal* journal{nullptr};
  /// Non-null: skip trials whose records are already in the journal.
  const ResumeIndex* resume{nullptr};
  /// Wall-clock watchdog per trial attempt, in seconds (0 = disabled).
  double trial_timeout_seconds{0.0};
  /// Total attempts per trial (same seed) before it is quarantined.
  /// 1 with timeout disabled = historical behavior (exceptions propagate);
  /// quarantine-on-exhaustion engages only when attempts > 1 or a watchdog
  /// timeout is armed.
  unsigned trial_attempts{1};

  /// True when any non-default behavior is requested.
  [[nodiscard]] bool active() const {
    return journal != nullptr || resume != nullptr || trial_timeout_seconds > 0.0 ||
           trial_attempts > 1;
  }
  /// Quarantine (record + skip) instead of propagating once the attempt
  /// budget is spent?
  [[nodiscard]] bool quarantine_enabled() const {
    return trial_attempts > 1 || trial_timeout_seconds > 0.0;
  }
};

/// What one controlled loop actually did. Studies aggregate these across
/// batches; drivers print the summary and pick the exit code.
struct BatchReport {
  std::size_t executed{0};       ///< trials simulated this run
  std::size_t resumed{0};        ///< trials restored from the journal
  std::size_t retried{0};        ///< extra attempts after a failure/timeout
  std::size_t quarantined{0};    ///< trials recorded as failed and skipped
  std::size_t stale_records{0};  ///< journal records ignored (seed/payload mismatch)
  bool interrupted{false};       ///< a shutdown signal drained the loop early

  void merge(const BatchReport& other) {
    executed += other.executed;
    resumed += other.resumed;
    retried += other.retried;
    quarantined += other.quarantined;
    stale_records += other.stale_records;
    interrupted = interrupted || other.interrupted;
  }

  /// One human-readable line ("1200 executed, 800 resumed, ...") for driver
  /// output; empty counts are elided.
  [[nodiscard]] std::string summary() const {
    std::string out = std::to_string(executed) + " executed";
    if (resumed != 0) out += ", " + std::to_string(resumed) + " resumed from journal";
    if (retried != 0) out += ", " + std::to_string(retried) + " retried";
    if (quarantined != 0) out += ", " + std::to_string(quarantined) + " quarantined";
    if (stale_records != 0) {
      out += ", " + std::to_string(stale_records) + " stale journal records ignored";
    }
    if (interrupted) out += " [interrupted]";
    return out;
  }
};

}  // namespace xres::recovery
