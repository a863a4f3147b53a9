#pragma once

/// \file context.hpp
/// What a study's run function receives: the parsed parameter bindings,
/// the shared harness options, and lazily-constructed obs/recovery
/// plumbing. Laziness is deliberate — the coordinator prints its
/// journal/resume banner when constructed, so a driver touches recovery()
/// at exactly the code point where the pre-registry binary constructed its
/// RecoveryCoordinator, keeping stdout byte-identical.

#include <optional>
#include <string>

#include "study/harness.hpp"
#include "study/options.hpp"
#include "study/registry.hpp"
#include "util/table.hpp"

namespace xres::study {

class StudyContext {
 public:
  StudyContext(const StudyDefinition& def, ParamSet params, HarnessOptions options)
      : def_{&def}, params_{std::move(params)}, options_{std::move(options)} {}

  StudyContext(const StudyContext&) = delete;
  StudyContext& operator=(const StudyContext&) = delete;

  [[nodiscard]] const StudyDefinition& definition() const { return *def_; }
  [[nodiscard]] const ParamSet& params() const { return params_; }
  [[nodiscard]] const HarnessOptions& options() const { return options_; }

  [[nodiscard]] std::uint64_t seed() const { return options_.seed; }

  /// Worker threads for the study's runs: --threads (0 = all hardware
  /// threads), or 1 for a definition without --threads, whatever the
  /// harness options say.
  [[nodiscard]] unsigned threads() const {
    return def_->options.threads ? options_.threads : 1;
  }

  /// A trial executor with threads() workers.
  [[nodiscard]] TrialExecutor make_executor() const { return TrialExecutor{threads()}; }

  /// The run's ObsCollector, constructed from --metrics/--trace on first use.
  [[nodiscard]] ObsCollector& collector();

  /// The run's RecoveryCoordinator, constructed on first use — which loads
  /// the resume index, prints the journal banner, opens the journal and
  /// installs the shutdown handlers. The journal is identified by the
  /// study's journal_study() and --seed.
  [[nodiscard]] RecoveryCoordinator& recovery();

  /// Emit \p table as CSV if requested: to --csv-path (with a status
  /// notice) or to stdout preceded by a blank line. No-op when CSV output
  /// was not requested.
  void emit_csv(const Table& table);

 private:
  const StudyDefinition* def_;
  ParamSet params_;
  HarnessOptions options_;
  std::optional<ObsCollector> collector_;
  std::optional<RecoveryCoordinator> recovery_;
};

}  // namespace xres::study
