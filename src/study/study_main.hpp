#pragma once

/// \file study_main.hpp
/// The one generic study driver: `xres run <study>` forwards here, and
/// `xres run --from spec.toml` uses the definition overload with a
/// runtime-materialized study.

#include <chrono>
#include <string>

#include "obs/ledger.hpp"
#include "obs/perf.hpp"
#include "study/context.hpp"
#include "study/registry.hpp"

namespace xres::study {

/// Parse \p argv against the study's declared option surface, then run it.
/// Returns the process exit code (0; CliParser::kExitUsage paths exit
/// directly; recovery::kExitInterrupted after a drained shutdown). Unknown
/// \p name prints the catalog hint to stderr and returns 1.
int study_main(const std::string& name, int argc, const char* const* argv);

/// Same, for a definition the caller owns (a spec-file study materialized
/// at runtime — see spec.hpp).
int study_main(const StudyDefinition& def, int argc, const char* const* argv);

/// Programmatic entry (suite runner, sweep cells, tests): run \p def with
/// explicit parameter bindings and harness options, no CLI involved.
int run_study(const StudyDefinition& def, ParamSet params, HarnessOptions options);

/// The one run-record finisher, for study runs and suite runs: fill in what
/// \p record learns only when the run ends (wall time since \p start, the
/// perf counter delta since \p before, trial and event rates, peak RSS),
/// then append it to \p ledger_path and print the ledger banner. An empty
/// \p ledger_path appends nothing.
void finish_run_record(obs::RunRecord& record, const obs::PerfCounters& before,
                       std::chrono::steady_clock::time_point start,
                       const std::string& ledger_path);

}  // namespace xres::study
