#pragma once

/// \file trial_engine.hpp
/// The single-application trial engine behind `run_trial`
/// (core/executor.hpp).
///
/// One driver runs every work kind; only its failure source differs
/// (drawn from the plan's failure distribution, or replayed from a
/// trace). The next failure is the Simulation's horizon; the runtime holds
/// its phase completion and wall-time cap in its own slots and dispatches
/// them inline up to that horizon (sim/simulation.hpp), every event under
/// an insertion seq from the Simulation's one counter. Nothing enters the
/// event queue. The order is the one a Simulation queue gives the same
/// trial built from AppFailureProcess or TraceFailureProcess, so every
/// observable (results, metrics including `sim_events`, traces, RNG draw
/// order, watchdog-poll timing) matches it byte for byte.
/// tests/surrogate_diff_test.cpp builds that queued trial as its reference
/// and fails on any drift.

#include <cstdint>
#include <vector>

#include "core/executor.hpp"
#include "failure/severity.hpp"
#include "resilience/plan.hpp"
#include "runtime/result.hpp"

namespace xres {

/// Seed tags of a trial with seed `s`: its runtime runs on
/// `derive_seed(s, kRuntimeSeedTag)` and its drawn failure stream on
/// `derive_seed(s, kFailureSeedTag)`.
inline constexpr std::uint64_t kRuntimeSeedTag = 0x72756e74696dULL;
inline constexpr std::uint64_t kFailureSeedTag = 0x6661696c7321ULL;

/// Fold one finished trial into its observer: counters/gauges from the
/// ExecutionResult plus the trial-shape histograms, including the exact
/// executed-event count. Shared with the differential test's queued
/// reference so the recorded metrics agree byte for byte.
void record_trial_metrics(obs::TrialObs* obs, const ExecutionResult& r,
                          std::uint64_t sim_events);

/// Thread-local severity-model cache: returns a SeverityModel for
/// \p weights, rebuilding only when the weights change between calls
/// (within a study every trial shares one weight vector, so this is one
/// vector compare per trial instead of a normalize + alias-table build).
[[nodiscard]] const SeverityModel& cached_severity_model(
    const std::vector<double>& weights);

/// Thread-local plan cache for planner-driven trials: returns the
/// make_plan result for \p config, rebuilding only when the configuration
/// changes between calls. Within a study cell every trial shares one
/// configuration, so the multilevel optimizer (the dominant per-trial
/// setup cost) runs once per worker per cell.
[[nodiscard]] const ExecutionPlan& cached_plan(const SingleAppTrialConfig& config);

}  // namespace xres
