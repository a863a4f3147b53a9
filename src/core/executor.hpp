#pragma once

/// \file executor.hpp
/// The unified trial-execution API. Every figure in the paper is a Monte
/// Carlo sweep of independent seeded trials; this header provides
///
///  * `TrialSpec` — a value describing ONE trial: what to run (a
///    planner-driven application config, an explicit plan, or a plan
///    replayed against a fixed failure trace) plus the seed keys that
///    identify the trial within a study,
///  * `run_trial` — execute one trial synchronously,
///  * `TrialExecutor` — run units on a fixed-size worker pool with
///    deterministic, thread-count-invariant results, through one unit
///    loop and three entry points: `for_each` (a plain parallel-for),
///    `run_journaled` (the crash-safe loop: resume, watchdog, retries,
///    quarantine, journal, drain) and `run_batch` (a batch of specs
///    through `run_journaled`).
///
/// ## Seed-derivation contract
///
/// A trial's RNG seed is `derive_seed(root, key_0, ..., key_{k-1})` where
/// `root` is the study's root seed and the keys identify the trial (for the
/// efficiency studies: size index, technique index, trial index). The
/// executor applies exactly this derivation, so any single trial of any
/// figure can be regenerated in isolation with `run_trial` (DESIGN.md §6).
/// A spec with NO keys runs with the root seed itself.
///
/// ## Determinism
///
/// `run_batch` writes each trial's result into a slot indexed by the
/// spec's position; callers reduce the returned vector in spec order.
/// Because neither the per-trial seeds nor the reduction order depend on
/// scheduling, results are bit-identical for every thread count —
/// including `threads == 1`, which reproduces the historical serial path
/// byte for byte. (`Summary::merge` / `RunningStats::merge` additionally
/// support Chan-et-al. pooling of pre-reduced partials, e.g. across
/// processes; within one study we prefer ordered reduction because
/// floating-point merge order would otherwise vary with the partition.)

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "apps/application.hpp"
#include "failure/distribution.hpp"
#include "failure/trace.hpp"
#include "obs/trial_obs.hpp"
#include "platform/spec.hpp"
#include "recovery/options.hpp"
#include "resilience/config.hpp"
#include "resilience/plan.hpp"
#include "resilience/technique.hpp"
#include "runtime/result.hpp"
#include "util/rng.hpp"

namespace xres {

/// One simulated execution of one application under one technique, with
/// the plan derived by the planner (`make_plan`) at execution time.
struct SingleAppTrialConfig {
  AppSpec app{};
  TechniqueKind technique{TechniqueKind::kCheckpointRestart};
  MachineSpec machine{};
  ResilienceConfig resilience{};
  FailureDistribution failure_distribution{FailureDistribution::exponential()};
};

/// Execute an explicit (possibly hand-modified) plan under its own failure
/// rate. Used by ablation harnesses that override planner decisions such
/// as the checkpoint interval.
struct PlanTrialSpec {
  ExecutionPlan plan{};
  ResilienceConfig resilience{};
  FailureDistribution failure_distribution{FailureDistribution::exponential()};
};

/// Execute a plan against a *replayed* failure trace (common random
/// numbers): every technique compared against the same trace sees
/// byte-identical failure times and severities, which removes
/// failure-sampling variance from technique deltas. The trial seed still
/// drives the runtime's internal randomness (redundancy victim
/// classification).
struct TraceTrialSpec {
  ExecutionPlan plan{};
  ResilienceConfig resilience{};
  FailureTrace trace{};
};

/// What one trial executes.
using TrialWork = std::variant<SingleAppTrialConfig, PlanTrialSpec, TraceTrialSpec>;

/// One trial of a study: the work plus the seed keys that identify it.
struct TrialSpec {
  TrialWork work{SingleAppTrialConfig{}};
  /// Mixed with the batch's root seed (see the seed-derivation contract
  /// above). Empty: the trial runs with the root seed unchanged.
  std::vector<std::uint64_t> seed_keys{};

  /// The trial's final seed under root seed \p root.
  [[nodiscard]] std::uint64_t derived_seed(std::uint64_t root) const;
};

/// Run one trial with the given (already derived) seed, on the single-app
/// trial engine (core/trial_engine.hpp). Infeasible plans (redundancy
/// larger than the machine) return a zero-efficiency result without
/// simulating, as in the paper's zero-height bars.
///
/// \p obs (optional, may be null) collects the trial's metrics and/or
/// sim-time trace; it must be single-threaded for the trial's duration.
/// Observation never perturbs the simulation: the result is byte-identical
/// with and without it.
[[nodiscard]] ExecutionResult run_trial(const SingleAppTrialConfig& config,
                                        std::uint64_t seed,
                                        obs::TrialObs* obs = nullptr);
[[nodiscard]] ExecutionResult run_trial(const PlanTrialSpec& spec, std::uint64_t seed,
                                        obs::TrialObs* obs = nullptr);
[[nodiscard]] ExecutionResult run_trial(const TraceTrialSpec& spec, std::uint64_t seed,
                                        obs::TrialObs* obs = nullptr);

/// Run one spec under a study root seed (applies the seed-derivation
/// contract).
[[nodiscard]] ExecutionResult run_trial(const TrialSpec& spec, std::uint64_t root_seed,
                                        obs::TrialObs* obs = nullptr);

/// Progress callback: (completed units, total units). The executor invokes
/// it from worker threads under an internal mutex, so one invocation runs
/// at a time and `done` is strictly increasing — callbacks may freely
/// update shared state or write to a stream without their own locking.
using TrialProgress = std::function<void(std::size_t, std::size_t)>;

/// Fixed-size thread-pool executor for trial batches.
///
/// Work distribution is dynamic (an atomic work index hands out the next
/// unit to the first idle worker) but results are written into per-unit
/// slots, so the output — and anything reduced from it in spec order — is
/// independent of the distribution. One unit loop serves all three entry
/// points; with one worker it runs on the calling thread, with no pool.
class TrialExecutor {
 public:
  /// \p threads 0 selects `std::thread::hardware_concurrency()` (minimum 1).
  explicit TrialExecutor(unsigned threads = 0);

  /// The resolved worker count.
  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Generic deterministic parallel-for: invokes `body(i)` once for each
  /// `i` in `[0, count)` across the worker pool. `body` must only write to
  /// state owned by index `i`. The first exception stops the loop and is
  /// rethrown on the calling thread. Never drains on a shutdown signal:
  /// callers reduce every slot.
  void for_each(std::size_t count, const std::function<void(std::size_t)>& body,
                const TrialProgress& progress = {}) const;

  /// The one crash-safe unit loop (docs/ROBUSTNESS.md) behind trial
  /// batches, workload studies and the workload ablations' pattern runs:
  /// `result[i] = run(i, obs)` for each unit, and the only code that
  /// consults `rec.resume`. A record of (\p label, i) whose seed equals
  /// `fingerprint(i)` is restored instead of re-run, together with its
  /// journaled metrics when \p observers ask for metrics, so merged
  /// `--metrics` output stays byte-identical. It is re-run instead when its
  /// fingerprint or payload is stale (counted in `report->stale_records`),
  /// when the unit carries a trace observer, or when it lacks metrics that
  /// are requested now. Each attempt runs under the `rec` watchdog and
  /// completed units stream into `rec.journal`. A failed attempt is retried
  /// with the same index up to `rec.trial_attempts` in all; a unit that
  /// exhausts them becomes `Result{}` with a journaled quarantine marker
  /// (plus a clean metric set when metrics are on) when
  /// `rec.quarantine_enabled()`, and otherwise fails the loop with its
  /// exception. Only a loop with a journal drains on a shutdown signal
  /// (recovery/shutdown.hpp): it stops handing out units, lets the ones in
  /// flight finish and sets `report->interrupted`; the result is then only
  /// valid at indices the loop finished, and callers must not reduce it.
  /// \p observers may be empty (unobserved) or one per unit; enabled
  /// channels are re-armed before every attempt. Whether a unit ran or was
  /// restored never depends on scheduling. Instantiated for
  /// ExecutionResult and WorkloadRunResult.
  template <typename Result>
  [[nodiscard]] std::vector<Result> run_journaled(
      std::size_t count, const std::function<Result(std::size_t, obs::TrialObs*)>& run,
      std::span<obs::TrialObs> observers, const recovery::TrialRecoveryOptions& rec,
      const std::string& label, const std::function<std::uint64_t(std::size_t)>& fingerprint,
      recovery::BatchReport* report = nullptr, const TrialProgress& progress = {}) const;

  /// Run every spec through run_journaled; `result[i]` is spec `i`'s
  /// outcome, deterministic and thread-count-invariant (see file comment).
  /// Each trial is fingerprinted by its derived seed, and \p batch_label
  /// namespaces the batch's records within the journal. \p observers, if
  /// not empty, holds one observer per spec, already enabled for the
  /// channels the caller wants; each is touched only by the worker running
  /// its trial, so merging them in spec order (`MetricSet::merge`) is
  /// thread-count-invariant like the results. With the defaults the batch
  /// is a plain loop: no journal, no drain, exceptions propagate.
  [[nodiscard]] std::vector<ExecutionResult> run_batch(
      std::uint64_t root_seed, std::span<const TrialSpec> specs,
      std::span<obs::TrialObs> observers = {},
      const recovery::TrialRecoveryOptions& rec = {}, const std::string& batch_label = {},
      recovery::BatchReport* report = nullptr, const TrialProgress& progress = {}) const;

 private:
  unsigned threads_;
};

}  // namespace xres
