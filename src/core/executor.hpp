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
///  * `TrialExecutor` — run a batch of specs on a fixed-size worker pool
///    with deterministic, thread-count-invariant results.
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

  friend bool operator==(const SingleAppTrialConfig&,
                         const SingleAppTrialConfig&) = default;
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

/// Hooks and policy for a *controlled* executor loop — the crash-safe
/// variant behind `--journal/--resume/--trial-timeout/--trial-retries`
/// (docs/ROBUSTNESS.md). All hooks may be empty. Hooks run on worker
/// threads; like the loop body, each invocation owns only its index's
/// state, except `quarantine`, which the executor serializes internally.
struct TrialLoopControl {
  TrialProgress progress{};
  /// Wall-clock watchdog per attempt, seconds (0 = disabled). Armed as a
  /// thread-local deadline the sim engine polls (util/deadline.hpp).
  double trial_timeout_seconds{0.0};
  /// Total same-seed attempts per unit before giving up (min 1).
  unsigned trial_attempts{1};
  /// Stop handing out new units once a shutdown signal arrives
  /// (recovery/shutdown.hpp); in-flight units drain normally.
  bool drain_on_shutdown{true};
  /// Return true to skip unit i (already restored from a journal). Counted
  /// as `resumed` in the report.
  std::function<bool(std::size_t)> already_done{};
  /// Invoked (serialized) when unit i exhausted its attempts; record a
  /// placeholder outcome. When empty, the last exception propagates and
  /// fails the whole loop — the historical behavior.
  std::function<void(std::size_t, const std::string&)> quarantine{};
};

/// Fixed-size thread-pool executor for trial batches.
///
/// Work distribution is dynamic (an atomic work index hands out the next
/// spec to the first idle worker) but results are written into per-spec
/// slots, so the output — and anything reduced from it in spec order — is
/// independent of the distribution. `threads == 1` runs everything on the
/// calling thread with no pool.
class TrialExecutor {
 public:
  /// \p threads 0 selects `std::thread::hardware_concurrency()` (minimum 1).
  explicit TrialExecutor(unsigned threads = 0);

  /// The resolved worker count.
  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Run every spec; `result[i]` is spec `i`'s outcome. Deterministic and
  /// thread-count-invariant (see file comment). Exceptions thrown by a
  /// trial stop the batch and are rethrown on the calling thread.
  [[nodiscard]] std::vector<ExecutionResult> run_batch(
      std::uint64_t root_seed, std::span<const TrialSpec> specs,
      const TrialProgress& progress = {}) const;

  /// run_batch with per-trial observation: `observers[i]` (already enabled
  /// for the channels the caller wants) collects trial `i`. Observer count
  /// must equal spec count. Each observer is touched only by the worker
  /// running its trial; merging the filled contexts in spec order
  /// (`MetricSet::merge`) is thread-count-invariant like the results.
  [[nodiscard]] std::vector<ExecutionResult> run_batch(
      std::uint64_t root_seed, std::span<const TrialSpec> specs,
      std::span<obs::TrialObs> observers, const TrialProgress& progress = {}) const;

  /// Generic deterministic parallel-for: invokes `body(i)` once for each
  /// `i` in `[0, count)` across the worker pool. `body` must only write to
  /// state owned by index `i`.
  void for_each(std::size_t count, const std::function<void(std::size_t)>& body,
                const TrialProgress& progress = {}) const;

  /// for_each with the crash-safety envelope: resume skipping, a per-
  /// attempt watchdog deadline, bounded same-seed retry with quarantine,
  /// and graceful shutdown draining. Accounting lands in \p report (may be
  /// null). Determinism is unchanged: results still live in per-index
  /// slots, and whether a unit ran or was restored never depends on thread
  /// scheduling.
  void for_each_controlled(std::size_t count,
                           const std::function<void(std::size_t)>& body,
                           const TrialLoopControl& control,
                           recovery::BatchReport* report = nullptr) const;

  /// The one journaled unit loop (docs/ROBUSTNESS.md) behind trial
  /// batches, workload studies and the workload ablations' pattern runs:
  /// `result[i] = run(i, obs)` for each unit under for_each_controlled,
  /// and the only code that consults `rec.resume`. A record of
  /// (\p label, i) whose seed equals `fingerprint(i)` is restored instead
  /// of re-run, together with its journaled metrics when \p observers ask
  /// for metrics, so merged `--metrics` output stays byte-identical. It is
  /// re-run instead when its fingerprint or payload is stale (counted in
  /// `report->stale_records`), when the unit carries a trace observer, or
  /// when it lacks metrics that are requested now. Completed units stream
  /// into `rec.journal`; a unit that exhausts its attempts (when
  /// `rec.quarantine_enabled()`) becomes `Result{}` with a journaled
  /// quarantine marker, plus a clean metric set when metrics are on.
  /// \p observers may be empty (unobserved) or one per unit; enabled
  /// channels are re-armed before every attempt. Instantiated for
  /// ExecutionResult and WorkloadRunResult. On interruption
  /// (report->interrupted) the result is only valid at indices the loop
  /// finished; callers must not reduce it.
  template <typename Result>
  [[nodiscard]] std::vector<Result> run_journaled(
      std::size_t count, const std::function<Result(std::size_t, obs::TrialObs*)>& run,
      std::span<obs::TrialObs> observers, const recovery::TrialRecoveryOptions& rec,
      const std::string& label, const std::function<std::uint64_t(std::size_t)>& fingerprint,
      recovery::BatchReport* report = nullptr, const TrialProgress& progress = {}) const;

  /// run_batch through run_journaled: each trial is fingerprinted by its
  /// derived seed, and \p batch_label namespaces the batch's records
  /// within the journal.
  [[nodiscard]] std::vector<ExecutionResult> run_batch(
      std::uint64_t root_seed, std::span<const TrialSpec> specs,
      std::span<obs::TrialObs> observers, const recovery::TrialRecoveryOptions& rec,
      const std::string& batch_label, recovery::BatchReport* report = nullptr,
      const TrialProgress& progress = {}) const;

 private:
  unsigned threads_;
};

}  // namespace xres
