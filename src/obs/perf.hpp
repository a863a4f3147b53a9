#pragma once

/// \file perf.hpp
/// Always-on process-global performance counters. Engine objects accumulate
/// plain (non-atomic) per-object tallies in their hot paths and flush them
/// here exactly once — from a destructor or a batch boundary — so the hot
/// loop costs one integer increment per event and the globals stay
/// TSAN-clean (relaxed atomics touched only at flush points).
///
/// Counter *totals* are deterministic: each is a sum of per-trial values
/// that the determinism contract already fixes, so the same study at
/// `--threads 1` and `--threads 8` reports identical numbers. Wall-clock
/// readings (perf.hpp's consumers pair the counters with timings) are not,
/// which is why they live outside every CRC-checked artifact.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace xres::obs {

/// One coherent reading of every global counter.
struct PerfCounters {
  std::uint64_t events_scheduled{0};
  /// Event-queue pops (multi-app workloads; single-app trials never pop).
  std::uint64_t events_popped{0};
  /// Simulation events executed, popped from the queue or dispatched
  /// directly: Simulation::events_processed() summed over every simulation.
  std::uint64_t events_executed{0};
  /// Slot-holder runs of the Simulation loop: exact-step inline runs plus
  /// lookahead-window slices (sim/simulation.hpp). events_executed divided
  /// by it is the mean run length. A single-app trial's lone holder, which
  /// the trial loop runs directly, is not counted.
  std::uint64_t holder_runs{0};
  std::uint64_t events_cancelled{0};
  std::uint64_t heap_compactions{0};
  std::uint64_t watchdog_polls{0};
  std::uint64_t journal_fsync_batches{0};
  std::uint64_t trials_executed{0};
  std::uint64_t trials_resumed{0};
  std::uint64_t trials_retried{0};
  std::uint64_t trials_quarantined{0};
  /// Single-app trials simulated by the trial engine
  /// (core/trial_engine.hpp). Infeasible plans, which are not simulated,
  /// and workload pattern runs are not counted.
  std::uint64_t batched_trials{0};
  /// Study cells answered by the analytic surrogate without simulating
  /// (core/surrogate.hpp) / cells where the error bound forced a
  /// fall back to full simulation.
  std::uint64_t surrogate_hits{0};
  std::uint64_t surrogate_fallbacks{0};
};

/// Flush one event-queue's lifetime tallies (called from ~EventQueue).
void perf_add_engine(std::uint64_t scheduled, std::uint64_t popped,
                     std::uint64_t cancelled, std::uint64_t compactions);

/// Flush one simulation's executed-event, holder-run and watchdog-poll
/// tallies (called from ~Simulation).
void perf_add_simulation(std::uint64_t events, std::uint64_t holder_runs,
                         std::uint64_t polls);

/// Count one journal fsync batch (called at each successful flush_to_disk).
void perf_add_journal_fsync();

/// Flush one executor batch's trial accounting.
void perf_add_trials(std::uint64_t executed, std::uint64_t resumed,
                     std::uint64_t retried, std::uint64_t quarantined);

/// Flush trials simulated by the single-app trial engine.
void perf_add_batched_trials(std::uint64_t count);

/// Count surrogate-answered cells and bound-exceeded fallbacks.
void perf_add_surrogate(std::uint64_t hits, std::uint64_t fallbacks);

/// Current totals since process start.
[[nodiscard]] PerfCounters perf_snapshot();

/// Totals accumulated after \p since (element-wise difference).
[[nodiscard]] PerfCounters perf_delta(const PerfCounters& since);

/// Counters as (name, value) pairs in the fixed emission order used by
/// perf.json and ledger records.
[[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> perf_counter_items(
    const PerfCounters& counters);

/// Peak resident set size of this process in bytes (getrusage), 0 if
/// unavailable. Nondeterministic by nature; never CRC-checked.
[[nodiscard]] std::uint64_t peak_rss_bytes();

}  // namespace xres::obs
