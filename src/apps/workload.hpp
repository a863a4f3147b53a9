#pragma once

/// \file workload.hpp
/// Arrival-pattern generation for the oversubscribed workload studies
/// (paper Sections VI and VII).
///
/// A pattern = an initial fill (the machine starts at full utilization)
/// plus 100 Poisson arrivals with a two-hour mean gap. Each arriving
/// application draws its type uniformly from Table I, its baseline from
/// {6, 12, 24, 48} h, and its size from {1, 2, 3, 6, 12, 25, 50}% of the
/// machine (≈10–500 PFLOPS). Section VII additionally biases patterns
/// toward high-memory, high-communication, or large applications.

#include <cstdint>
#include <string>
#include <vector>

#include "apps/application.hpp"
#include "util/rng.hpp"

namespace xres {

/// Application-mix bias (Section VII).
enum class WorkloadBias {
  kUnbiased,           ///< uniform over all of Table I
  kHighMemory,         ///< only N_m = 64 GB types
  kHighCommunication,  ///< only T_C > 0.25 types (C and D classes)
  kLargeApps,          ///< only 12 / 25 / 50 % sizes
};

[[nodiscard]] const char* to_string(WorkloadBias bias);

/// Parse a to_string(WorkloadBias) name; throws CheckError otherwise.
[[nodiscard]] WorkloadBias workload_bias_from_string(const std::string& name);

/// Tunable pattern parameters (paper defaults built in).
struct WorkloadConfig {
  std::uint32_t machine_nodes{120000};
  std::uint32_t arrival_count{100};
  Duration mean_interarrival{Duration::hours(2.0)};
  std::vector<double> size_fractions{0.01, 0.02, 0.03, 0.06, 0.12, 0.25, 0.50};
  std::vector<double> baseline_hours{6.0, 12.0, 24.0, 48.0};
  WorkloadBias bias{WorkloadBias::kUnbiased};
  /// Generate jobs at t = 0 until the machine is (nearly) full.
  bool initial_fill{true};

  void validate() const;
};

/// One reproducible arrival pattern: initial-fill jobs (arrival = 0)
/// followed by Poisson arrivals, all with Eq.-1 deadlines assigned.
struct ArrivalPattern {
  std::vector<Job> jobs;  ///< sorted by arrival time; fill jobs first

  [[nodiscard]] std::size_t size() const { return jobs.size(); }
};

/// Generate pattern \p index of a study seeded with \p root_seed. The same
/// (config, root_seed, index) always yields the same pattern, so every
/// resilience × scheduler combination replays identical workloads
/// (the paper compares techniques "using the same sets of arriving
/// applications").
[[nodiscard]] ArrivalPattern generate_pattern(const WorkloadConfig& config,
                                              std::uint64_t root_seed,
                                              std::uint32_t index);

}  // namespace xres
