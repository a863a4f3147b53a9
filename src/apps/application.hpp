#pragma once

/// \file application.hpp
/// Application instances: a Table-I type scaled to a node count and a time
/// step count, plus the workload-study job wrapper (arrival + deadline,
/// paper Eq. 1).

#include <cstdint>
#include <functional>
#include <string>

#include "apps/app_type.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace xres {

/// A concrete application: type + size + length. Weak scaling means the
/// per-time-step behavior is independent of \p nodes.
struct AppSpec {
  AppType type{};
  std::uint32_t nodes{1};       ///< N_a
  std::uint64_t time_steps{1};  ///< T_S

  /// Delay-free execution time T_B = T_S × (T_W + T_C) = T_S minutes
  /// (no resilience stretch applied).
  [[nodiscard]] Duration baseline_time() const {
    return time_step_length() * static_cast<double>(time_steps);
  }

  /// Total computation (non-communication) time across the run.
  [[nodiscard]] Duration total_work_time() const {
    return baseline_time() * type.work_fraction();
  }

  /// Total communication time across the run.
  [[nodiscard]] Duration total_comm_time() const {
    return baseline_time() * type.comm_fraction;
  }

  /// Aggregate memory footprint (N_m × N_a).
  [[nodiscard]] DataSize total_memory() const {
    return type.memory_per_node * static_cast<double>(nodes);
  }

  /// Construct with a length given as a baseline duration; the duration
  /// must be a whole number of time steps.
  [[nodiscard]] static AppSpec from_baseline(AppType type, std::uint32_t nodes,
                                             Duration baseline);

  /// Short human-readable description, e.g. "D64 x 30000 nodes, 24.00 h".
  [[nodiscard]] std::string describe() const;

  void validate() const;

  friend auto operator<=>(const AppSpec&, const AppSpec&) = default;
};

/// Identifier for an application instance in a workload.
enum class JobId : std::uint64_t {};

}  // namespace xres

template <>
struct std::hash<xres::JobId> {
  std::size_t operator()(xres::JobId id) const noexcept {
    return std::hash<std::uint64_t>{}(static_cast<std::uint64_t>(id));
  }
};

namespace xres {

/// An application submission in the workload studies (Sections VI–VII).
struct Job {
  JobId id{};
  AppSpec spec{};
  TimePoint arrival{};   ///< T_A
  TimePoint deadline{};  ///< T_D (Eq. 1)
};

/// Eq. 1: T_D = T_A + U(1.2, 2.0) × T_B.
[[nodiscard]] TimePoint assign_deadline(TimePoint arrival, Duration baseline, Pcg32& rng);

}  // namespace xres
