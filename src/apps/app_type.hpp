#pragma once

/// \file app_type.hpp
/// The eight synthetic benchmark application types of paper Table I.
///
/// Each type is an equation-based benchmark inspired by the NAS Parallel
/// Benchmark scaling analysis of Van der Wijngaart et al. [6]: execution is
/// a sequence of identical one-minute time steps, each spending a fraction
/// T_C communicating and T_W = 1 - T_C computing. Communication intensity
/// takes four levels (0%, 25%, 50%, 75% — EP-like through heavily
/// communication-bound BT-like) and per-node memory two levels (32/64 GB),
/// giving types A32..D64. All types scale weakly: per-node time and memory
/// are invariant in application size.

#include <array>
#include <compare>
#include <string>

#include "util/units.hpp"

namespace xres {

/// Communication-intensity class (rows of Table I).
enum class CommClass { kA = 0, kB = 1, kC = 2, kD = 3 };

/// Memory-per-node class (columns of Table I).
enum class MemoryClass { k32GB = 0, k64GB = 1 };

/// One of the eight Table-I synthetic application types.
struct AppType {
  std::string name;        ///< e.g. "C64"
  double comm_fraction;    ///< T_C, fraction of each time step spent communicating
  DataSize memory_per_node;  ///< N_m

  /// T_W = 1 - T_C.
  [[nodiscard]] double work_fraction() const { return 1.0 - comm_fraction; }

  friend auto operator<=>(const AppType&, const AppType&) = default;
};

/// Length of one synthetic time step (paper: one minute).
[[nodiscard]] constexpr Duration time_step_length() { return Duration::minutes(1.0); }

/// Look up a Table-I type by class pair.
[[nodiscard]] AppType app_type(CommClass comm, MemoryClass mem);

/// Look up by name ("A32".."D64"); throws CheckError for unknown names.
[[nodiscard]] AppType app_type_by_name(const std::string& name);

/// All eight types in Table-I order (A32, A64, B32, ..., D64).
[[nodiscard]] const std::array<AppType, 8>& all_app_types();

}  // namespace xres
