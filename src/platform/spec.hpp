#pragma once

/// \file spec.hpp
/// Hardware description of the simulated machine (paper Section III-C).
///
/// The exascale defaults extrapolate the Sunway TaihuLight architecture:
/// 4× the CPE count per node (260 → 1028 cores, ~3.1 → ~12 TFLOPS), 4× the
/// node memory (32 → 128 GB) with hybrid-memory-cube-class aggregate
/// bandwidth (320 GB/s), and an "NDR InfiniBand"-class interconnect
/// (latency 0.5 µs, 600 GB/s, 12 simultaneous switch connections). 120,000
/// such nodes reach an exaflop.

#include <cstdint>
#include <string>

#include "util/units.hpp"

namespace xres {

/// A single compute node.
struct NodeSpec {
  double tflops{12.0};                ///< peak compute per node
  std::uint32_t cores{1028};          ///< CPU cores per node
  DataSize memory{DataSize::gigabytes(128.0)};
  /// Aggregate memory bandwidth B_M used for in-RAM checkpoints (Eq. 5).
  Bandwidth memory_bandwidth{Bandwidth::gigabytes_per_second(320.0)};

  friend bool operator==(const NodeSpec&, const NodeSpec&) = default;
};

/// The interconnect + parallel-file-system path (paper Section III-F).
struct NetworkSpec {
  Duration latency{Duration::microseconds(0.5)};  ///< L
  Bandwidth bandwidth{Bandwidth::gigabytes_per_second(600.0)};  ///< B_N
  std::uint32_t switch_connections{12};  ///< N_S: simultaneous connections per switch

  friend bool operator==(const NetworkSpec&, const NetworkSpec&) = default;
};

/// Which platform model answers data-movement questions
/// (platform/platform_model.hpp).
enum class PlatformModelKind {
  kFlat,     ///< the paper's closed-form constants (Eq. 3/5/6), the default
  kFattree,  ///< k-ary fat-tree zone + queued PFS device
};

[[nodiscard]] const char* to_string(PlatformModelKind kind);
/// Parses "flat" / "fattree"; throws CheckError naming the value otherwise.
[[nodiscard]] PlatformModelKind platform_model_from_string(const std::string& name);

/// Parameters of the fat-tree interconnect zone (used when
/// `PlatformSpec::model == kFattree`).
struct FatTreeParams {
  /// Nodes per leaf switch (the tree's arity k). The exascale default
  /// mirrors N_S so a full leaf exactly saturates its uplink.
  std::uint32_t leaf_radix{12};
  /// Per-level uplink taper: a level-l subtree's uplink carries
  /// N_S · B_N · taper^(l-1). 1.0 = full bisection (non-blocking).
  double taper{1.0};
  /// PFS service channels (spindles/gateway streams); 0 = use N_S.
  std::uint32_t pfs_channels{0};

  friend bool operator==(const FatTreeParams&, const FatTreeParams&) = default;
};

/// Platform-model selection, carried by MachineSpec. The default (`flat`)
/// leaves every artifact byte-identical to the pre-topology code.
struct PlatformSpec {
  PlatformModelKind model{PlatformModelKind::kFlat};
  FatTreeParams fattree{};
  /// Flat only: shared PFS gateways g. 0 (the paper) prices every PFS
  /// transfer with Eq. 3 alone; g > 0 makes concurrent applications share
  /// a processor-sharing PFS device of aggregate g · B_N · N_S, each capped
  /// at its Eq.-3 rate B_N · N_S (ablation_pfs_contention).
  std::uint32_t pfs_gateways{0};

  /// Validates topology parameters; throws CheckError otherwise.
  void validate() const;

  /// Short parenthesized summary, e.g. "fattree(radix=12,taper=1.00,pfs=12)".
  [[nodiscard]] std::string describe() const;

  friend bool operator==(const PlatformSpec&, const PlatformSpec&) = default;
};

/// The whole machine.
struct MachineSpec {
  NodeSpec node{};
  NetworkSpec network{};
  std::uint32_t node_count{120000};
  PlatformSpec platform{};

  /// The paper's exascale system (defaults above).
  [[nodiscard]] static MachineSpec exascale();

  /// A small machine for unit tests and examples.
  [[nodiscard]] static MachineSpec testbed(std::uint32_t nodes);

  /// Aggregate peak performance in PFLOPS.
  [[nodiscard]] double total_pflops() const {
    return node.tflops * static_cast<double>(node_count) / 1000.0;
  }

  /// Total cores across the machine.
  [[nodiscard]] std::uint64_t total_cores() const {
    return static_cast<std::uint64_t>(node.cores) * node_count;
  }

  /// Validates physical plausibility; throws CheckError otherwise.
  void validate() const;

  /// One-line human-readable description.
  [[nodiscard]] std::string describe() const;

  friend bool operator==(const MachineSpec&, const MachineSpec&) = default;
};

}  // namespace xres
