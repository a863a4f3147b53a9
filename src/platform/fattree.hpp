#pragma once

/// \file fattree.hpp
/// k-ary fat-tree interconnect zone over a MachineSpec (docs/PLATFORM.md).
///
/// Nodes are leaves of a k-ary tree (k = platform.fattree.leaf_radix).
/// Each node injects at most B_N onto its leaf link; a level-l subtree
/// (radix^l nodes, strictly smaller than the machine — the root's hop to
/// the PFS is the queued device itself) drains through an uplink of
/// capacity N_S · B_N · taper^(l-1), so with taper = 1 a full leaf of
/// k = N_S nodes exactly saturates its uplink and the tree is
/// non-blocking.
///
/// An application's aggregate PFS injection bandwidth is
///
///   min( N_a · B_N,  min over levels l of  spanned(l) · uplink(l) )
///
/// where spanned(l) counts the distinct level-l subtrees its nodes touch.
/// The PFS device itself serves N_S channels of B_N each (aggregate
/// B_N · N_S — Eq. 3's constant), so:
///
///  * any contiguous application with N_a ≥ N_S is PFS-bound and its
///    uncongested transfer time equals Eq. 3 *exactly* (the flat model);
///  * an application with N_a < N_S is injection-bound — slower than
///    Eq. 3 by a factor of N_S / N_a. That gap is the model's
///    measured-vs-Eq.-3 divergence, reported by the
///    ablation_pfs_contention_topology study;
///  * under taper < 1 or fragmented placement, upper-level uplinks bind
///    and placement sensitivity becomes a runnable experiment (the
///    TopoPack scheduler packs applications under common switches).

#include <cstdint>
#include <vector>

#include "platform/platform_model.hpp"
#include "platform/spec.hpp"
#include "util/units.hpp"

namespace xres {

/// Geometry of the fat-tree zone: levels, subtree sizes, uplink capacities.
class FatTreeTopology {
 public:
  FatTreeTopology(std::uint32_t node_count, const NetworkSpec& net,
                  const FatTreeParams& params);

  /// Uplink levels above the nodes (level 1 = leaf switches). The root is
  /// not a level: its hop to the PFS is the queued device's aggregate, so
  /// a machine that fits one leaf has zero levels.
  [[nodiscard]] std::uint32_t levels() const {
    return static_cast<std::uint32_t>(uplink_bps_.size());
  }

  /// Nodes under one level-l subtree (radix^l, saturating).
  [[nodiscard]] std::uint64_t subtree_size(std::uint32_t level) const;

  /// Uplink capacity of one level-l subtree: N_S · B_N · taper^(l-1).
  [[nodiscard]] Bandwidth uplink(std::uint32_t level) const;

  /// Distinct level-`level` subtrees touched by nodes [first, first+count).
  [[nodiscard]] std::uint64_t spanned_subtrees(std::uint32_t level, std::uint32_t first,
                                               std::uint32_t count) const;

  /// Aggregate injection bandwidth of nodes [first, first+count): per-node
  /// links and every uplink level considered.
  [[nodiscard]] Bandwidth injection_bandwidth(std::uint32_t first,
                                              std::uint32_t count) const;

 private:
  std::uint32_t radix_;
  double per_node_bps_;
  /// uplink_bps_[l-1] = capacity of one level-l subtree's uplink.
  std::vector<double> uplink_bps_;
};

/// Topology-aware PlatformModel: PFS costs from fat-tree injection caps and
/// the shared PFS device; RAM and partner-copy costs identical to flat
/// (they never cross the tree's upper levels).
class FatTreePlatformModel final : public PlatformModel {
 public:
  explicit FatTreePlatformModel(const MachineSpec& machine);

  [[nodiscard]] const char* name() const override { return "fattree"; }
  [[nodiscard]] Duration pfs_transfer_time(DataSize memory_per_node,
                                           std::uint32_t app_nodes) const override;
  [[nodiscard]] Bandwidth pfs_effective_bandwidth(std::uint32_t app_nodes) const override;
  [[nodiscard]] Bandwidth pfs_rate_cap_for_range(std::uint32_t first_node,
                                                 std::uint32_t count) const override;
  [[nodiscard]] Duration local_memory_time(DataSize memory_per_node) const override;
  [[nodiscard]] Duration partner_copy_time(DataSize memory_per_node) const override;
  /// FIFO admission to `platform.pfs.channels` channels (0 = N_S) of B_N.
  [[nodiscard]] std::optional<PfsDeviceShape> pfs_device() const override {
    return device_;
  }

  [[nodiscard]] const FatTreeTopology& topology() const { return topology_; }

 private:
  MachineSpec machine_;
  FatTreeTopology topology_;
  PfsDeviceShape device_;
};

}  // namespace xres
