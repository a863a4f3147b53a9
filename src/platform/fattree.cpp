#include "platform/fattree.hpp"

#include <algorithm>

#include "platform/transfer.hpp"
#include "util/check.hpp"

namespace xres {

FatTreeTopology::FatTreeTopology(std::uint32_t node_count, const NetworkSpec& net,
                                 const FatTreeParams& params)
    : radix_{params.leaf_radix}, per_node_bps_{net.bandwidth.to_bytes_per_second()} {
  XRES_CHECK(node_count > 0, "fat tree needs at least one node");
  XRES_CHECK(radix_ >= 2, "fat-tree radix must be at least 2");
  // Grow levels while a subtree is a strict subset of the machine: the
  // root has no tree uplink — its hop to the PFS is the queued device
  // itself (whose aggregate caps the rate in pfs_rate_cap_for_range), so
  // including it here would pin every cap to the top taper and erase
  // placement sensitivity.
  const double base_uplink =
      net.bandwidth.to_bytes_per_second() * static_cast<double>(net.switch_connections);
  std::uint64_t size = radix_;
  double uplink = base_uplink;
  while (size < node_count) {
    uplink_bps_.push_back(uplink);
    uplink *= params.taper;
    size *= radix_;
  }
}

std::uint64_t FatTreeTopology::subtree_size(std::uint32_t level) const {
  XRES_CHECK(level >= 1 && level <= levels(), "fat-tree level out of range");
  std::uint64_t size = 1;
  for (std::uint32_t l = 0; l < level; ++l) size *= radix_;
  return size;
}

Bandwidth FatTreeTopology::uplink(std::uint32_t level) const {
  XRES_CHECK(level >= 1 && level <= levels(), "fat-tree level out of range");
  return Bandwidth::bytes_per_second(uplink_bps_[level - 1]);
}

std::uint64_t FatTreeTopology::spanned_subtrees(std::uint32_t level, std::uint32_t first,
                                                std::uint32_t count) const {
  XRES_CHECK(count > 0, "spanned_subtrees needs a non-empty range");
  const std::uint64_t size = subtree_size(level);
  const std::uint64_t lo = first / size;
  const std::uint64_t hi = (static_cast<std::uint64_t>(first) + count - 1) / size;
  return hi - lo + 1;
}

Bandwidth FatTreeTopology::injection_bandwidth(std::uint32_t first,
                                               std::uint32_t count) const {
  XRES_CHECK(count > 0, "injection_bandwidth needs a non-empty range");
  double cap = static_cast<double>(count) * per_node_bps_;
  for (std::uint32_t level = 1; level <= levels(); ++level) {
    const double level_cap =
        static_cast<double>(spanned_subtrees(level, first, count)) *
        uplink_bps_[level - 1];
    cap = std::min(cap, level_cap);
  }
  return Bandwidth::bytes_per_second(cap);
}

namespace {

PfsDeviceShape queued_pfs_device(const MachineSpec& machine) {
  const std::uint32_t configured = machine.platform.fattree.pfs_channels;
  const std::uint32_t channels =
      configured > 0 ? configured : machine.network.switch_connections;
  const Bandwidth aggregate = machine.network.bandwidth * static_cast<double>(channels);
  return PfsDeviceShape{channels, aggregate, aggregate};
}

}  // namespace

FatTreePlatformModel::FatTreePlatformModel(const MachineSpec& machine)
    : machine_{machine},
      topology_{machine.node_count, machine.network, machine.platform.fattree},
      device_{queued_pfs_device(machine)} {}

Duration FatTreePlatformModel::pfs_transfer_time(DataSize memory_per_node,
                                                 std::uint32_t app_nodes) const {
  XRES_CHECK(app_nodes > 0, "application must use at least one node");
  const DataSize total = memory_per_node * static_cast<double>(app_nodes);
  return transfer_time(total, pfs_effective_bandwidth(app_nodes));
}

Bandwidth FatTreePlatformModel::pfs_effective_bandwidth(std::uint32_t app_nodes) const {
  // Aligned contiguous placement (first node on a subtree boundary): the
  // planner's estimate before the allocator has placed the application.
  // Under taper < 1 this is the conservative single-pod figure; the
  // workload engine re-derives the cap from the real range once placed.
  return pfs_rate_cap_for_range(0, app_nodes);
}

Bandwidth FatTreePlatformModel::pfs_rate_cap_for_range(std::uint32_t first_node,
                                                       std::uint32_t count) const {
  const Bandwidth injection = topology_.injection_bandwidth(first_node, count);
  return std::min(injection, device_.aggregate);
}

Duration FatTreePlatformModel::local_memory_time(DataSize memory_per_node) const {
  return local_memory_checkpoint_time(memory_per_node, machine_.node);
}

Duration FatTreePlatformModel::partner_copy_time(DataSize memory_per_node) const {
  return partner_copy_checkpoint_time(memory_per_node, machine_.node,
                                      machine_.network);
}

}  // namespace xres
