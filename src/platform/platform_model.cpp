#include "platform/platform_model.hpp"

#include "platform/fattree.hpp"
#include "platform/transfer.hpp"
#include "util/check.hpp"

namespace xres {

Duration FlatPlatformModel::pfs_transfer_time(DataSize memory_per_node,
                                              std::uint32_t app_nodes) const {
  return pfs_checkpoint_time(memory_per_node, app_nodes, machine_.network);
}

Bandwidth FlatPlatformModel::pfs_effective_bandwidth(std::uint32_t app_nodes) const {
  XRES_CHECK(app_nodes > 0, "application must use at least one node");
  // Eq. 3 rearranged: total bytes N_a·N_m over T = (N_m/B_N)(N_a/N_S)
  // gives B_N · N_S regardless of application size.
  return machine_.network.bandwidth *
         static_cast<double>(machine_.network.switch_connections);
}

Bandwidth FlatPlatformModel::pfs_rate_cap_for_range(std::uint32_t /*first_node*/,
                                                    std::uint32_t count) const {
  return pfs_effective_bandwidth(count);
}

Duration FlatPlatformModel::local_memory_time(DataSize memory_per_node) const {
  return local_memory_checkpoint_time(memory_per_node, machine_.node);
}

Duration FlatPlatformModel::partner_copy_time(DataSize memory_per_node) const {
  return partner_copy_checkpoint_time(memory_per_node, machine_.node,
                                      machine_.network);
}

std::optional<PfsDeviceShape> FlatPlatformModel::pfs_device() const {
  const std::uint32_t gateways = machine_.platform.pfs_gateways;
  if (gateways == 0) return std::nullopt;
  // Contention appears beyond `gateways` concurrent checkpoints.
  const Bandwidth per_stream =
      machine_.network.bandwidth * static_cast<double>(machine_.network.switch_connections);
  return PfsDeviceShape{0, per_stream * static_cast<double>(gateways), per_stream};
}

std::unique_ptr<PlatformModel> make_platform_model(const MachineSpec& machine) {
  switch (machine.platform.model) {
    case PlatformModelKind::kFlat:
      return std::make_unique<FlatPlatformModel>(machine);
    case PlatformModelKind::kFattree:
      return std::make_unique<FatTreePlatformModel>(machine);
  }
  XRES_CHECK(false, "unhandled platform model kind");
}

}  // namespace xres
