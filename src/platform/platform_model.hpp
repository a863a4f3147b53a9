#pragma once

/// \file platform_model.hpp
/// Pluggable platform data-movement model (docs/PLATFORM.md).
///
/// Historically the planner called the Eq. 3/5/6 free functions in
/// transfer.hpp directly, so the machine was three constants (L, B_N, N_S)
/// and PFS contention was an analytic assumption. A PlatformModel answers
/// the same questions behind an interface so a topology-aware
/// implementation (fattree.hpp) can report *effective* bandwidths derived
/// from link capacities and placement instead:
///
///  * `flat` (FlatPlatformModel, the default) delegates bit-identically to
///    the transfer.hpp free functions — every pre-topology artifact is
///    unchanged.
///  * `fattree` (FatTreePlatformModel) computes an application's injection
///    bandwidth from the k-ary fat-tree it spans and caps it by the queued
///    PFS device's aggregate service bandwidth (sim/pfs_device.hpp).
///
/// The planner consumes `pfs_transfer_time` / `*_time` when building
/// plans; the workload engine additionally consumes `pfs_device` to size
/// the shared PFS device and `pfs_rate_cap_for_range` to account for the
/// actual allocated node range once placement is known.

#include <cstdint>
#include <memory>
#include <optional>

#include "platform/spec.hpp"
#include "util/units.hpp"

namespace xres {

/// Everything the platform model knows about one checkpoint transfer.
/// `nominal` is always set (the plan's closed-form duration); `bytes` and
/// `rate_cap` are set when the plan was built by a topology-aware model
/// (resilience/plan.hpp) so the device can serve actual data at the
/// application's injection bandwidth.
struct TransferRequest {
  Duration nominal{Duration::zero()};
  DataSize bytes{DataSize::zero()};
  Bandwidth rate_cap{Bandwidth::bytes_per_second(0.0)};

  [[nodiscard]] bool has_topology_info() const {
    return bytes > DataSize::zero() && rate_cap > Bandwidth::bytes_per_second(0.0);
  }
};

/// Shape of the machine-wide PFS device (sim/pfs_device.hpp) that serves a
/// workload run's PFS-backed checkpoint and restart transfers.
struct PfsDeviceShape {
  /// Transfers in service at once; later ones wait in arrival order.
  /// 0 admits every transfer at once (processor sharing).
  std::uint32_t admission{0};
  /// Total service bandwidth, fair-shared by the transfers in service.
  Bandwidth aggregate{Bandwidth::bytes_per_second(0.0)};
  /// Rate of a request without topology information: its nominal duration
  /// converts to bytes at this rate, which also caps the transfer, so a
  /// lone request takes exactly its nominal time.
  Bandwidth stream_rate{Bandwidth::bytes_per_second(0.0)};
};

class PlatformModel {
 public:
  virtual ~PlatformModel() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Time for an N_a-node application to write (or read) a coordinated
  /// checkpoint of \p memory_per_node per node to the PFS, with the
  /// machine otherwise idle (Eq. 3 for the flat model).
  [[nodiscard]] virtual Duration pfs_transfer_time(DataSize memory_per_node,
                                                   std::uint32_t app_nodes) const = 0;

  /// Aggregate application→PFS bandwidth behind `pfs_transfer_time`
  /// (total bytes / time). Flat: B_N · N_S independent of app size.
  [[nodiscard]] virtual Bandwidth pfs_effective_bandwidth(std::uint32_t app_nodes) const = 0;

  /// Placement-aware cap on the aggregate PFS rate for an application
  /// allocated nodes [first, first + count): the minimum over fat-tree
  /// levels of spanned-subtree uplink capacity. The flat model has no
  /// topology, so this equals `pfs_effective_bandwidth(count)`.
  [[nodiscard]] virtual Bandwidth pfs_rate_cap_for_range(std::uint32_t first_node,
                                                         std::uint32_t count) const = 0;

  /// Eq. 5: level-1 checkpoint to node-local RAM.
  [[nodiscard]] virtual Duration local_memory_time(DataSize memory_per_node) const = 0;

  /// Eq. 6: level-2 checkpoint to a contiguous partner node.
  [[nodiscard]] virtual Duration partner_copy_time(DataSize memory_per_node) const = 0;

  /// The shared PFS device workload runs route PFS-backed phases through,
  /// or nullopt when every PFS transfer takes its closed-form time.
  [[nodiscard]] virtual std::optional<PfsDeviceShape> pfs_device() const = 0;
};

/// The paper's closed-form model: Eq. 3/5/6 verbatim.
class FlatPlatformModel final : public PlatformModel {
 public:
  explicit FlatPlatformModel(const MachineSpec& machine) : machine_{machine} {}

  [[nodiscard]] const char* name() const override { return "flat"; }
  [[nodiscard]] Duration pfs_transfer_time(DataSize memory_per_node,
                                           std::uint32_t app_nodes) const override;
  [[nodiscard]] Bandwidth pfs_effective_bandwidth(std::uint32_t app_nodes) const override;
  [[nodiscard]] Bandwidth pfs_rate_cap_for_range(std::uint32_t first_node,
                                                 std::uint32_t count) const override;
  [[nodiscard]] Duration local_memory_time(DataSize memory_per_node) const override;
  [[nodiscard]] Duration partner_copy_time(DataSize memory_per_node) const override;
  /// nullopt unless `PlatformSpec::pfs_gateways` is set; then a
  /// processor-sharing device of aggregate g · B_N · N_S with each stream
  /// capped at its Eq.-3 rate B_N · N_S.
  [[nodiscard]] std::optional<PfsDeviceShape> pfs_device() const override;

 private:
  MachineSpec machine_;
};

/// Builds the model selected by \p machine.platform.model.
[[nodiscard]] std::unique_ptr<PlatformModel> make_platform_model(const MachineSpec& machine);

}  // namespace xres
