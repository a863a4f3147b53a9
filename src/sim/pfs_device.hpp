#pragma once

/// \file pfs_device.hpp
/// The machine-wide parallel-file-system device for discrete-event
/// simulations (docs/PLATFORM.md): the one model of PFS contention between
/// concurrent applications.
///
/// The platform model chooses the device's shape (PfsDeviceShape):
///
///  * flat with g shared gateways: unbounded admission, aggregate
///    g · B_N · N_S and a per-stream cap of B_N · N_S, so n concurrent
///    transfers each progress at min(B_N · N_S, g · B_N · N_S / n) — the
///    egalitarian processor-sharing queue;
///  * fattree: FIFO admission to N_S channels of B_N; the rest wait in
///    arrival order, and each in-service transfer is also capped by the
///    injection bandwidth the interconnect grants its application
///    (fattree.hpp).
///
/// In-service transfers fair-share the aggregate bandwidth, each limited by
/// its own rate cap. Progress is exact (no time-stepping): whenever the
/// active set changes, remaining sizes advance at the old rates and the
/// single pending completion event moves to the new earliest finisher.
///
/// The device tracks measured vs. nominal service time so studies can
/// report how far queueing and rate caps diverge from the closed-form Eq. 3
/// cost that a request's `nominal` carries.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>

#include "platform/platform_model.hpp"
#include "sim/simulation.hpp"
#include "util/units.hpp"

namespace xres {

class PfsDevice {
 public:
  using TransferId = std::uint64_t;
  using CompletionCallback = EventCallback;

  PfsDevice(Simulation& sim, const PfsDeviceShape& shape);

  PfsDevice(const PfsDevice&) = delete;
  PfsDevice& operator=(const PfsDevice&) = delete;
  ~PfsDevice();

  /// Submit \p request for service; \p on_complete fires at completion.
  /// A request with topology information moves its bytes under its own
  /// rate cap. Otherwise its nominal duration converts to bytes at the
  /// shape's stream rate, which also caps it. The nominal duration feeds
  /// the divergence accounting either way.
  TransferId begin_transfer(const TransferRequest& request,
                            CompletionCallback on_complete);

  /// Abort a transfer (queued or in service). Returns false when it
  /// already completed or was already cancelled.
  bool cancel(TransferId id);

  [[nodiscard]] std::size_t in_service() const { return active_.size(); }
  [[nodiscard]] std::size_t queued() const { return waiting_.size(); }
  [[nodiscard]] std::uint64_t completed_transfers() const { return completed_; }

  /// Summed wall time (submit → completion) of completed transfers.
  [[nodiscard]] double measured_seconds() const { return measured_seconds_; }
  /// Summed closed-form nominal time of completed transfers.
  [[nodiscard]] double nominal_seconds() const { return nominal_seconds_; }

 private:
  struct Transfer {
    double remaining_bytes{0.0};
    double rate_cap_bps{0.0};
    double submit_s{0.0};
    double nominal_s{0.0};
    CompletionCallback on_complete;
  };

  /// Rate currently granted to one in-service transfer.
  [[nodiscard]] double rate_of(const Transfer& t) const;

  void advance_to_now();
  void reschedule();
  void on_completion_event();
  void admit_from_queue();

  Simulation& sim_;
  std::size_t admission_;
  double aggregate_bps_;
  double stream_bps_;
  std::map<TransferId, Transfer> active_;
  std::deque<TransferId> waiting_;       ///< FIFO admission order
  std::map<TransferId, Transfer> queued_;
  TransferId next_id_{1};
  double last_update_s_{0.0};
  EventId pending_{};
  bool has_pending_{false};
  std::uint64_t completed_{0};
  double measured_seconds_{0.0};
  double nominal_seconds_{0.0};
};

}  // namespace xres
