#include "platform/spec.hpp"

#include <cstdio>

#include "util/check.hpp"

namespace xres {

MachineSpec MachineSpec::exascale() { return MachineSpec{}; }

MachineSpec MachineSpec::testbed(std::uint32_t nodes) {
  MachineSpec spec;
  spec.node_count = nodes;
  spec.validate();
  return spec;
}

const char* to_string(PlatformModelKind kind) {
  switch (kind) {
    case PlatformModelKind::kFlat: return "flat";
    case PlatformModelKind::kFattree: return "fattree";
  }
  XRES_CHECK(false, "unknown platform model kind");
}

PlatformModelKind platform_model_from_string(const std::string& name) {
  if (name == "flat") return PlatformModelKind::kFlat;
  if (name == "fattree") return PlatformModelKind::kFattree;
  XRES_CHECK(false, "platform.model must be 'flat' or 'fattree', got '" + name + "'");
}

void PlatformSpec::validate() const {
  XRES_CHECK(fattree.leaf_radix >= 2, "platform.fattree.radix must be at least 2");
  XRES_CHECK(fattree.taper > 0.0 && fattree.taper <= 1.0,
             "platform.fattree.taper must be in (0, 1]");
  XRES_CHECK(pfs_gateways == 0 || model == PlatformModelKind::kFlat,
             "PFS gateways are a flat-platform option; the fat tree queues PFS "
             "transfers on platform.pfs.channels");
}

std::string PlatformSpec::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s(radix=%u,taper=%.2f,pfs=%u)",
                to_string(model), fattree.leaf_radix, fattree.taper,
                fattree.pfs_channels);
  return buf;
}

void MachineSpec::validate() const {
  XRES_CHECK(node_count > 0, "machine needs at least one node");
  XRES_CHECK(node.tflops > 0.0, "node compute must be positive");
  XRES_CHECK(node.cores > 0, "node core count must be positive");
  XRES_CHECK(node.memory > DataSize::zero(), "node memory must be positive");
  XRES_CHECK(node.memory_bandwidth > Bandwidth::bytes_per_second(0.0),
             "memory bandwidth must be positive");
  XRES_CHECK(network.latency >= Duration::zero(), "latency must be non-negative");
  XRES_CHECK(network.bandwidth > Bandwidth::bytes_per_second(0.0),
             "network bandwidth must be positive");
  XRES_CHECK(network.switch_connections > 0, "switch connection count must be positive");
  platform.validate();
}

std::string MachineSpec::describe() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%u nodes x %.1f TFLOPS (%u cores, %s RAM) = %.1f PFLOPS; "
                "net %.0f GB/s, L=%s, N_S=%u",
                node_count, node.tflops, node.cores, to_string(node.memory).c_str(),
                total_pflops(), network.bandwidth.to_gigabytes_per_second(),
                to_string(network.latency).c_str(), network.switch_connections);
  std::string out{buf};
  // Appended only for non-default models: the flat describe() string is a
  // frozen artifact (figure headers, surrogate memo keys).
  if (platform.model != PlatformModelKind::kFlat) {
    out += "; platform=";
    out += platform.describe();
  }
  return out;
}

}  // namespace xres
