#include "study/platform_params.hpp"

#include "study/options.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

namespace xres::study {

void add_platform_params(ParamSchema& schema) {
  if (schema.find(kPlatformModelKey) == nullptr) {
    schema.text(kPlatformModelKey,
                "platform data-movement model: flat (paper Eq. 3/5/6) | "
                "fattree (k-ary fat tree + queued PFS device, docs/PLATFORM.md)",
                "flat");
  }
  if (schema.find(kPlatformRadixKey) == nullptr) {
    schema.integer(kPlatformRadixKey, "fattree: nodes per leaf switch", 12).min(2);
  }
  if (schema.find(kPlatformTaperKey) == nullptr) {
    schema.real(kPlatformTaperKey,
                "fattree: per-level uplink taper in (0, 1]; 1 = full bisection", 1.0)
        .min(1e-6)
        .max(1.0);
  }
  if (schema.find(kPlatformPfsChannelsKey) == nullptr) {
    schema.integer(kPlatformPfsChannelsKey,
                   "fattree: PFS service channels; 0 = N_S", 0)
        .min(0);
  }
}

void materialize_platform(MachineSpec& machine, const ParamSet& params) {
  machine.platform.model = platform_model_from_string(params.str(kPlatformModelKey));
  machine.platform.fattree.leaf_radix = params.u32(kPlatformRadixKey);
  machine.platform.fattree.taper = params.real(kPlatformTaperKey);
  machine.platform.fattree.pfs_channels = params.u32(kPlatformPfsChannelsKey);
  // Spec-file / --set overrides can reach here without ever passing the
  // schema's range checks for *this* combination; the machine itself is
  // the final authority (its messages name the offending platform.* key).
  machine.validate();
}

void apply_platform_params(MachineSpec& machine, const ParamSet& params) {
  try {
    materialize_platform(machine, params);
  } catch (const CheckError& e) {
    usage_error_from(e);
  }
}

void require_flat_platform(const ParamSet& params, const char* study) {
  const std::string model = params.str(kPlatformModelKey);
  if (model == to_string(PlatformModelKind::kFlat)) return;
  CliParser::usage_error(std::string{study} + " sweeps the PFS model itself: " +
                         kPlatformModelKey + " must be flat, got '" + model + "'");
}

}  // namespace xres::study
