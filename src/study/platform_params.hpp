#pragma once

/// \file platform_params.hpp
/// The shared `--platform.*` parameter surface (docs/PLATFORM.md).
///
/// StudyRegistry::add injects these parameters into every study's schema,
/// so `--platform.model fattree` (or `set platform.model fattree` in a
/// spec file, or `--set platform.model=fattree` in a sweep) works
/// uniformly. Studies that build a MachineSpec call
/// `apply_platform_params` before using it.
///
/// Materialization is where validation happens: schema-level min/max
/// checks cannot see cross-field topology constraints, and historically
/// spec-file/`--set` overrides could bypass `MachineSpec::validate()`
/// entirely. `materialize_platform` therefore re-validates the fully
/// overridden machine and throws CheckError naming the offending key;
/// `apply_platform_params` converts that to the standard usage-error exit
/// (code 2) per the ParamSchema diagnostic contract.

#include "platform/spec.hpp"
#include "study/registry.hpp"

namespace xres::study {

/// Parameter keys injected into every study schema.
inline constexpr const char* kPlatformModelKey = "platform.model";
inline constexpr const char* kPlatformRadixKey = "platform.fattree.radix";
inline constexpr const char* kPlatformTaperKey = "platform.fattree.taper";
inline constexpr const char* kPlatformPfsChannelsKey = "platform.pfs.channels";

/// Adds the platform parameters to \p schema unless already present
/// (idempotent: studies may pre-declare one to change its default).
void add_platform_params(ParamSchema& schema);

/// Applies the platform parameters from \p params onto \p machine and
/// validates the result. Throws CheckError (message names the offending
/// key) on a bad value or an inconsistent machine.
void materialize_platform(MachineSpec& machine, const ParamSet& params);

/// `materialize_platform`, reporting failure as a CLI usage error
/// (exit code 2) — the form study run functions call.
void apply_platform_params(MachineSpec& machine, const ParamSet& params);

/// For studies that sweep the PFS model themselves: exits with the usage
/// error code (2), naming `platform.model`, unless \p params keep the flat
/// default. Call before any pattern runs.
void require_flat_platform(const ParamSet& params, const char* study);

}  // namespace xres::study
