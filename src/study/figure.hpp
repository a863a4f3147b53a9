#pragma once

/// \file figure.hpp
/// The Figures-1-3 efficiency-figure runner, and the `surrogate` parameter
/// the figure studies share with the `xres efficiency` adhoc study.

#include <string>

#include "core/single_app_study.hpp"
#include "study/context.hpp"

namespace xres::study {

/// Declares the `surrogate` parameter (core/surrogate.hpp) on \p schema.
void add_surrogate_param(ParamSchema& schema);

/// The `surrogate` binding of \p params; an unknown mode exits with the
/// usage error code (2).
[[nodiscard]] SurrogateMode surrogate_param(const ParamSet& params);

/// Run one Figures-1-3 style efficiency figure and print it in the paper's
/// layout (rows: % of system; columns: technique; cells: mean ± σ over
/// trials). Reads `trials` and `surrogate` from the study's parameters, the
/// rest from the harness options. Honors the crash-safety options (journal/resume/
/// watchdog); the journal is identified by the study's journal id. Returns
/// the driver exit code: 0, or recovery::kExitInterrupted when a shutdown
/// signal drained the study (figure artifacts are then withheld — resume to
/// produce them).
int run_efficiency_figure(const std::string& title, EfficiencyStudyConfig config,
                          StudyContext& ctx);

}  // namespace xres::study
