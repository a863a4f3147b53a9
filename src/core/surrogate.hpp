#pragma once

/// \file surrogate.hpp
/// The analytic efficiency surrogate: answers study cells from the
/// closed-form predictor (resilience/analytic.hpp) corrected by residuals
/// observed at simulated *anchor* cells, instead of simulating every cell.
///
/// Contract (enforced by tests/surrogate_diff_test.cpp):
///  - anchor cells are simulated with exactly the per-trial seeds the full
///    simulation would use, so their results are byte-identical to it;
///  - every surrogate-answered cell reports an error bound `bound` such
///    that |predicted − simulated mean| ≤ bound for the same seeds;
///  - in auto mode, a cell whose bound exceeds `kAutoBoundThreshold` falls
///    back to full simulation (and is then byte-identical as well).
///
/// The bound is the interpolation bracket plus sampling noise: with
/// residuals r_a, r_b at the bracketing anchors, standard errors
/// sem_a, sem_b of their simulated means, and anchor span
/// s = f_b − f_a (machine-share distance),
///
///   bound = |r_a − r_b| + 2 (sem_a + sem_b)
///         + kBoundMargin + kBoundSpanMargin · s².
///
/// The residual of the true curve at an interior size lies between r_a and
/// r_b up to curvature (efficiency responds monotonically to machine share
/// through the failure rate, Eqs. 1–8). Linear-interpolation error grows
/// with the square of the span, so the margin has a span² part on top of
/// the flat floor; the sem term covers the anchors themselves
/// being sample means.

#include <cstddef>
#include <string>

namespace xres {

/// How an efficiency study answers its cells (EfficiencyStudyConfig).
enum class SurrogateMode {
  kSim,       ///< simulate every cell (the historical path; the default)
  kAnalytic,  ///< anchors simulated, every other cell surrogate-answered
  kAuto,      ///< like kAnalytic, but bound-exceeded cells fall back to sim
};

[[nodiscard]] const char* to_string(SurrogateMode mode);

/// Parse "sim" | "analytic" | "auto"; throws CheckError otherwise.
[[nodiscard]] SurrogateMode surrogate_mode_from_string(const std::string& name);

/// Auto mode simulates a cell instead of answering from the surrogate when
/// its reported bound exceeds this (absolute efficiency).
inline constexpr double kAutoBoundThreshold = 0.05;

/// The slack added to every surrogate bound for interpolation curvature:
/// a flat floor plus a term proportional to the bracketing anchors'
/// machine-share span (wider brackets leave more room for the residual to
/// bend away from the chord; linear-interpolation error is O(span²), so
/// the term is quadratic — tight brackets stay tight).
inline constexpr double kBoundMargin = 0.02;
inline constexpr double kBoundSpanMargin = 0.30;

/// Per-cell provenance, index-aligned with the study result's efficiency
/// grid (EfficiencyStudyResult::surrogate_cells).
struct SurrogateCell {
  bool simulated{true};  ///< cell efficiency comes from full simulation
  bool anchor{false};    ///< simulated as an interpolation anchor
  bool fallback{false};  ///< auto mode: bound exceeded, simulated instead
  double analytic{0.0};  ///< closed-form Eqs. 1–8 prediction alone
  double predicted{0.0};  ///< surrogate prediction (unset when simulated)
  double bound{0.0};      ///< reported |predicted − sim mean| bound
};

/// Which size indices of an n-point sweep are simulated anchors: the
/// endpoints plus every second interior point, so every surrogate cell is
/// bracketed by adjacent anchors one step away.
[[nodiscard]] bool surrogate_anchor_index(std::size_t index, std::size_t count);

/// One anchor's simulated statistics, as consumed by the interpolation.
struct SurrogateAnchor {
  double fraction{0.0};       ///< machine share (interpolation abscissa)
  double analytic{0.0};       ///< closed-form prediction at the anchor
  double mean{0.0};           ///< simulated mean efficiency
  double sem{0.0};            ///< standard error of that mean
  double mean_failures{0.0};  ///< simulated mean failures per trial
};

/// A surrogate answer for one interior cell.
struct SurrogateEstimate {
  double predicted{0.0};
  double bound{0.0};
  double mean_failures{0.0};  ///< residual-interpolated failure count
};

/// Interpolate the analytic residual between the bracketing anchors \p a
/// and \p b for a cell at \p fraction with closed-form prediction
/// \p analytic. Requires a.fraction < b.fraction.
[[nodiscard]] SurrogateEstimate surrogate_estimate(const SurrogateAnchor& a,
                                                   const SurrogateAnchor& b,
                                                   double fraction, double analytic);

}  // namespace xres
