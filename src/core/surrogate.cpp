#include "core/surrogate.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace xres {

const char* to_string(SurrogateMode mode) {
  switch (mode) {
    case SurrogateMode::kSim: return "sim";
    case SurrogateMode::kAnalytic: return "analytic";
    case SurrogateMode::kAuto: return "auto";
  }
  return "?";
}

SurrogateMode surrogate_mode_from_string(const std::string& name) {
  if (name == "sim") return SurrogateMode::kSim;
  if (name == "analytic") return SurrogateMode::kAnalytic;
  if (name == "auto") return SurrogateMode::kAuto;
  XRES_CHECK(false, "unknown surrogate mode '" + name + "' (expected sim, analytic or auto)");
  return SurrogateMode::kSim;
}

bool surrogate_anchor_index(std::size_t index, std::size_t count) {
  return index == 0 || index + 1 == count || index % 2 == 0;
}

SurrogateEstimate surrogate_estimate(const SurrogateAnchor& a, const SurrogateAnchor& b,
                                     double fraction, double analytic) {
  XRES_CHECK(a.fraction < b.fraction, "surrogate anchors must bracket the cell");
  const double t = (fraction - a.fraction) / (b.fraction - a.fraction);
  const double residual_a = a.mean - a.analytic;
  const double residual_b = b.mean - b.analytic;
  const double residual = (1.0 - t) * residual_a + t * residual_b;

  SurrogateEstimate est;
  est.predicted = std::clamp(analytic + residual, 0.0, 1.0);
  est.bound = std::abs(residual_a - residual_b) + 2.0 * (a.sem + b.sem) +
              kBoundMargin +
              kBoundSpanMargin * (b.fraction - a.fraction) * (b.fraction - a.fraction);
  est.mean_failures = (1.0 - t) * a.mean_failures + t * b.mean_failures;
  return est;
}

}  // namespace xres
