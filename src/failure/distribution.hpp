#pragma once

/// \file distribution.hpp
/// Inter-arrival time model for failures.
///
/// The paper models failure inter-arrivals as a Poisson process
/// (exponential gaps, Section III-E). Field studies also report
/// Weibull-shaped inter-arrivals (decreasing hazard, shape < 1); we support
/// that as an ablation. The distribution is parameterized by the target
/// *mean* so swapping shapes keeps the average failure rate fixed.

#include "util/rng.hpp"
#include "util/units.hpp"

namespace xres {

/// Which inter-arrival distribution to draw from.
enum class FailureDistributionKind { kExponential, kWeibull };

class FailureDistribution {
 public:
  /// Exponential gaps (memoryless) — the paper's model.
  [[nodiscard]] static FailureDistribution exponential();

  /// Weibull gaps with the given shape (shape 1 == exponential; shape < 1
  /// models infant-mortality / bursty failures). Mean is preserved.
  [[nodiscard]] static FailureDistribution weibull(double shape);

  [[nodiscard]] FailureDistributionKind kind() const { return kind_; }
  [[nodiscard]] double shape() const { return shape_; }

  /// True if the distribution is memoryless, i.e. a pending draw may be
  /// discarded and re-drawn when the event rate changes without biasing
  /// the process.
  [[nodiscard]] bool memoryless() const {
    return kind_ == FailureDistributionKind::kExponential;
  }

  /// Draw one inter-arrival gap with expected value rate.mean_interval().
  /// Returns Duration::infinity() for a zero rate.
  [[nodiscard]] Duration draw(Pcg32& rng, Rate rate) const;

  friend bool operator==(const FailureDistribution&,
                         const FailureDistribution&) = default;

 private:
  FailureDistribution(FailureDistributionKind kind, double shape)
      : kind_{kind}, shape_{shape} {}
  FailureDistributionKind kind_;
  double shape_;
};

}  // namespace xres
