#include "util/rng.hpp"

#include <cmath>
#include <numbers>

namespace xres {

namespace {

constexpr std::uint64_t kPcgMultiplier = 6364136223846793005ULL;

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t hash_seed(std::span<const std::uint64_t> keys) {
  std::uint64_t acc = 0x2545f4914f6cdd1dULL;
  for (std::uint64_t k : keys) {
    std::uint64_t state = acc ^ k;
    acc = splitmix64(state) + 0x9e3779b97f4a7c15ULL * k;
  }
  std::uint64_t state = acc;
  return splitmix64(state);
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

Pcg32::Pcg32(std::uint64_t seed, std::uint64_t stream)
    : state_{0}, inc_{(stream << 1U) | 1U} {
  next_u32();
  state_ += seed;
  next_u32();
}

std::uint32_t Pcg32::next_u32() {
  const std::uint64_t old = state_;
  state_ = old * kPcgMultiplier + inc_;
  const auto xorshifted = static_cast<std::uint32_t>(((old >> 18U) ^ old) >> 27U);
  const auto rot = static_cast<std::uint32_t>(old >> 59U);
  return (xorshifted >> rot) | (xorshifted << ((32U - rot) & 31U));
}

std::uint64_t Pcg32::next_u64() {
  return (static_cast<std::uint64_t>(next_u32()) << 32U) | next_u32();
}

double Pcg32::next_double() {
  // 53 random bits scaled into [0, 1).
  return static_cast<double>(next_u64() >> 11U) * 0x1.0p-53;
}

double Pcg32::uniform(double lo, double hi) {
  XRES_CHECK(lo <= hi, "uniform bounds out of order");
  return lo + (hi - lo) * next_double();
}

std::uint32_t Pcg32::next_below(std::uint32_t bound) {
  XRES_CHECK(bound > 0, "bound must be positive");
  // Lemire's nearly-divisionless unbiased bounded generation.
  std::uint64_t m = static_cast<std::uint64_t>(next_u32()) * bound;
  auto lo = static_cast<std::uint32_t>(m);
  if (lo < bound) {
    const std::uint32_t threshold = (0U - bound) % bound;
    while (lo < threshold) {
      m = static_cast<std::uint64_t>(next_u32()) * bound;
      lo = static_cast<std::uint32_t>(m);
    }
  }
  return static_cast<std::uint32_t>(m >> 32U);
}

std::int64_t Pcg32::uniform_int(std::int64_t lo, std::int64_t hi) {
  XRES_CHECK(lo <= hi, "uniform_int bounds out of order");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  XRES_CHECK(span <= 0xffffffffULL, "uniform_int range too wide for 32-bit draw");
  return lo + static_cast<std::int64_t>(next_below(static_cast<std::uint32_t>(span)));
}

bool Pcg32::bernoulli(double p) {
  XRES_CHECK(p >= 0.0 && p <= 1.0, "probability outside [0,1]");
  return next_double() < p;
}

Duration Pcg32::exponential(Rate rate) {
  XRES_CHECK(rate >= Rate::zero(), "rate must be non-negative");
  if (rate == Rate::zero()) return Duration::infinity();
  // Inverse CDF; 1 - u avoids log(0).
  const double u = 1.0 - next_double();
  return Duration::seconds(-std::log(u) / rate.per_second_value());
}

Duration Pcg32::weibull(double shape, Duration scale) {
  XRES_CHECK(shape > 0.0, "Weibull shape must be positive");
  XRES_CHECK(scale > Duration::zero(), "Weibull scale must be positive");
  const double u = 1.0 - next_double();
  return scale * std::pow(-std::log(u), 1.0 / shape);
}

double Pcg32::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  const double u1 = 1.0 - next_double();
  const double u2 = next_double();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

DiscreteDistribution::DiscreteDistribution(std::span<const double> weights) {
  XRES_CHECK(!weights.empty(), "discrete distribution needs at least one category");
  double total = 0.0;
  for (double w : weights) {
    XRES_CHECK(w >= 0.0, "weights must be non-negative");
    total += w;
  }
  XRES_CHECK(total > 0.0, "weights must have positive sum");

  const std::size_t n = weights.size();
  prob_.resize(n);
  threshold_.resize(n);
  alias_.resize(n);
  for (std::size_t i = 0; i < n; ++i) prob_[i] = weights[i] / total;

  // Walker/Vose alias-table construction: partition scaled probabilities
  // into "small" (< 1) and "large" (>= 1) and pair them up.
  std::vector<double> scaled(n);
  std::vector<std::size_t> small;
  std::vector<std::size_t> large;
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = prob_[i] * static_cast<double>(n);
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const std::size_t s = small.back();
    small.pop_back();
    const std::size_t l = large.back();
    large.pop_back();
    threshold_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (std::size_t i : large) {
    threshold_[i] = 1.0;
    alias_[i] = i;
  }
  for (std::size_t i : small) {
    // Only reachable through floating-point round-off; treat as certain.
    threshold_[i] = 1.0;
    alias_[i] = i;
  }
}

double DiscreteDistribution::probability(std::size_t i) const {
  XRES_CHECK(i < prob_.size(), "category index out of range");
  return prob_[i];
}

std::size_t DiscreteDistribution::sample(Pcg32& rng) const {
  const auto column = static_cast<std::size_t>(rng.next_below(
      static_cast<std::uint32_t>(prob_.size())));
  return rng.next_double() < threshold_[column] ? column : alias_[column];
}

}  // namespace xres
