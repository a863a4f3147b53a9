#pragma once

/// \file rng.hpp
/// Deterministic random number generation for simulation studies.
///
/// We implement PCG32 (O'Neill, "PCG: A Family of Simple Fast
/// Space-Efficient Statistically Good Algorithms for Random Number
/// Generation") from scratch rather than using std::mt19937 so that:
///  * every stream is cheap to construct (two u64s of state),
///  * independent streams can be derived by key, enabling any single trial
///    of any figure to be regenerated in isolation (see DESIGN.md §6),
///  * results are reproducible across standard libraries (std distributions
///    are not specified bit-for-bit; ours are).

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/check.hpp"
#include "util/units.hpp"

namespace xres {

/// Mixes an arbitrary sequence of 64-bit keys into a single seed
/// (splitmix64-based). Used to derive independent per-trial RNG streams from
/// (root_seed, configuration index, trial index, ...).
[[nodiscard]] std::uint64_t hash_seed(std::span<const std::uint64_t> keys);

/// Convenience overload for a short fixed list of keys.
template <typename... Keys>
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t root, Keys... keys) {
  const std::uint64_t arr[] = {root, static_cast<std::uint64_t>(keys)...};
  return hash_seed(std::span<const std::uint64_t>{arr});
}

/// 64-bit FNV-1a over \p text: turns a name (a journal batch label, a
/// workload combo) into a seed key, so a record keyed by an edited or
/// reordered name reads as stale instead of wrong. The offset basis is
/// 1469598103934665603, one digit short of the published one; journal
/// fingerprints depend on it, so it stays.
[[nodiscard]] std::uint64_t fnv1a(std::string_view text);

/// PCG32: 64-bit LCG state with xorshift-rotate output. Period 2^64 per
/// stream; the stream selector picks one of 2^63 distinct sequences.
class Pcg32 {
 public:
  /// Seeds the generator. Different (seed, stream) pairs give statistically
  /// independent sequences.
  explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL);

  /// Uniform 32 random bits.
  std::uint32_t next_u32();

  /// Uniform 64 random bits.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1) with 53 bits of precision.
  double next_double();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint32_t next_below(std::uint32_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability \p p in [0, 1].
  bool bernoulli(double p);

  /// Exponentially distributed duration with the given event rate.
  /// Returns Duration::infinity() for a zero rate.
  Duration exponential(Rate rate);

  /// Weibull-distributed duration with shape k and scale lambda. Shape 1
  /// reduces to exponential with mean = scale.
  Duration weibull(double shape, Duration scale);

  /// Standard normal variate (Box–Muller; one value per call, the pair's
  /// second value is cached).
  double normal();

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
  double cached_normal_{0.0};
  bool has_cached_normal_{false};
};

/// Samples indices 0..n-1 from a fixed discrete probability distribution in
/// O(1) per draw using Walker's alias method. Weights need not be
/// normalized; they must be non-negative with a positive sum.
class DiscreteDistribution {
 public:
  explicit DiscreteDistribution(std::span<const double> weights);

  /// Number of categories.
  [[nodiscard]] std::size_t size() const { return prob_.size(); }

  /// Normalized probability of category \p i.
  [[nodiscard]] double probability(std::size_t i) const;

  /// Draw a category index.
  [[nodiscard]] std::size_t sample(Pcg32& rng) const;

 private:
  std::vector<double> prob_;        // normalized probabilities (for queries)
  std::vector<double> threshold_;   // alias-table acceptance thresholds
  std::vector<std::size_t> alias_;  // alias-table fallback categories
};

}  // namespace xres
