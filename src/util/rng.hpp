// Deterministic random number generation.
//
// Every stochastic component in the repository draws from a util::Rng that
// is seeded explicitly, so experiments and tests are reproducible
// run-to-run. Rng also provides the small set of distributions the traffic
// and testbed models need (heavy tails included), and `fork()` for handing
// independent streams to sub-components without sharing state.
//
// The engine underneath is counter-based (Philox4x32-10, util/philox.hpp):
// the j-th draw of a stream is a pure O(1) function of (stream seed, j).
// That gives the data plane two primitives beyond sequential drawing:
//   * Rng::at(j) — random access into this stream's raw draw sequence;
//   * RngBlock — a const, shareable view of a stream that subtasks index
//     by counter, so a sample's render can split into bursts whose bytes
//     are independent of scheduling.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "util/philox.hpp"

namespace patchwork::util {

class RngBlock;

/// Prepared cumulative-weight table for repeated weighted_index() draws
/// from the same weights: build once (O(n)), draw O(log n). The table
/// path picks bit-identical indices to the one-shot
/// Rng::weighted_index(weights) — both compare the same uniform draw
/// against the same sequentially-summed prefixes.
class WeightedTable {
 public:
  /// `weights`: unnormalized, non-negative, at least one positive entry.
  explicit WeightedTable(std::span<const double> weights);

  std::size_t size() const { return cumulative_.size(); }
  double total() const { return cumulative_.empty() ? 0.0 : cumulative_.back(); }

 private:
  friend class Rng;
  std::vector<double> cumulative_;  ///< Sequential prefix sums of weights.
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_(seed), engine_(seed) {}

  /// Derive an independent generator; the child stream does not perturb the
  /// parent beyond the single draw used to seed it.
  Rng fork() { return Rng(engine_()); }

  /// Derive the `stream_id`-th child stream of this generator's *seed*.
  /// Unlike fork(), split() consumes nothing from the parent: it depends
  /// only on the construction seed and the stream id, so existing
  /// single-stream draw sequences are unchanged by adding split() calls,
  /// and split(id) yields the same child no matter when (or from which
  /// thread ordering) it is invoked. Distinct stream ids give streams that
  /// are independent for practical purposes (seeds are mixed through
  /// SplitMix64 into distinct Philox keys).
  Rng split(std::uint64_t stream_id) const;

  /// Two-level substream: split(a, b) == split(a).split(b), without
  /// materializing the intermediate generator. The coordinator addresses
  /// per-sample render streams as split(site_id, sample_index), so the
  /// bytes of sample k at site s depend only on (run seed, s, k) — never
  /// on which worker renders them or in what order.
  Rng split(std::uint64_t stream_id, std::uint64_t substream_id) const;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi);
  std::int64_t uniform_i64(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p);

  /// Normal distribution (mean, stddev).
  double normal(double mean, double stddev);

  /// Log-normal distribution parameterized by the underlying normal.
  double lognormal(double mu, double sigma);

  /// Exponential distribution with the given mean (not rate).
  double exponential(double mean);

  /// Bounded Pareto: heavy-tailed draw in [lo, hi] with shape alpha.
  /// Used for flow sizes and slice durations, both of which the paper
  /// reports as heavy-tailed.
  double pareto(double lo, double hi, double alpha);

  /// Poisson distribution with the given mean.
  std::uint64_t poisson(double mean);

  /// Index drawn from a discrete distribution given by `weights`
  /// (unnormalized, non-negative, at least one positive entry). O(n);
  /// repeat callers should prepare a WeightedTable instead.
  std::size_t weighted_index(std::span<const double> weights);

  /// O(log n) draw from a prepared table; picks the same index the
  /// one-shot overload would for the same engine state and weights.
  std::size_t weighted_index(const WeightedTable& table);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_u64(0, i - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Raw 64 random bits (sequential).
  std::uint64_t bits() { return engine_(); }

  /// The j-th raw draw of this stream, counted from construction — the
  /// value the j-th bits() call returns (distribution helpers may consume
  /// several raw draws each). O(1); ignores and preserves the sequential
  /// position.
  std::uint64_t at(std::uint64_t j) const { return engine_.at(j); }

 private:
  friend class RngBlock;
  std::uint64_t seed_;  ///< Construction seed; the root of split() streams.
  PhiloxEngine engine_;
};

/// Counter-addressed const view of an Rng's stream. Subtasks rendering
/// disjoint index ranges of one logical sequence share a single RngBlock
/// (it is immutable and thread-safe) and address draws by position, so the
/// value consumed for item j is a pure function of (stream, j) — never of
/// how the items were batched or scheduled.
class RngBlock {
 public:
  explicit RngBlock(const Rng& rng) : engine_(rng.seed_) {}

  /// Raw draw j of the stream.
  std::uint64_t at(std::uint64_t j) const { return engine_.at(j); }

  /// Draw j mapped to [0, 1) with 53 random bits.
  double uniform01_at(std::uint64_t j) const {
    return static_cast<double>(at(j) >> 11) * 0x1.0p-53;
  }

  /// Draw j mapped to the inclusive range [lo, hi] (Lemire reduction).
  /// Requires lo <= hi.
  std::uint64_t bounded_at(std::uint64_t j, std::uint64_t lo,
                           std::uint64_t hi) const;

  /// Bernoulli trial with probability p, decided by draw j.
  bool chance_at(std::uint64_t j, double p) const {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01_at(j) < p;
  }

  // Bulk draws: fill a buffer with a contiguous counter range in one pass
  // through the bulk Philox kernel (util/philox_simd.hpp). Each fill is
  // draw-for-draw identical to its *_at counterpart — out[i] is exactly
  // what the single call with counter j0+i returns — so batched consumers
  // can switch freely between the forms.

  /// out[i] = at(j0 + i).
  void raw_fill(std::uint64_t j0, std::span<std::uint64_t> out) const;

  /// out[i] = uniform01_at(j0 + i).
  void uniform01_fill(std::uint64_t j0, std::span<double> out) const;

  /// out[i] = bounded_at(j0 + i, lo, hi). Same 128-bit Lemire reduction,
  /// applied lane-by-lane to the bulk raw draws; the reduction is
  /// rejection-free, so the bulk path never consumes extra draws and
  /// cannot drift from the scalar one mid-buffer.
  void bounded_fill(std::uint64_t j0, std::uint64_t lo, std::uint64_t hi,
                    std::span<std::uint64_t> out) const;

  /// out[i] = chance_at(j0 + i, p) as 0/1.
  void chance_fill(std::uint64_t j0, double p,
                   std::span<std::uint8_t> out) const;

 private:
  PhiloxEngine engine_;  ///< Never advanced; used only through at().
};

}  // namespace patchwork::util
