#ifndef HDC_CORE_ACCUMULATOR_HPP
#define HDC_CORE_ACCUMULATOR_HPP

/// \file accumulator.hpp
/// \brief Streaming integer accumulator for majority bundling.
///
/// Training an HDC model bundles thousands of hypervectors; materializing
/// them to take an n-ary majority would be wasteful.  `BundleAccumulator`
/// keeps one signed counter per dimension (+1 for a set bit, -1 for a clear
/// bit) and thresholds at zero on `finalize()`, which is exactly the
/// element-wise majority of everything added.  It also supports weighted and
/// negative updates (used by the adaptive-classifier extension) and signed
/// projections (used by the non-quantized regression variant).  Updates and
/// the threshold run on the dispatched `bits::accumulate` /
/// `bits::threshold` kernels (docs/kernels.md).

#include <cstdint>
#include <span>
#include <vector>

#include "hdc/base/rng.hpp"
#include "hdc/core/hypervector.hpp"

namespace hdc {

/// Signed per-dimension bundle counters.
class BundleAccumulator {
 public:
  /// Zero-initialized accumulator for \p dimension-bit hypervectors.
  /// \throws std::invalid_argument if dimension == 0.
  explicit BundleAccumulator(std::size_t dimension);

  [[nodiscard]] std::size_t dimension() const noexcept { return dimension_; }

  /// Number of (unweighted) add() calls so far.  Weighted updates count by
  /// their |weight|.
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

  /// Adds one hypervector: counter += bit ? +1 : -1 per dimension.
  /// Accepts owning hypervectors and zero-copy views alike.
  /// \throws std::invalid_argument on dimension mismatch.
  void add(HypervectorView hv);

  /// add() on a raw word view (bits::words_for(dimension()) words, tail bits
  /// zero): the allocation-free entry point the batch runtime uses to
  /// accumulate straight from arena rows.
  /// \throws std::invalid_argument on word-count mismatch.
  void add_words(std::span<const std::uint64_t> words);

  /// Subtracts one hypervector (inverse of add); counters may go negative.
  /// \throws std::invalid_argument on dimension mismatch.
  void subtract(HypervectorView hv);

  /// Adds with an integer weight (negative weights subtract).
  /// \throws std::invalid_argument on dimension mismatch, weight == 0 or
  /// weight == INT32_MIN (whose magnitude int32 cannot hold).
  void add_weighted(HypervectorView hv, std::int32_t weight);

  /// Merges another accumulator: counters and counts add element-wise.
  /// Because integer addition commutes, splitting a sample stream across
  /// several accumulators and merging them yields exactly the sequential
  /// result — the primitive behind the batch runtime's per-thread
  /// accumulators.  \throws std::invalid_argument on dimension mismatch.
  void merge(const BundleAccumulator& other);

  /// Read-only view of the signed counters.
  [[nodiscard]] std::span<const std::int32_t> counters() const noexcept {
    return counters_;
  }

  /// Majority threshold: bit = counter > 0; exact zero ties take the
  /// corresponding bit of a hypervector freshly drawn from \p tie_rng.
  [[nodiscard]] Hypervector finalize(Rng& tie_rng) const;

  /// Majority threshold with a caller-supplied tie-break hypervector, for
  /// deterministic pipelines that reuse one tie vector.
  /// \throws std::invalid_argument on dimension mismatch.
  [[nodiscard]] Hypervector finalize(HypervectorView tie_breaker) const;

  /// Signed projection <counters, ±1(hv)>: sum over dimensions of
  /// counter * (bit ? +1 : -1).  This is (up to scale) the dot-product
  /// similarity between the un-quantized bundle and \p hv; larger means more
  /// similar.  \throws std::invalid_argument on dimension mismatch.
  [[nodiscard]] std::int64_t signed_projection(HypervectorView hv) const;

  /// Resets all counters to zero.
  void clear() noexcept;

 private:
  std::size_t dimension_;
  std::size_t count_ = 0;
  std::vector<std::int32_t> counters_;
};

}  // namespace hdc

#endif  // HDC_CORE_ACCUMULATOR_HPP
