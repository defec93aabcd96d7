#include "hdc/core/accumulator.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "hdc/base/require.hpp"

namespace hdc {

BundleAccumulator::BundleAccumulator(std::size_t dimension)
    : dimension_(dimension), counters_(dimension, 0) {
  require_positive(dimension, "BundleAccumulator", "dimension");
}

void BundleAccumulator::add(HypervectorView hv) {
  require(hv.dimension() == dimension_, "BundleAccumulator::add",
          "dimension mismatch");
  bits::accumulate(counters_, hv.words(), 1);
  ++count_;
}

void BundleAccumulator::add_words(std::span<const std::uint64_t> words) {
  require(words.size() == bits::words_for(dimension_),
          "BundleAccumulator::add_words", "word-count mismatch");
  bits::accumulate(counters_, words, 1);
  ++count_;
}

void BundleAccumulator::subtract(HypervectorView hv) {
  require(hv.dimension() == dimension_, "BundleAccumulator::subtract",
          "dimension mismatch");
  bits::accumulate(counters_, hv.words(), -1);
  ++count_;
}

void BundleAccumulator::add_weighted(HypervectorView hv,
                                     std::int32_t weight) {
  require(hv.dimension() == dimension_, "BundleAccumulator::add_weighted",
          "dimension mismatch");
  require(weight != 0, "BundleAccumulator::add_weighted",
          "weight must be non-zero");
  // |INT32_MIN| and -INT32_MIN do not exist in int32.
  require(weight != std::numeric_limits<std::int32_t>::min(),
          "BundleAccumulator::add_weighted", "weight must not be INT32_MIN");
  bits::accumulate(counters_, hv.words(), weight);
  count_ += static_cast<std::size_t>(std::abs(weight));
}

void BundleAccumulator::merge(const BundleAccumulator& other) {
  require(other.dimension_ == dimension_, "BundleAccumulator::merge",
          "dimension mismatch");
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
  count_ += other.count_;
}

Hypervector BundleAccumulator::finalize(Rng& tie_rng) const {
  const Hypervector tie = Hypervector::random(dimension_, tie_rng);
  return finalize(tie);
}

Hypervector BundleAccumulator::finalize(HypervectorView tie_breaker) const {
  require(tie_breaker.dimension() == dimension_, "BundleAccumulator::finalize",
          "tie_breaker dimension mismatch");
  Hypervector out(dimension_);
  bits::threshold(counters_, tie_breaker.words(), out.words());
  return out;
}

std::int64_t BundleAccumulator::signed_projection(HypervectorView hv) const {
  require(hv.dimension() == dimension_, "BundleAccumulator::signed_projection",
          "dimension mismatch");
  // total = sum_set(c) - sum_clear(c) = 2 * sum_set(c) - sum_all(c); walking
  // words keeps the inner loop branch-free and auto-vectorizable.
  const std::span<const std::uint64_t> words = hv.words();
  std::int64_t sum_all = 0;
  std::int64_t sum_set = 0;
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t bitsword = words[w];
    const std::size_t base = w * bits::word_bits;
    const std::size_t limit = std::min(bits::word_bits, dimension_ - base);
    for (std::size_t b = 0; b < limit; ++b) {
      const std::int64_t c = counters_[base + b];
      sum_all += c;
      sum_set += static_cast<std::int64_t>(bitsword & 1U) * c;
      bitsword >>= 1U;
    }
  }
  return 2 * sum_set - sum_all;
}

void BundleAccumulator::clear() noexcept {
  std::fill(counters_.begin(), counters_.end(), 0);
  count_ = 0;
}

}  // namespace hdc
