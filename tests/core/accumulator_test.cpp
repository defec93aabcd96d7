// Unit tests for the streaming bundle accumulator.

#include "hdc/core/accumulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "hdc/core/kernels.hpp"
#include "hdc/core/ops.hpp"

namespace {

using hdc::BundleAccumulator;
using hdc::Hypervector;
using hdc::Rng;

TEST(AccumulatorTest, ValidatesDimension) {
  EXPECT_THROW(BundleAccumulator(0), std::invalid_argument);
}

TEST(AccumulatorTest, CountersTrackSignedBits) {
  const bool bits_a[] = {true, false, true};
  const bool bits_b[] = {true, true, false};
  BundleAccumulator acc(3);
  acc.add(Hypervector::from_bits(bits_a));
  acc.add(Hypervector::from_bits(bits_b));
  // counter = +1 per set bit, -1 per clear bit.
  ASSERT_EQ(acc.counters().size(), 3U);
  EXPECT_EQ(acc.counters()[0], 2);
  EXPECT_EQ(acc.counters()[1], 0);
  EXPECT_EQ(acc.counters()[2], 0);
  EXPECT_EQ(acc.count(), 2U);
}

TEST(AccumulatorTest, WeightedAddScalesCounters) {
  const bool bits[] = {true, false};
  BundleAccumulator acc(2);
  acc.add_weighted(Hypervector::from_bits(bits), 5);
  EXPECT_EQ(acc.counters()[0], 5);
  EXPECT_EQ(acc.counters()[1], -5);
  acc.add_weighted(Hypervector::from_bits(bits), -2);
  EXPECT_EQ(acc.counters()[0], 3);
  EXPECT_EQ(acc.counters()[1], -3);
  EXPECT_EQ(acc.count(), 7U);
  EXPECT_THROW(acc.add_weighted(Hypervector::from_bits(bits), 0),
               std::invalid_argument);
}

TEST(AccumulatorTest, WeightedAddRejectsInt32MinAndKeepsState) {
  const bool bits[] = {true, false};
  BundleAccumulator acc(2);
  acc.add_weighted(Hypervector::from_bits(bits), 3);
  EXPECT_THROW(acc.add_weighted(Hypervector::from_bits(bits),
                                std::numeric_limits<std::int32_t>::min()),
               std::invalid_argument);
  EXPECT_EQ(acc.counters()[0], 3);
  EXPECT_EQ(acc.counters()[1], -3);
  EXPECT_EQ(acc.count(), 3U);
  // The most negative weight with a magnitude is still accepted.
  acc.add_weighted(Hypervector::from_bits(bits),
                   std::numeric_limits<std::int32_t>::min() + 1);
  EXPECT_EQ(acc.count(), 3U + 2'147'483'647U);
}

// The per-bit update and threshold loops the accumulator used before its
// word kernels, kept as the oracle: every kernel variant must reproduce
// them exactly through the public add/subtract/add_weighted/finalize API.
void oracle_apply(std::vector<std::int64_t>& counters, const Hypervector& hv,
                  std::int64_t weight) {
  for (std::size_t i = 0; i < counters.size(); ++i) {
    counters[i] += (hv.bit(i) ? 1 : -1) * weight;
  }
}

Hypervector oracle_finalize(const std::vector<std::int64_t>& counters,
                            const Hypervector& tie) {
  Hypervector out(counters.size());
  for (std::size_t i = 0; i < counters.size(); ++i) {
    const std::int64_t c = counters[i];
    out.set_bit(i, c > 0 || (c == 0 && tie.bit(i)));
  }
  return out;
}

TEST(AccumulatorTest, EveryKernelVariantMatchesPerBitOracle) {
  const std::string previous = hdc::bits::active_kernels().name;
  for (const hdc::bits::Kernels* variant : hdc::bits::available_kernels()) {
    hdc::bits::select_kernels(variant->name);
    for (const std::size_t dim : {1, 63, 64, 65, 127, 10'000, 10'240}) {
      Rng rng(dim * 29 + 8);
      BundleAccumulator acc(dim);
      std::vector<std::int64_t> expected(dim, 0);
      // An even number of unit adds leaves many exact-zero ties.
      for (int i = 0; i < 4; ++i) {
        const auto hv = Hypervector::random(dim, rng);
        acc.add(hv);
        oracle_apply(expected, hv, 1);
      }
      const auto tie = Hypervector::random(dim, rng);
      EXPECT_EQ(acc.finalize(tie), oracle_finalize(expected, tie))
          << variant->name << " d=" << dim;
      const auto removed = Hypervector::random(dim, rng);
      acc.subtract(removed);
      oracle_apply(expected, removed, -1);
      for (const std::int32_t weight : {7, -300}) {
        const auto hv = Hypervector::random(dim, rng);
        acc.add_weighted(hv, weight);
        oracle_apply(expected, hv, weight);
      }
      const std::vector<std::int64_t> actual(acc.counters().begin(),
                                             acc.counters().end());
      EXPECT_EQ(actual, expected) << variant->name << " d=" << dim;
      EXPECT_EQ(acc.finalize(tie), oracle_finalize(expected, tie))
          << variant->name << " d=" << dim;
    }
  }
  hdc::bits::select_kernels(previous);
}

TEST(AccumulatorTest, TieBreaksFollowTieVector) {
  // Two opposite vectors leave every counter at zero: the finalize result
  // must equal the tie-break vector exactly.
  Rng rng(1);
  const auto a = Hypervector::random(257, rng);
  Hypervector complement = a;
  for (std::size_t i = 0; i < complement.dimension(); ++i) {
    complement.flip_bit(i);
  }
  BundleAccumulator acc(257);
  acc.add(a);
  acc.add(complement);
  const auto tie = Hypervector::random(257, rng);
  EXPECT_EQ(acc.finalize(tie), tie);
}

TEST(AccumulatorTest, MajorityIgnoresTieVectorWhenOdd) {
  Rng rng(2);
  BundleAccumulator acc(513);
  Hypervector last;
  for (int i = 0; i < 3; ++i) {
    last = Hypervector::random(513, rng);
    acc.add(last);
  }
  const auto tie_a = Hypervector::random(513, rng);
  const auto tie_b = Hypervector::random(513, rng);
  EXPECT_EQ(acc.finalize(tie_a), acc.finalize(tie_b));
}

TEST(AccumulatorTest, FinalizeValidatesTieDimension) {
  Rng rng(3);
  BundleAccumulator acc(100);
  acc.add(Hypervector::random(100, rng));
  const auto wrong = Hypervector::random(99, rng);
  EXPECT_THROW((void)acc.finalize(wrong), std::invalid_argument);
}

TEST(AccumulatorTest, AddValidatesDimension) {
  Rng rng(4);
  BundleAccumulator acc(100);
  const auto wrong = Hypervector::random(101, rng);
  EXPECT_THROW(acc.add(wrong), std::invalid_argument);
  EXPECT_THROW(acc.subtract(wrong), std::invalid_argument);
  EXPECT_THROW((void)acc.signed_projection(wrong), std::invalid_argument);
}

TEST(AccumulatorTest, ClearResetsState) {
  Rng rng(5);
  BundleAccumulator acc(64);
  acc.add(Hypervector::random(64, rng));
  acc.clear();
  EXPECT_EQ(acc.count(), 0U);
  for (const auto c : acc.counters()) {
    EXPECT_EQ(c, 0);
  }
}

TEST(AccumulatorTest, SignedProjectionMatchesNaiveDefinition) {
  Rng rng(6);
  BundleAccumulator acc(130);
  for (int i = 0; i < 5; ++i) {
    acc.add(Hypervector::random(130, rng));
  }
  const auto query = Hypervector::random(130, rng);
  std::int64_t expected = 0;
  for (std::size_t i = 0; i < 130; ++i) {
    expected += (query.bit(i) ? 1 : -1) * acc.counters()[i];
  }
  EXPECT_EQ(acc.signed_projection(query), expected);
}

TEST(AccumulatorTest, SignedProjectionOfMemberIsPositiveLarge) {
  Rng rng(7);
  BundleAccumulator acc(10'000);
  const auto member = Hypervector::random(10'000, rng);
  acc.add(member);
  // projection of the only member = dimension (every dim agrees in sign).
  EXPECT_EQ(acc.signed_projection(member), 10'000);
}

}  // namespace
