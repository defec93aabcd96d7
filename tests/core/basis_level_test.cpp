// Property tests for level-hypervector generation: Proposition 4.1 for the
// interpolation method (Algorithm 1), exactness for the classic flip method,
// and the Section 5.2 r-relaxation.

#include "hdc/core/basis_level.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "hdc/core/ops.hpp"

namespace {

using hdc::Basis;
using hdc::LevelBasisConfig;
using hdc::LevelMethod;

Basis make(std::size_t d, std::size_t m, LevelMethod method, double r,
           std::uint64_t seed) {
  LevelBasisConfig config;
  config.dimension = d;
  config.size = m;
  config.method = method;
  config.r = r;
  config.seed = seed;
  return hdc::make_level_basis(config);
}

TEST(LevelTargetDistanceTest, MatchesPaperFormula) {
  // Delta_{i,j} = (j - i) / (2 (m - 1)), Section 4.2.
  EXPECT_DOUBLE_EQ(hdc::level_target_distance(1, 2, 11), 0.05);
  EXPECT_DOUBLE_EQ(hdc::level_target_distance(1, 11, 11), 0.5);
  EXPECT_DOUBLE_EQ(hdc::level_target_distance(4, 8, 9), 0.25);
  EXPECT_DOUBLE_EQ(hdc::level_target_distance(8, 4, 9), 0.25);  // symmetric
}

TEST(LevelTargetDistanceTest, ValidatesArguments) {
  EXPECT_THROW((void)hdc::level_target_distance(1, 2, 1), std::invalid_argument);
  EXPECT_THROW((void)hdc::level_target_distance(0, 2, 4), std::invalid_argument);
  EXPECT_THROW((void)hdc::level_target_distance(1, 5, 4), std::invalid_argument);
}

TEST(LevelBasisTest, ValidatesConfig) {
  EXPECT_THROW((void)make(0, 4, LevelMethod::Interpolation, 0.0, 1),
               std::invalid_argument);
  EXPECT_THROW((void)make(100, 1, LevelMethod::Interpolation, 0.0, 1),
               std::invalid_argument);
  EXPECT_THROW((void)make(100, 4, LevelMethod::Interpolation, -0.1, 1),
               std::invalid_argument);
  EXPECT_THROW((void)make(100, 4, LevelMethod::Interpolation, 1.1, 1),
               std::invalid_argument);
  // r is an interpolation-only feature.
  EXPECT_THROW((void)make(100, 4, LevelMethod::ExactFlip, 0.5, 1),
               std::invalid_argument);
}

TEST(LevelBasisTest, InfoRecordsProvenance) {
  const Basis basis = make(512, 6, LevelMethod::Interpolation, 0.25, 77);
  EXPECT_EQ(basis.info().kind, hdc::BasisKind::Level);
  EXPECT_EQ(basis.info().method, LevelMethod::Interpolation);
  EXPECT_EQ(basis.info().dimension, 512U);
  EXPECT_EQ(basis.info().size, 6U);
  EXPECT_DOUBLE_EQ(basis.info().r, 0.25);
  EXPECT_EQ(basis.info().seed, 77U);
}

TEST(LevelBasisTest, DeterministicGivenSeed) {
  const Basis a = make(1'000, 8, LevelMethod::Interpolation, 0.0, 5);
  const Basis b = make(1'000, 8, LevelMethod::Interpolation, 0.0, 5);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(a[i], b[i]);
  }
}

struct Prop41Case {
  std::size_t dimension;
  std::size_t size;
  std::uint64_t seed;
};

// Names the case in test listings instead of gtest's raw byte dump.
void PrintTo(const Prop41Case& c, std::ostream* os) {
  *os << "d" << c.dimension << "_m" << c.size << "_seed" << c.seed;
}

class Proposition41Test : public ::testing::TestWithParam<Prop41Case> {};

TEST_P(Proposition41Test, InterpolationDistancesMatchDelta) {
  const auto [d, m, seed] = GetParam();
  const Basis basis = make(d, m, LevelMethod::Interpolation, 0.0, seed);
  // Per-pair distance is an average of d i.i.d. indicators, so its standard
  // deviation is at most 1/(2 sqrt(d)); allow 5 sigma.
  const double tolerance = 5.0 / (2.0 * std::sqrt(static_cast<double>(d)));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      const double measured = hdc::normalized_distance(basis[i], basis[j]);
      const double target = hdc::level_target_distance(i + 1, j + 1, m);
      EXPECT_NEAR(measured, target, tolerance)
          << "pair (" << i << ", " << j << ") of m=" << m << " d=" << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Proposition41Test,
    ::testing::Values(Prop41Case{10'000, 2, 1}, Prop41Case{10'000, 5, 2},
                      Prop41Case{10'000, 12, 3}, Prop41Case{10'000, 33, 4},
                      Prop41Case{16'384, 8, 5}, Prop41Case{4'096, 16, 6},
                      Prop41Case{10'000, 12, 7}, Prop41Case{10'000, 12, 8}));

TEST(LevelBasisTest, ExactFlipEndpointsExactlyOrthogonal) {
  for (const std::size_t d : {10'000UL, 4'096UL, 1'001UL}) {
    const Basis basis = make(d, 10, LevelMethod::ExactFlip, 0.0, 9);
    EXPECT_EQ(hdc::hamming_distance(basis[0], basis[9]), d / 2)
        << "d = " << d;
  }
}

TEST(LevelBasisTest, ExactFlipDistancesNearlyDeterministic) {
  const std::size_t d = 10'000;
  const std::size_t m = 11;
  const Basis basis = make(d, m, LevelMethod::ExactFlip, 0.0, 10);
  // Flips are never undone, so delta(L_i, L_j) equals the scheduled flip
  // count between i and j — within one flip of the ideal linear value.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      const double target = hdc::level_target_distance(i + 1, j + 1, m);
      const double measured = hdc::normalized_distance(basis[i], basis[j]);
      EXPECT_NEAR(measured, target, 2.0 / static_cast<double>(m - 1) / 2.0)
          << "pair (" << i << ", " << j << ")";
    }
  }
}

TEST(LevelBasisTest, ExactFlipIsMonotone) {
  // Once flipped, never unflipped: distance from L_1 grows monotonically.
  const Basis basis = make(2'048, 9, LevelMethod::ExactFlip, 0.0, 11);
  std::size_t previous = 0;
  for (std::size_t j = 1; j < basis.size(); ++j) {
    const std::size_t dist = hdc::hamming_distance(basis[0], basis[j]);
    EXPECT_GT(dist, previous);
    previous = dist;
  }
}

TEST(LevelBasisTest, FullRelaxationIsRandomSet) {
  // r = 1: every level is an independent random vector (quasi-orthogonal).
  const Basis basis = make(10'000, 8, LevelMethod::Interpolation, 1.0, 12);
  for (std::size_t i = 0; i < basis.size(); ++i) {
    for (std::size_t j = i + 1; j < basis.size(); ++j) {
      EXPECT_NEAR(hdc::normalized_distance(basis[i], basis[j]), 0.5, 0.03);
    }
  }
}

TEST(LevelBasisTest, PartialRelaxationKeepsLocalCorrelation) {
  // r = 0.5 on m = 9: segments of n = 0.5 + 0.5 * 8 = 4.5 transitions.
  // Immediate neighbours stay well-correlated while the endpoints are
  // (beyond one segment apart) quasi-orthogonal.
  const Basis basis = make(10'000, 9, LevelMethod::Interpolation, 0.5, 13);
  EXPECT_LT(hdc::normalized_distance(basis[0], basis[1]), 0.25);
  EXPECT_NEAR(hdc::normalized_distance(basis[0], basis[8]), 0.5, 0.03);
}

TEST(LevelBasisTest, MinimalSizeTwoIsQuasiOrthogonalPair) {
  const Basis basis = make(10'000, 2, LevelMethod::Interpolation, 0.0, 14);
  // Delta_{1,2} = 1/(2(2-1)) = 0.5.
  EXPECT_NEAR(hdc::normalized_distance(basis[0], basis[1]), 0.5, 0.03);
}

TEST(LevelBasisTest, EndpointsAreSharedWithAnchors) {
  // Algorithm 1 line 1-2: L_1 and L_m are the anchor vectors themselves, so
  // regenerating with the same seed but different m keeps L_1 identical.
  const Basis a = make(1'024, 4, LevelMethod::Interpolation, 0.0, 15);
  const Basis b = make(1'024, 9, LevelMethod::Interpolation, 0.0, 15);
  EXPECT_EQ(a[0], b[0]);
}

}  // namespace
