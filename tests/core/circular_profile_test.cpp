// Tests for the cosine-profile circular basis (extension): the profile the
// paper's Section 5.1 equation states, E[delta(C_ref, C_i)] = rho(theta)/2.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <ostream>

#include "hdc/core/basis_circular.hpp"
#include "hdc/core/ops.hpp"

namespace {

using hdc::Basis;
using hdc::CircularBasisConfig;
using hdc::CircularProfile;

Basis make_cosine(std::size_t d, std::size_t m, std::uint64_t seed) {
  CircularBasisConfig config;
  config.dimension = d;
  config.size = m;
  config.profile = CircularProfile::Cosine;
  config.seed = seed;
  return hdc::make_circular_basis(config);
}

TEST(CosineTargetTest, MatchesRhoAtTheReference) {
  // Against index 0, |cos 0 - cos theta| / 4 == (1 - cos theta) / 4 = rho/2.
  const std::size_t m = 16;
  for (std::size_t j = 0; j < m; ++j) {
    const double theta = 2.0 * std::numbers::pi * static_cast<double>(j) /
                         static_cast<double>(m);
    EXPECT_NEAR(hdc::circular_cosine_target_distance(0, j, m),
                (1.0 - std::cos(theta)) / 4.0, 1e-12)
        << "j = " << j;
  }
}

TEST(CosineTargetTest, Validates) {
  EXPECT_THROW((void)hdc::circular_cosine_target_distance(0, 0, 1),
               std::invalid_argument);
  EXPECT_THROW((void)hdc::circular_cosine_target_distance(4, 0, 4),
               std::invalid_argument);
}

TEST(CosineProfileTest, RejectsRelaxation) {
  CircularBasisConfig config;
  config.dimension = 256;
  config.size = 8;
  config.profile = CircularProfile::Cosine;
  config.r = 0.5;
  EXPECT_THROW((void)hdc::make_circular_basis(config), std::invalid_argument);
}

struct CosineCase {
  std::size_t dimension;
  std::size_t size;
  std::uint64_t seed;
};

// Names the case in test listings instead of gtest's raw byte dump.
void PrintTo(const CosineCase& c, std::ostream* os) {
  *os << "d" << c.dimension << "_m" << c.size << "_seed" << c.seed;
}

class CosineProfileParamTest : public ::testing::TestWithParam<CosineCase> {};

TEST_P(CosineProfileParamTest, PairwiseDistancesMatchCosineTarget) {
  const auto [d, m, seed] = GetParam();
  const Basis basis = make_cosine(d, m, seed);
  const double tolerance = 5.0 / (2.0 * std::sqrt(static_cast<double>(d)));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_NEAR(hdc::normalized_distance(basis[i], basis[j]),
                  hdc::circular_cosine_target_distance(i, j, m), tolerance)
          << "pair (" << i << ", " << j << ") m=" << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CosineProfileParamTest,
    ::testing::Values(CosineCase{10'000, 8, 1}, CosineCase{10'000, 12, 2},
                      CosineCase{10'000, 16, 3},
                      // odd size via the 2m-subset rule
                      CosineCase{10'000, 9, 4}, CosineCase{16'384, 12, 5}));

TEST(CosineProfileTest, ReferenceProfileIsFlatterNearThePoles) {
  // The distinguishing feature vs the triangular profile: neighbours of the
  // reference are *closer* (cos is flat near 0) and mid-circle steps are
  // steeper.
  const std::size_t m = 16;
  const Basis cosine = make_cosine(10'000, m, 6);
  CircularBasisConfig tri_config;
  tri_config.dimension = 10'000;
  tri_config.size = m;
  tri_config.seed = 6;
  const Basis triangular = hdc::make_circular_basis(tri_config);

  const double cos_step1 = hdc::normalized_distance(cosine[0], cosine[1]);
  const double tri_step1 =
      hdc::normalized_distance(triangular[0], triangular[1]);
  EXPECT_LT(cos_step1, tri_step1);  // (1-cos(22.5deg))/4 = 0.019 << 1/16

  const double cos_mid = hdc::normalized_distance(cosine[3], cosine[5]);
  const double tri_mid =
      hdc::normalized_distance(triangular[3], triangular[5]);
  EXPECT_GT(cos_mid, tri_mid);  // steeper through the equator
}

TEST(CosineProfileTest, AntipodeIsQuasiOrthogonal) {
  const Basis basis = make_cosine(10'000, 12, 7);
  EXPECT_NEAR(hdc::normalized_distance(basis[0], basis[6]), 0.5, 0.03);
}

TEST(CosineProfileTest, WrapsLikeTheTriangularProfile) {
  const Basis basis = make_cosine(10'000, 12, 8);
  // Last element is a close neighbour of the first.
  EXPECT_LT(hdc::normalized_distance(basis[0], basis[11]), 0.05);
}

TEST(CosineProfileTest, InfoRecordsProvenance) {
  const Basis basis = make_cosine(512, 8, 9);
  EXPECT_EQ(basis.info().kind, hdc::BasisKind::Circular);
  EXPECT_EQ(basis.info().size, 8U);
}

}  // namespace
