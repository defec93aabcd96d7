// Property tests for circular-hypervectors (Section 5.1): the triangular
// distance profile, the two-phase transition identities of Figure 5, the
// odd-cardinality subset rule, and the r-relaxation.

#include "hdc/core/basis_circular.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "hdc/core/ops.hpp"

namespace {

using hdc::Basis;
using hdc::CircularBasisConfig;

Basis make(std::size_t d, std::size_t m, double r, std::uint64_t seed) {
  CircularBasisConfig config;
  config.dimension = d;
  config.size = m;
  config.r = r;
  config.seed = seed;
  return hdc::make_circular_basis(config);
}

TEST(CircularTargetDistanceTest, TriangularProfile) {
  EXPECT_DOUBLE_EQ(hdc::circular_target_distance(0, 0, 12), 0.0);
  EXPECT_DOUBLE_EQ(hdc::circular_target_distance(0, 3, 12), 0.25);
  EXPECT_DOUBLE_EQ(hdc::circular_target_distance(0, 6, 12), 0.5);   // antipode
  EXPECT_DOUBLE_EQ(hdc::circular_target_distance(0, 9, 12), 0.25);  // wraps
  EXPECT_DOUBLE_EQ(hdc::circular_target_distance(0, 11, 12), 1.0 / 12.0);
  EXPECT_DOUBLE_EQ(hdc::circular_target_distance(11, 0, 12), 1.0 / 12.0);
}

TEST(CircularTargetDistanceTest, ValidatesArguments) {
  EXPECT_THROW((void)hdc::circular_target_distance(0, 0, 1),
               std::invalid_argument);
  EXPECT_THROW((void)hdc::circular_target_distance(4, 0, 4),
               std::invalid_argument);
  EXPECT_THROW((void)hdc::circular_target_distance(0, 4, 4),
               std::invalid_argument);
}

TEST(CircularBasisTest, ValidatesConfig) {
  EXPECT_THROW((void)make(0, 8, 0.0, 1), std::invalid_argument);
  EXPECT_THROW((void)make(128, 1, 0.0, 1), std::invalid_argument);
  EXPECT_THROW((void)make(128, 8, -0.5, 1), std::invalid_argument);
  EXPECT_THROW((void)make(128, 8, 1.5, 1), std::invalid_argument);
}

TEST(CircularBasisTest, InfoRecordsProvenance) {
  const Basis basis = make(512, 10, 0.1, 21);
  EXPECT_EQ(basis.info().kind, hdc::BasisKind::Circular);
  EXPECT_EQ(basis.info().dimension, 512U);
  EXPECT_EQ(basis.info().size, 10U);
  EXPECT_DOUBLE_EQ(basis.info().r, 0.1);
  EXPECT_EQ(basis.info().seed, 21U);
}

TEST(CircularBasisTest, DeterministicGivenSeed) {
  const Basis a = make(1'024, 12, 0.0, 3);
  const Basis b = make(1'024, 12, 0.0, 3);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
  }
}

struct ProfileCase {
  std::size_t dimension;
  std::size_t size;
  std::uint64_t seed;
};

// Names the case in test listings instead of gtest's raw byte dump.
void PrintTo(const ProfileCase& c, std::ostream* os) {
  *os << "d" << c.dimension << "_m" << c.size << "_seed" << c.seed;
}

class CircularProfileTest : public ::testing::TestWithParam<ProfileCase> {};

TEST_P(CircularProfileTest, PairwiseDistancesAreTriangular) {
  const auto [d, m, seed] = GetParam();
  const Basis basis = make(d, m, 0.0, seed);
  const double tolerance = 5.0 / (2.0 * std::sqrt(static_cast<double>(d)));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const double measured = hdc::normalized_distance(basis[i], basis[j]);
      const double target = hdc::circular_target_distance(i, j, m);
      EXPECT_NEAR(measured, target, tolerance)
          << "pair (" << i << ", " << j << ") of m=" << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CircularProfileTest,
    ::testing::Values(ProfileCase{10'000, 2, 1}, ProfileCase{10'000, 4, 2},
                      ProfileCase{10'000, 12, 3}, ProfileCase{10'000, 16, 4},
                      // Odd cardinalities exercise the 2m-subset rule.
                      ProfileCase{10'000, 3, 5}, ProfileCase{10'000, 9, 6},
                      ProfileCase{10'000, 15, 7}, ProfileCase{16'384, 12, 8}));

TEST(CircularBasisTest, AntipodesAreQuasiOrthogonal) {
  const std::size_t m = 16;
  const Basis basis = make(10'000, m, 0.0, 9);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_NEAR(
        hdc::normalized_distance(basis[i], basis[(i + m / 2) % m]), 0.5, 0.03)
        << "antipode of " << i;
  }
}

TEST(CircularBasisTest, Phase2ReplaysPhase1Transitions) {
  // Figure 5 identities: for even m, with T_t = C_t ^ C_{t+1} (0-based
  // transitions of the first half), the second half satisfies
  // C_i = C_{i-1} ^ T_{i - m/2 - 1}, and the final transition closes the
  // circle back to C_0.
  const std::size_t m = 12;
  const Basis basis = make(2'048, m, 0.0, 10);
  std::vector<hdc::Hypervector> transitions;
  for (std::size_t t = 0; t < m / 2; ++t) {
    transitions.push_back(basis[t] ^ basis[t + 1]);
  }
  for (std::size_t i = m / 2 + 1; i < m; ++i) {
    EXPECT_EQ(basis[i], basis[i - 1] ^ transitions[i - m / 2 - 1])
        << "element " << i;
  }
  EXPECT_EQ(basis[m - 1] ^ transitions[m / 2 - 1], basis[0])
      << "circle closure";
}

TEST(CircularBasisTest, CombinedTransitionsEqualEndpointBinding) {
  // Section 5.1: T_1 ^ ... ^ T_{m/2} == C_1 ^ C_{m/2+1}.
  const std::size_t m = 10;
  const Basis basis = make(1'024, m, 0.0, 11);
  hdc::Hypervector combined(basis.dimension());
  for (std::size_t t = 0; t < m / 2; ++t) {
    combined ^= basis[t] ^ basis[t + 1];
  }
  EXPECT_EQ(combined, basis[0] ^ basis[m / 2]);
}

TEST(CircularBasisTest, FullRelaxationIsRandomSet) {
  const Basis basis = make(10'000, 10, 1.0, 12);
  for (std::size_t i = 0; i < basis.size(); ++i) {
    for (std::size_t j = i + 1; j < basis.size(); ++j) {
      EXPECT_NEAR(hdc::normalized_distance(basis[i], basis[j]), 0.5, 0.03)
          << "pair (" << i << ", " << j << ")";
    }
  }
}

TEST(CircularBasisTest, PartialRelaxationKeepsNeighbourCorrelation) {
  // Figure 6, middle panel: r = 0.5 keeps immediate neighbours correlated
  // while distant nodes decorrelate.
  const Basis basis = make(10'000, 10, 0.5, 13);
  for (std::size_t i = 0; i < basis.size(); ++i) {
    EXPECT_LT(hdc::normalized_distance(basis[i], basis[(i + 1) % 10]), 0.35)
        << "neighbour of " << i;
  }
  EXPECT_NEAR(hdc::normalized_distance(basis[0], basis[5]), 0.5, 0.04);
}

TEST(CircularBasisTest, OddSizeIsSubsetOfDoubledSet) {
  // Footnote 1: the odd set must match every other element of the 2m set
  // generated from the same seed.
  const std::size_t m = 7;
  const Basis odd = make(1'024, m, 0.0, 14);
  const Basis doubled = make(1'024, 2 * m, 0.0, 14);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_EQ(odd[i], doubled[2 * i]) << "element " << i;
  }
}

TEST(CircularBasisTest, WrapNeighboursAreClose) {
  // The decisive difference with level sets: the last element is close to
  // the first.
  const std::size_t m = 16;
  const Basis basis = make(10'000, m, 0.0, 15);
  EXPECT_NEAR(hdc::normalized_distance(basis[0], basis[m - 1]), 1.0 / 16.0,
              0.03);
}

}  // namespace
