// Cross-cutting property tests of the encoders: the similarity-structure
// contracts that make the paper's experiments work.  Each property is swept
// over grid sizes and seeds with TEST_P.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>

#include "hdc/core/basis_circular.hpp"
#include "hdc/core/basis_level.hpp"
#include "hdc/core/multiscale_encoder.hpp"
#include "hdc/core/ops.hpp"
#include "hdc/core/scalar_encoder.hpp"
#include "hdc/stats/circular.hpp"

namespace {

constexpr std::size_t kDim = 10'000;

struct GridCase {
  std::size_t size;
  std::uint64_t seed;
};

// Names the case in test listings instead of gtest's raw byte dump.
void PrintTo(const GridCase& c, std::ostream* os) {
  *os << "m" << c.size << "_seed" << c.seed;
}

class LevelEncoderPropertyTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(LevelEncoderPropertyTest, SimilarityDecreasesMonotonicallyWithDistance) {
  const auto [m, seed] = GetParam();
  hdc::LevelBasisConfig config;
  config.dimension = kDim;
  config.size = m;
  config.seed = seed;
  const hdc::LinearScalarEncoder enc(hdc::make_level_basis(config), 0.0, 1.0);
  // Similarity from the left endpoint must be non-increasing in the value,
  // within statistical noise (4 sigma ~ 0.02 at d = 10,000).
  const hdc::HypervectorView origin = enc.encode(0.0);
  double previous = 1.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double sim =
        hdc::similarity(origin, enc.encode(enc.value_of(i)));
    EXPECT_LT(sim, previous + 0.02) << "grid point " << i;
    previous = sim;
  }
  // Endpoints quasi-orthogonal.
  EXPECT_NEAR(previous, 0.5, 0.03);
}

TEST_P(LevelEncoderPropertyTest, NearbyValuesShareTheirEncodings) {
  const auto [m, seed] = GetParam();
  hdc::LevelBasisConfig config;
  config.dimension = kDim;
  config.size = m;
  config.seed = seed;
  const hdc::LinearScalarEncoder enc(hdc::make_level_basis(config), -5.0, 5.0);
  // Values inside the same grid cell encode identically.
  const double step = 10.0 / static_cast<double>(m - 1);
  EXPECT_EQ(enc.encode(0.0).words().data(), enc.encode(0.4 * step).words().data());
  // ... and neighbouring cells stay close: delta = 1/(2(m-1)).
  EXPECT_NEAR(hdc::normalized_distance(enc.encode(0.0), enc.encode(step)),
              0.5 / static_cast<double>(m - 1), 0.02);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LevelEncoderPropertyTest,
                         ::testing::Values(GridCase{8, 1}, GridCase{16, 2},
                                           GridCase{64, 3}, GridCase{128, 4}));

class CircularEncoderPropertyTest : public ::testing::TestWithParam<GridCase> {
};

TEST_P(CircularEncoderPropertyTest, SimilarityTracksArcDistance) {
  const auto [m, seed] = GetParam();
  hdc::CircularBasisConfig config;
  config.dimension = kDim;
  config.size = m;
  config.seed = seed;
  const hdc::CircularScalarEncoder enc(hdc::make_circular_basis(config),
                                       hdc::stats::two_pi);
  const hdc::HypervectorView origin = enc.encode(0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const double theta = enc.value_of(i);
    const double expected =
        1.0 - static_cast<double>(hdc::stats::index_arc_distance(0, i, m)) /
                  static_cast<double>(m);
    EXPECT_NEAR(hdc::similarity(origin, enc.encode(theta)), expected, 0.02)
        << "grid point " << i;
  }
}

TEST_P(CircularEncoderPropertyTest, WrapNeighborsAreCloserThanLinearOnes) {
  // The defining advantage over level encodings: values just across the
  // wrap are *neighbours*, not opposites.
  const auto [m, seed] = GetParam();
  hdc::CircularBasisConfig circ_config;
  circ_config.dimension = kDim;
  circ_config.size = m;
  circ_config.seed = seed;
  const hdc::CircularScalarEncoder circular(
      hdc::make_circular_basis(circ_config), hdc::stats::two_pi);

  hdc::LevelBasisConfig level_config;
  level_config.dimension = kDim;
  level_config.size = m;
  level_config.seed = seed;
  const hdc::LinearScalarEncoder level(hdc::make_level_basis(level_config),
                                       0.0, hdc::stats::two_pi);

  const double before = hdc::stats::two_pi - 0.05;
  const double after = 0.05;
  const double circular_sim =
      hdc::similarity(circular.encode(before), circular.encode(after));
  const double level_sim =
      hdc::similarity(level.encode(before), level.encode(after));
  EXPECT_GT(circular_sim, 0.9);
  EXPECT_NEAR(level_sim, 0.5, 0.05);  // level tears the circle apart
}

TEST_P(CircularEncoderPropertyTest, AllRotationsAreEquivalent) {
  // No grid point is special: the similarity profile around any reference
  // matches the profile around index 0.
  const auto [m, seed] = GetParam();
  hdc::CircularBasisConfig config;
  config.dimension = kDim;
  config.size = m;
  config.seed = seed;
  const hdc::Basis basis = hdc::make_circular_basis(config);
  for (const std::size_t ref : {m / 3, m / 2, m - 1}) {
    for (std::size_t offset = 0; offset < m; ++offset) {
      const double from_ref = hdc::normalized_distance(
          basis[ref], basis[(ref + offset) % m]);
      const double from_zero =
          hdc::normalized_distance(basis[0], basis[offset]);
      EXPECT_NEAR(from_ref, from_zero, 0.03)
          << "ref " << ref << " offset " << offset;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CircularEncoderPropertyTest,
                         ::testing::Values(GridCase{8, 5}, GridCase{16, 6},
                                           GridCase{24, 7}, GridCase{64, 8}));

TEST(EncoderInteropTest, BindingTwoEncodersYieldsProductKernel) {
  // corr(a ⊗ b, a' ⊗ b') ≈ corr(a, a') * corr(b, b') for independent bases —
  // the identity behind both the Beijing encoding and the multi-scale
  // extension.
  hdc::CircularBasisConfig config_a;
  config_a.dimension = kDim;
  config_a.size = 16;
  config_a.seed = 9;
  hdc::CircularBasisConfig config_b = config_a;
  config_b.seed = 10;
  const hdc::Basis a = hdc::make_circular_basis(config_a);
  const hdc::Basis b = hdc::make_circular_basis(config_b);

  const auto corr = [](hdc::HypervectorView x, hdc::HypervectorView y) {
    return 1.0 - 2.0 * hdc::normalized_distance(x, y);
  };
  for (const std::size_t i : {1UL, 3UL, 6UL}) {
    for (const std::size_t j : {2UL, 5UL}) {
      const double product = corr(a[0], a[i]) * corr(b[0], b[j]);
      const double bound = corr(a[0] ^ b[0], a[i] ^ b[j]);
      EXPECT_NEAR(bound, product, 0.03) << "i=" << i << " j=" << j;
    }
  }
}

TEST(EncoderInteropTest, MultiScaleDecodeAgreesWithFinestQuantization) {
  hdc::MultiScaleCircularEncoder::Config config;
  config.dimension = kDim;
  config.scales = {8, 32};
  config.period = 24.0;  // hours
  config.seed = 11;
  const hdc::MultiScaleCircularEncoder enc(config);
  for (double hour = 0.0; hour < 24.0; hour += 1.7) {
    EXPECT_EQ(enc.decode(enc.encode(hour)), enc.value_of(enc.index_of(hour)))
        << "hour " << hour;
  }
}

}  // namespace
