// Tests for the key-value feature encoder (the Section 6.1 sample encoding).

#include "hdc/core/feature_encoder.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "hdc/base/rng.hpp"
#include "hdc/core/accumulator.hpp"
#include "hdc/core/basis_circular.hpp"
#include "hdc/core/basis_level.hpp"
#include "hdc/core/kernels.hpp"
#include "hdc/core/ops.hpp"
#include "hdc/stats/circular.hpp"

namespace {

using hdc::KeyValueEncoder;
using hdc::ScalarEncoderPtr;

ScalarEncoderPtr value_encoder(std::size_t d = 10'000) {
  hdc::LevelBasisConfig config;
  config.dimension = d;
  config.size = 16;
  config.seed = 3;
  return std::make_shared<hdc::LinearScalarEncoder>(
      hdc::make_level_basis(config), 0.0, 1.0);
}

TEST(KeyValueEncoderTest, ValidatesArguments) {
  EXPECT_THROW(KeyValueEncoder(0, value_encoder(256), 1),
               std::invalid_argument);
  EXPECT_THROW(KeyValueEncoder(4, nullptr, 1), std::invalid_argument);
}

TEST(KeyValueEncoderTest, EncodeValidatesFeatureCount) {
  const KeyValueEncoder enc(3, value_encoder(256), 2);
  const double two[] = {0.1, 0.2};
  EXPECT_THROW((void)enc.encode(two), std::invalid_argument);
}

TEST(KeyValueEncoderTest, DeterministicGivenSeed) {
  const KeyValueEncoder a(4, value_encoder(1'024), 5);
  const KeyValueEncoder b(4, value_encoder(1'024), 5);
  const double features[] = {0.1, 0.5, 0.9, 0.3};
  EXPECT_EQ(a.encode(features), b.encode(features));
}

TEST(KeyValueEncoderTest, KeysAreQuasiOrthogonal) {
  const KeyValueEncoder enc(6, value_encoder(), 7);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) {
      EXPECT_NEAR(hdc::normalized_distance(enc.keys()[i], enc.keys()[j]), 0.5,
                  0.03);
    }
  }
}

TEST(KeyValueEncoderTest, SimilarFeatureVectorsAreSimilar) {
  const KeyValueEncoder enc(8, value_encoder(), 8);
  const double base[] = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8};
  const double near_vec[] = {0.12, 0.2, 0.32, 0.4, 0.5, 0.62, 0.7, 0.8};
  const double far[] = {0.9, 0.8, 0.7, 0.1, 0.0, 0.2, 0.1, 0.05};
  const auto base_hv = enc.encode(base);
  EXPECT_LT(hdc::normalized_distance(base_hv, enc.encode(near_vec)),
            hdc::normalized_distance(base_hv, enc.encode(far)));
}

TEST(KeyValueEncoderTest, FeaturePositionsAreDistinguished) {
  // Swapping two distinct feature values must change the encoding: the keys
  // bind values to their positions.
  const KeyValueEncoder enc(2, value_encoder(), 9);
  const double ab[] = {0.0, 1.0};
  const double ba[] = {1.0, 0.0};
  EXPECT_GT(hdc::normalized_distance(enc.encode(ab), enc.encode(ba)), 0.2);
}

TEST(KeyValueEncoderTest, WorksWithCircularValues) {
  hdc::CircularBasisConfig config;
  config.dimension = 10'000;
  config.size = 16;
  config.seed = 10;
  const auto values = std::make_shared<hdc::CircularScalarEncoder>(
      hdc::make_circular_basis(config), hdc::stats::two_pi);
  const KeyValueEncoder enc(3, values, 11);
  // Angles across the wrap stay similar through the whole encoder.
  const double before[] = {6.2, 1.0, 2.0};
  const double after[] = {0.05, 1.0, 2.0};
  EXPECT_LT(hdc::normalized_distance(enc.encode(before), enc.encode(after)),
            0.15);
}

TEST(KeyValueEncoderTest, MatchesAccumulatorOracleForEveryKernel) {
  // K_i ⊗ V(x_i) materialized and counted in a BundleAccumulator is the
  // oracle the one-pass majority kernel must reproduce bit for bit, for odd
  // and even feature counts (ties) and the Table 1 shape of 18 circular
  // channels.
  const std::string previous = hdc::bits::active_kernels().name;
  for (const std::size_t dim : {65, 10'000}) {
    hdc::CircularBasisConfig config;
    config.dimension = dim;
    config.size = 64;
    config.seed = 12;
    const auto values = std::make_shared<hdc::CircularScalarEncoder>(
        hdc::make_circular_basis(config), hdc::stats::two_pi);
    for (const std::size_t features : {1, 2, 3, 18, 64}) {
      const KeyValueEncoder enc(features, values, 13 + features);
      hdc::Rng rng(dim + features);
      for (int sample = 0; sample < 4; ++sample) {
        std::vector<double> row(features);
        for (double& x : row) {
          x = rng.uniform(0.0, hdc::stats::two_pi);
        }
        hdc::BundleAccumulator acc(dim);
        for (std::size_t i = 0; i < features; ++i) {
          acc.add(hdc::bind(enc.keys()[i], values->encode(row[i])));
        }
        const hdc::Hypervector expected = acc.finalize(enc.tie_breaker());
        for (const hdc::bits::Kernels* variant :
             hdc::bits::available_kernels()) {
          hdc::bits::select_kernels(variant->name);
          EXPECT_EQ(enc.encode(row), expected)
              << variant->name << " d=" << dim << " features=" << features;
        }
      }
    }
  }
  hdc::bits::select_kernels(previous);
}

}  // namespace
