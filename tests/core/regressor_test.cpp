// Tests for the HDC regression framework (Section 2.3): binary and integer
// readouts on synthetic circular-linear functions.

#include "hdc/core/regressor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "hdc/core/basis_circular.hpp"
#include "hdc/core/basis_level.hpp"
#include "hdc/core/basis_random.hpp"
#include "hdc/core/multiscale_encoder.hpp"
#include "hdc/core/ops.hpp"
#include "hdc/stats/circular.hpp"

namespace {

using hdc::HDRegressor;
using hdc::Rng;

hdc::ScalarEncoderPtr label_encoder(double lo, double hi,
                                    std::size_t d = 10'000) {
  hdc::LevelBasisConfig config;
  config.dimension = d;
  config.size = 64;
  config.seed = 100;
  return std::make_shared<hdc::LinearScalarEncoder>(
      hdc::make_level_basis(config), lo, hi);
}

std::shared_ptr<hdc::CircularScalarEncoder> angle_encoder(
    std::size_t d = 10'000, std::size_t m = 64) {
  hdc::CircularBasisConfig config;
  config.dimension = d;
  config.size = m;
  config.seed = 101;
  return std::make_shared<hdc::CircularScalarEncoder>(
      hdc::make_circular_basis(config), hdc::stats::two_pi);
}

TEST(RegressorTest, ValidatesConstruction) {
  EXPECT_THROW(HDRegressor(nullptr, 1), std::invalid_argument);
}

TEST(RegressorTest, PredictRequiresFinalize) {
  HDRegressor model(label_encoder(0.0, 1.0, 256), 1);
  Rng rng(2);
  const auto query = hdc::Hypervector::random(256, rng);
  EXPECT_THROW((void)model.predict(query), std::logic_error);
  EXPECT_THROW((void)model.model(), std::logic_error);
  // The integer readout works straight off the accumulator.
  EXPECT_NO_THROW((void)model.predict_integer(query));
}

TEST(RegressorTest, ValidatesInputDimension) {
  HDRegressor model(label_encoder(0.0, 1.0, 256), 1);
  Rng rng(3);
  const auto wrong = hdc::Hypervector::random(128, rng);
  EXPECT_THROW(model.add_sample(wrong, 0.5), std::invalid_argument);
  model.finalize();
  EXPECT_THROW((void)model.predict(wrong), std::invalid_argument);
  EXPECT_THROW((void)model.predict_integer(wrong), std::invalid_argument);
}

TEST(RegressorTest, MemorizesSingleSampleExactly) {
  // One sample: M = phi(x) ^ phi_l(y), so M ^ phi(x) == phi_l(y) exactly
  // and decoding returns y's grid point.
  const auto labels = label_encoder(0.0, 63.0);
  const auto inputs = angle_encoder();
  HDRegressor model(labels, 4);
  model.add_sample(inputs->encode(1.0), 17.0);
  model.finalize();
  EXPECT_DOUBLE_EQ(model.predict(inputs->encode(1.0)), 17.0);
  EXPECT_DOUBLE_EQ(model.predict_integer(inputs->encode(1.0)), 17.0);
}

TEST(RegressorTest, LearnsSmoothCircularFunction) {
  // y = sin(theta): a few hundred samples, integer readout tracks the curve.
  const auto labels = label_encoder(-1.2, 1.2);
  const auto inputs = angle_encoder();
  HDRegressor model(labels, 5);
  Rng rng(6);
  for (int i = 0; i < 400; ++i) {
    const double theta = rng.uniform(0.0, hdc::stats::two_pi);
    model.add_sample(inputs->encode(theta),
                     std::sin(theta) + rng.normal(0.0, 0.05));
  }
  model.finalize();
  double se = 0.0;
  const int probes = 100;
  for (int i = 0; i < probes; ++i) {
    const double theta = rng.uniform(0.0, hdc::stats::two_pi);
    const double predicted = model.predict_integer(inputs->encode(theta));
    se += (predicted - std::sin(theta)) * (predicted - std::sin(theta));
  }
  EXPECT_LT(se / probes, 0.2);  // the curve's variance is 0.5
}

TEST(RegressorTest, BinaryReadoutRecallsMemorizedPairs) {
  // Section 2.3's core property: the single bundled hypervector memorizes
  // (sample, label) pairs and the binary readout recalls them.  Recall needs
  // quasi-orthogonal sample keys, so the inputs use a random basis (with
  // correlated bases the bundle saturates; see EXPERIMENTS.md).
  const auto labels = label_encoder(-1.2, 1.2);
  hdc::RandomBasisConfig keys_config;
  keys_config.dimension = 10'000;
  keys_config.size = 15;
  keys_config.seed = 102;
  const hdc::Basis keys = hdc::make_random_basis(keys_config);
  HDRegressor model(labels, 7);
  Rng rng(8);
  std::vector<double> values;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    values.push_back(rng.uniform(-1.0, 1.0));
    model.add_sample(keys[i], values.back());
  }
  model.finalize();
  double se = 0.0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const double predicted = model.predict(keys[i]);
    se += (predicted - values[i]) * (predicted - values[i]);
  }
  EXPECT_LT(se / static_cast<double>(keys.size()), 0.05);
}

// Regression companion to the classifier's queryable trainability: a
// regressor restored from its quantized model reports the inference-only
// state and rejects accumulator-dependent paths up front.
TEST(RegressorTest, FromModelRestoresInferenceOnlyPredictor) {
  const auto labels = label_encoder(0.0, 1.0, 512);
  HDRegressor trained(labels, 3);
  for (int k = 0; k < 16; ++k) {
    const double x = static_cast<double>(k) / 15.0;
    trained.add_sample(labels->encode(x), x);
  }
  trained.finalize();
  EXPECT_TRUE(trained.trainable());

  HDRegressor restored = HDRegressor::from_model(labels, trained.model());
  EXPECT_TRUE(restored.finalized());
  EXPECT_FALSE(restored.trainable());
  EXPECT_TRUE(restored.inference_only());
  for (int k = 0; k < 16; ++k) {
    const double x = static_cast<double>(k) / 15.0;
    EXPECT_DOUBLE_EQ(restored.predict(labels->encode(x)),
                     trained.predict(labels->encode(x)));
  }
  EXPECT_THROW(restored.add_sample(labels->encode(0.5), 0.5),
               std::logic_error);
  hdc::BundleAccumulator partial(restored.dimension());
  EXPECT_THROW(restored.absorb(partial), std::logic_error);
  EXPECT_THROW(restored.finalize(), std::logic_error);
  EXPECT_THROW((void)restored.predict_integer(labels->encode(0.5)),
               std::logic_error);
}

TEST(RegressorTest, FromModelValidatesDimension) {
  const auto labels = label_encoder(0.0, 1.0, 512);
  Rng rng(9);
  EXPECT_THROW((void)HDRegressor::from_model(
                   labels, hdc::Hypervector::random(64, rng)),
               std::invalid_argument);
  EXPECT_THROW((void)HDRegressor::from_model(nullptr, hdc::Hypervector(512)),
               std::invalid_argument);
}

TEST(RegressorTest, SampleCountTracksAdds) {
  HDRegressor model(label_encoder(0.0, 1.0, 128), 9);
  Rng rng(10);
  EXPECT_EQ(model.sample_count(), 0U);
  model.add_sample(hdc::Hypervector::random(128, rng), 0.3);
  model.add_sample(hdc::Hypervector::random(128, rng), 0.7);
  EXPECT_EQ(model.sample_count(), 2U);
}

TEST(RegressorTest, LabelsAccessorExposesEncoder) {
  const auto labels = label_encoder(0.0, 10.0, 128);
  HDRegressor model(labels, 11);
  EXPECT_EQ(&model.labels(), labels.get());
  EXPECT_EQ(model.dimension(), 128U);
}

TEST(RegressorTest, ScratchReadoutsMatchPredictAndPredictBand) {
  // The one-sweep readout decodes from the profile's argmin only where the
  // label encoder decodes on its basis; the multi-scale encoder sweeps its
  // bound arena, so its value must still come out as predict()'s.
  constexpr std::size_t d = 1'000;
  hdc::MultiScaleCircularEncoder::Config multiscale;
  multiscale.dimension = d;
  multiscale.scales = {4, 16};
  multiscale.period = hdc::stats::two_pi;
  multiscale.seed = 7;
  const std::vector<hdc::ScalarEncoderPtr> label_encoders = {
      label_encoder(0.0, 1.0, d), angle_encoder(d, 16),
      std::make_shared<hdc::MultiScaleCircularEncoder>(multiscale)};
  EXPECT_TRUE(label_encoders[0]->decodes_on_basis());
  EXPECT_TRUE(label_encoders[1]->decodes_on_basis());
  EXPECT_FALSE(label_encoders[2]->decodes_on_basis());
  Rng rng(21);
  for (const hdc::ScalarEncoderPtr& labels : label_encoders) {
    HDRegressor model(labels, 5);
    for (int i = 0; i < 40; ++i) {
      model.add_sample(hdc::Hypervector::random(d, rng),
                       labels->value_of(static_cast<std::size_t>(i) %
                                        labels->size()));
    }
    model.finalize();
    std::vector<std::uint64_t> bound(hdc::bits::words_for(d));
    std::vector<std::size_t> distances(labels->size() + 3, 7);
    for (int q = 0; q < 30; ++q) {
      const auto query = hdc::Hypervector::random(d, rng);
      const hdc::BandedValue banded =
          model.predict_with_band(query.words(), bound, distances);
      EXPECT_EQ(banded.value, model.predict(query));
      EXPECT_EQ(model.predict(query.words(), bound), model.predict(query));
      const hdc::Band band = model.predict_band(query);
      EXPECT_EQ(banded.band.p10, band.p10);
      EXPECT_EQ(banded.band.p50, band.p50);
      EXPECT_EQ(banded.band.p90, band.p90);
      // The profile lands in the caller's buffer; entries past the grid
      // stay untouched.
      const auto unbound = model.model() ^ query;
      for (std::size_t j = 0; j < labels->size(); ++j) {
        EXPECT_EQ(distances[j],
                  hdc::hamming_distance(unbound, labels->basis()[j]));
      }
      EXPECT_EQ(distances[labels->size()], 7U);
    }
  }
}

TEST(RegressorTest, ScratchReadoutsValidateTheirSpans) {
  const auto labels = label_encoder(0.0, 1.0, 256);
  HDRegressor model(labels, 3);
  Rng rng(4);
  const auto query = hdc::Hypervector::random(256, rng);
  std::vector<std::uint64_t> bound(hdc::bits::words_for(256));
  std::vector<std::size_t> distances(labels->size());
  EXPECT_THROW((void)model.predict(query.words(), bound), std::logic_error);
  EXPECT_THROW((void)model.predict_with_band(query.words(), bound, distances),
               std::logic_error);
  model.add_sample(query, 0.5);
  model.finalize();
  std::vector<std::uint64_t> short_bound(bound.size() - 1);
  std::vector<std::size_t> short_distances(labels->size() - 1);
  EXPECT_THROW((void)model.predict(query.words(), short_bound),
               std::invalid_argument);
  EXPECT_THROW((void)model.predict(query.words().first(2), bound),
               std::invalid_argument);
  EXPECT_THROW(
      (void)model.predict_with_band(query.words(), bound, short_distances),
      std::invalid_argument);
}

}  // namespace
