// End-to-end integration test through the umbrella header: build encoders,
// train both model types and predict — the in-process lifecycle a
// downstream user runs.  Storing and restoring a trained pipeline is the
// snapshot suites' job (tests/io/pipeline_equivalence_test.cpp).

#include "hdc/core/hdc.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "hdc/stats/circular.hpp"

namespace {

TEST(IntegrationTest, FullClassificationLifecycle) {
  constexpr std::size_t kDim = 8'192;

  // 1. Basis + encoders for a 3-gesture angular problem.
  hdc::CircularBasisConfig basis_config;
  basis_config.dimension = kDim;
  basis_config.size = 32;
  basis_config.r = 0.1;
  basis_config.seed = 11;
  const auto values = std::make_shared<hdc::CircularScalarEncoder>(
      hdc::make_circular_basis(basis_config), hdc::stats::two_pi);
  const hdc::KeyValueEncoder encoder(4, values, 12);

  // 2. Train on von-Mises-like angular clusters (one straddling the wrap).
  const double means[3][4] = {{0.1, 2.0, 4.0, 6.2},
                              {1.5, 3.5, 5.5, 1.0},
                              {2.8, 0.6, 1.9, 4.8}};
  hdc::CentroidClassifier model(3, kDim, 13);
  hdc::Rng rng(14);
  for (int i = 0; i < 120; ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      std::vector<double> sample(4);
      for (std::size_t v = 0; v < 4; ++v) {
        sample[v] = hdc::stats::wrap_angle(means[c][v] +
                                           rng.normal(0.0, 0.3));
      }
      model.add_sample(c, encoder.encode(sample));
    }
  }
  model.finalize();

  // 3. The trained pipeline classifies fresh samples.
  std::size_t correct = 0;
  const int trials = 100;
  for (int i = 0; i < trials; ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      std::vector<double> sample(4);
      for (std::size_t v = 0; v < 4; ++v) {
        sample[v] = hdc::stats::wrap_angle(means[c][v] +
                                           rng.normal(0.0, 0.3));
      }
      correct += model.predict(encoder.encode(sample)) == c ? 1U : 0U;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / (3.0 * trials), 0.95);
}

TEST(IntegrationTest, FullRegressionLifecycle) {
  constexpr std::size_t kDim = 8'192;

  // Circular input over one day; level labels.
  hdc::CircularBasisConfig input_config;
  input_config.dimension = kDim;
  input_config.size = 48;
  input_config.seed = 21;
  const auto hours = std::make_shared<hdc::CircularScalarEncoder>(
      hdc::make_circular_basis(input_config), 24.0);

  hdc::LevelBasisConfig label_config;
  label_config.dimension = kDim;
  label_config.size = 96;
  label_config.seed = 22;
  const auto labels = std::make_shared<hdc::LinearScalarEncoder>(
      hdc::make_level_basis(label_config), -10.0, 30.0);

  // Diurnal temperature curve with noise.
  const auto truth = [](double hour) {
    return 10.0 + 8.0 * std::cos((hour - 15.0) / 24.0 * hdc::stats::two_pi);
  };
  hdc::HDRegressor model(labels, 23);
  hdc::Rng rng(24);
  for (int i = 0; i < 600; ++i) {
    const double hour = rng.uniform(0.0, 24.0);
    model.add_sample(hours->encode(hour), truth(hour) + rng.normal(0.0, 0.5));
  }
  model.finalize();

  double se = 0.0;
  const int probes = 48;
  for (int i = 0; i < probes; ++i) {
    const double hour = 24.0 * i / probes;
    const double predicted = model.predict_integer(hours->encode(hour));
    se += (predicted - truth(hour)) * (predicted - truth(hour));
  }
  // The curve's variance is 32; the model must do far better, including at
  // the midnight wrap.
  EXPECT_LT(se / probes, 8.0);
  const double at_wrap_before = model.predict_integer(hours->encode(23.9));
  const double at_wrap_after = model.predict_integer(hours->encode(0.1));
  EXPECT_NEAR(at_wrap_before, at_wrap_after, 2.0);
}

TEST(IntegrationTest, VersionConstantsAreConsistent) {
  EXPECT_EQ(hdc::version_major, 1);
  EXPECT_STREQ(hdc::version_string, "1.0.0");
}

}  // namespace
