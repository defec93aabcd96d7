// Tests for the centroid classifier (Section 2.2) and the adaptive
// refinement extension.

#include "hdc/core/classifier.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "hdc/core/basis_circular.hpp"
#include "hdc/core/ops.hpp"
#include "hdc/core/scalar_encoder.hpp"
#include "hdc/stats/circular.hpp"

namespace {

using hdc::CentroidClassifier;
using hdc::Hypervector;
using hdc::Rng;

TEST(ClassifierTest, ValidatesConstruction) {
  EXPECT_THROW(CentroidClassifier(0, 100, 1), std::invalid_argument);
  EXPECT_THROW(CentroidClassifier(3, 0, 1), std::invalid_argument);
}

// The restore path validates the packed arena it adopts: class count,
// dimension, word count (overflow-safe) and clean row tails.
TEST(ClassifierTest, FromPackedClassWordsValidates) {
  const auto restore = [](std::size_t classes, std::size_t dimension,
                          std::vector<std::uint64_t> words) {
    return CentroidClassifier::from_packed_class_words(
        classes, dimension, hdc::WordStorage(std::move(words)));
  };
  EXPECT_THROW((void)restore(0, 70, {}), std::invalid_argument);
  EXPECT_THROW((void)restore(2, 0, {0, 0}), std::invalid_argument);
  // Two classes of d = 70 take 2 words each.
  EXPECT_THROW((void)restore(2, 70, {0, 0, 0}), std::invalid_argument);
  EXPECT_THROW((void)restore(2, 70, {0, 1ULL << 63, 0, 0}),
               std::invalid_argument);  // bit 127 of row 0: beyond d = 70
  EXPECT_THROW((void)restore(std::size_t{1} << 63, 70, {}),
               std::invalid_argument);  // * 2 words/class wraps to 0

  const CentroidClassifier model = restore(2, 70, {0xFF, 0, 0, 1ULL << 5});
  EXPECT_TRUE(model.owns_storage());
  EXPECT_TRUE(model.inference_only());
  EXPECT_TRUE(model.finalized());
  EXPECT_EQ(model.num_classes(), 2U);
  EXPECT_EQ(model.class_vector(0).count_ones(), 8U);
  EXPECT_EQ(model.class_vector(1).count_ones(), 1U);
}

TEST(ClassifierTest, PredictRequiresFinalize) {
  CentroidClassifier model(2, 128, 1);
  Rng rng(2);
  const auto query = Hypervector::random(128, rng);
  EXPECT_THROW((void)model.predict(query), std::logic_error);
  model.finalize();
  EXPECT_NO_THROW((void)model.predict(query));
}

TEST(ClassifierTest, AddSampleValidatesLabelAndDimension) {
  CentroidClassifier model(2, 128, 1);
  Rng rng(3);
  EXPECT_THROW(model.add_sample(2, Hypervector::random(128, rng)),
               std::invalid_argument);
  EXPECT_THROW(model.add_sample(0, Hypervector::random(64, rng)),
               std::invalid_argument);
}

TEST(ClassifierTest, UpdatesInvalidateFinalization) {
  CentroidClassifier model(2, 128, 1);
  Rng rng(4);
  model.finalize();
  EXPECT_TRUE(model.finalized());
  model.add_sample(0, Hypervector::random(128, rng));
  EXPECT_FALSE(model.finalized());
}

TEST(ClassifierTest, RecoversPrototypesOfNoisyClasses) {
  // Three random prototypes; training samples are 10%-corrupted copies.
  constexpr std::size_t dim = 10'000;
  Rng rng(5);
  std::vector<Hypervector> prototypes;
  for (int c = 0; c < 3; ++c) {
    prototypes.push_back(Hypervector::random(dim, rng));
  }
  CentroidClassifier model(3, dim, 6);
  for (int i = 0; i < 50; ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      model.add_sample(c, hdc::flip_random_bits(prototypes[c], 1'000, rng));
    }
  }
  model.finalize();
  // The class-vector converges to the prototype...
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_LT(hdc::normalized_distance(model.class_vector(c), prototypes[c]),
              0.05);
    EXPECT_EQ(model.class_count(c), 50U);
  }
  // ... and fresh noisy samples classify correctly, even at 30% corruption.
  for (std::size_t c = 0; c < 3; ++c) {
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(model.predict(hdc::flip_random_bits(prototypes[c], 3'000, rng)),
                c);
    }
  }
}

TEST(ClassifierTest, SimilaritiesRankTrueClassHighest) {
  constexpr std::size_t dim = 10'000;
  Rng rng(7);
  const auto proto_a = Hypervector::random(dim, rng);
  const auto proto_b = Hypervector::random(dim, rng);
  CentroidClassifier model(2, dim, 8);
  for (int i = 0; i < 10; ++i) {
    model.add_sample(0, hdc::flip_random_bits(proto_a, 500, rng));
    model.add_sample(1, hdc::flip_random_bits(proto_b, 500, rng));
  }
  model.finalize();
  const auto sims = model.similarities(proto_a);
  ASSERT_EQ(sims.size(), 2U);
  EXPECT_GT(sims[0], sims[1]);
  EXPECT_DOUBLE_EQ(sims[0], model.class_similarity(0, proto_a));
}

TEST(ClassifierTest, AdaptCorrectsMislabeledPrototype) {
  // Poison class 1 with class-0 samples, then let mistake-driven updates
  // repair the boundary.
  constexpr std::size_t dim = 10'000;
  Rng rng(9);
  const auto proto_a = Hypervector::random(dim, rng);
  const auto proto_b = Hypervector::random(dim, rng);
  CentroidClassifier model(2, dim, 10);
  for (int i = 0; i < 30; ++i) {
    model.add_sample(0, hdc::flip_random_bits(proto_a, 800, rng));
    model.add_sample(1, hdc::flip_random_bits(proto_b, 800, rng));
  }
  // Poison: class 1 accumulates many near-A samples.
  for (int i = 0; i < 25; ++i) {
    model.add_sample(1, hdc::flip_random_bits(proto_a, 800, rng));
  }
  model.finalize();

  std::size_t wrong_before = 0;
  for (int i = 0; i < 50; ++i) {
    wrong_before +=
        model.predict(hdc::flip_random_bits(proto_a, 800, rng)) != 0 ? 1U : 0U;
  }

  // Adaptive epoch over fresh labelled data.
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (int i = 0; i < 40; ++i) {
      (void)model.adapt(0, hdc::flip_random_bits(proto_a, 800, rng));
      (void)model.adapt(1, hdc::flip_random_bits(proto_b, 800, rng));
    }
  }

  std::size_t wrong_after = 0;
  for (int i = 0; i < 50; ++i) {
    wrong_after +=
        model.predict(hdc::flip_random_bits(proto_a, 800, rng)) != 0 ? 1U : 0U;
  }
  EXPECT_LE(wrong_after, wrong_before);
  EXPECT_EQ(wrong_after, 0U);
}

TEST(ClassifierTest, EndToEndAngularGestures) {
  // Miniature version of the paper's task: angular samples around class
  // means, one of which straddles the wrap point.
  constexpr std::size_t dim = 10'000;
  hdc::CircularBasisConfig config;
  config.dimension = dim;
  config.size = 32;
  config.seed = 11;
  const hdc::CircularScalarEncoder encoder(hdc::make_circular_basis(config),
                                           hdc::stats::two_pi);
  const double means[] = {0.05, 2.0, 4.2};  // first one wraps
  CentroidClassifier model(3, dim, 12);
  Rng rng(13);
  for (int i = 0; i < 150; ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      const double theta = rng.normal(means[c], 0.25);
      model.add_sample(c, encoder.encode(theta));
    }
  }
  model.finalize();
  std::size_t correct = 0;
  const int trials = 300;
  for (int i = 0; i < trials; ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      const double theta = rng.normal(means[c], 0.25);
      correct += model.predict(encoder.encode(theta)) == c ? 1U : 0U;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / (3.0 * trials), 0.95);
}

}  // namespace
