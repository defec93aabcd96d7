// Property suite for online adaptation over restored models: the
// equivalences that make learning over borrowed (mmap-backed) models safe
// to serve.  The published model is the base with exactly the changed rows
// patched in, a published model never changes afterwards, borrowed base ==
// owning base bit for bit, and two replicas fed the same feedback stream
// publish bit-identical models (the cluster broadcast correctness
// condition).

#include "hdc/core/adaptive.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "hdc/core/basis_level.hpp"
#include "hdc/core/classifier.hpp"
#include "hdc/core/ops.hpp"
#include "hdc/core/regressor.hpp"
#include "hdc/core/scalar_encoder.hpp"

namespace {

using hdc::AdaptiveClassifier;
using hdc::AdaptiveRegressor;
using hdc::CentroidClassifier;
using hdc::checked_class_label;
using hdc::HDRegressor;
using hdc::Hypervector;
using hdc::kDefaultAdaptSeed;
using hdc::Rng;

constexpr std::size_t kDim = 1'030;  // partial tail word
constexpr std::size_t kClasses = 5;

/// A finalized trainable classifier plus an inference-only restore of the
/// same class-vectors — the owning twin of a snapshot-borrowed model.
struct ClassifierPair {
  std::shared_ptr<const CentroidClassifier> trained;
  std::shared_ptr<const CentroidClassifier> restored;
};

ClassifierPair make_classifier_pair(std::uint64_t seed) {
  Rng rng(seed);
  auto model = std::make_shared<CentroidClassifier>(kClasses, kDim, seed);
  for (int i = 0; i < 40; ++i) {
    for (std::size_t c = 0; c < kClasses; ++c) {
      model->add_sample(c, Hypervector::random(kDim, rng));
    }
  }
  model->finalize();
  return {model, std::make_shared<const CentroidClassifier>(model->detach())};
}

/// Deterministic labelled feedback stream; some samples are deliberately
/// far from their label's centroid so adapt() actually fires.
std::vector<std::pair<std::size_t, Hypervector>> feedback_stream(
    std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::size_t, Hypervector>> stream;
  stream.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    stream.emplace_back(i % kClasses, Hypervector::random(kDim, rng));
  }
  return stream;
}

TEST(AdaptiveClassifierTest, ConstructionValidates) {
  EXPECT_THROW(AdaptiveClassifier(nullptr, kDefaultAdaptSeed),
               std::invalid_argument);
  auto unfinalized = std::make_shared<CentroidClassifier>(2, 128, 1);
  EXPECT_THROW(AdaptiveClassifier(unfinalized, kDefaultAdaptSeed),
               std::logic_error);
}

TEST(AdaptiveClassifierTest, UntouchedOverlayIsBitIdenticalToBase) {
  const auto pair = make_classifier_pair(11);
  const AdaptiveClassifier overlay(pair.restored, kDefaultAdaptSeed);
  EXPECT_EQ(overlay.touched_classes(), 0U);
  EXPECT_TRUE(overlay.changed_rows().empty());
  // Until an update changes something, the base itself is what serves.
  EXPECT_EQ(overlay.model(), pair.restored);
}

TEST(AdaptiveClassifierTest, BorrowedAndOwningBasesBuildIdenticalOverlays) {
  // The restore path must not change adaptation: an overlay over the
  // inference-only restored model and one over the trainable original
  // (identical class-vectors) agree word for word after the same stream.
  const auto pair = make_classifier_pair(21);
  AdaptiveClassifier over_trained(pair.trained, kDefaultAdaptSeed);
  AdaptiveClassifier over_restored(pair.restored, kDefaultAdaptSeed);
  for (const auto& [label, sample] : feedback_stream(60, 22)) {
    EXPECT_EQ(over_trained.adapt(label, sample),
              over_restored.adapt(label, sample));
  }
  EXPECT_GT(over_restored.touched_classes(), 0U);
  EXPECT_EQ(over_trained.changed_rows(), over_restored.changed_rows());
  EXPECT_EQ(over_trained.updates(), over_restored.updates());
}

TEST(AdaptiveClassifierTest, PublishedModelPatchesChangedRowsIntoTheBase) {
  const auto pair = make_classifier_pair(31);
  AdaptiveClassifier overlay(pair.restored, kDefaultAdaptSeed);
  const auto stream = feedback_stream(80, 32);
  for (std::size_t i = 0; i < stream.size() / 2; ++i) {
    (void)overlay.adapt(stream[i].first, stream[i].second);
  }
  ASSERT_GT(overlay.updates(), 0U);
  // A published model is immutable: later updates publish a new one and
  // leave every model already handed out as it was.
  const auto held = overlay.model();
  const auto held_words = held->packed_class_words();
  const std::vector<std::uint64_t> before(held_words.begin(),
                                          held_words.end());
  const std::uint64_t updates = overlay.updates();
  for (std::size_t i = stream.size() / 2; i < stream.size(); ++i) {
    (void)overlay.adapt(stream[i].first, stream[i].second);
  }
  ASSERT_GT(overlay.updates(), updates);
  EXPECT_NE(overlay.model(), held);
  EXPECT_TRUE(std::equal(before.begin(), before.end(),
                         held->packed_class_words().begin()));

  // The published arena carries the changed rows where touched and base
  // rows everywhere else.
  const CentroidClassifier& flat = *overlay.model();
  const auto changed = overlay.changed_rows();
  for (std::size_t c = 0; c < kClasses; ++c) {
    const auto row = flat.class_vector(c);
    if (const auto it = changed.find(c); it != changed.end()) {
      EXPECT_TRUE(
          std::equal(it->second.begin(), it->second.end(),
                     row.words().begin()))
          << "class " << c;
    } else {
      const auto base = pair.restored->class_vector(c);
      EXPECT_TRUE(std::equal(base.words().begin(), base.words().end(),
                             row.words().begin()))
          << "class " << c;
    }
  }
}

TEST(AdaptiveClassifierTest, ReplicasWithSameSeedAreBitIdentical) {
  const auto pair = make_classifier_pair(51);
  AdaptiveClassifier rank0(pair.restored, kDefaultAdaptSeed);
  AdaptiveClassifier rank1(pair.restored, kDefaultAdaptSeed);
  for (const auto& [label, sample] : feedback_stream(100, 52)) {
    EXPECT_EQ(rank0.adapt(label, sample), rank1.adapt(label, sample));
  }
  EXPECT_EQ(rank0.changed_rows(), rank1.changed_rows());
  const auto words0 = rank0.model()->packed_class_words();
  const auto words1 = rank1.model()->packed_class_words();
  EXPECT_TRUE(std::equal(words0.begin(), words0.end(), words1.begin(),
                         words1.end()));
  EXPECT_EQ(rank0.feedback_rows(), rank1.feedback_rows());
  EXPECT_EQ(rank0.updates(), rank1.updates());
}

TEST(AdaptiveClassifierTest, ResetRestoresTheBase) {
  const auto pair = make_classifier_pair(61);
  AdaptiveClassifier overlay(pair.restored, kDefaultAdaptSeed);
  for (const auto& [label, sample] : feedback_stream(30, 62)) {
    (void)overlay.adapt(label, sample);
  }
  ASSERT_GT(overlay.touched_classes(), 0U);
  overlay.reset();
  EXPECT_EQ(overlay.touched_classes(), 0U);
  EXPECT_EQ(overlay.model(), pair.restored);
}

TEST(AdaptiveClassifierTest, AdaptRepairsAPoisonedRestoredModel) {
  // The tentpole scenario: a restored (inference-only) model with a bad
  // class boundary, which before this PR could not adapt at all.  Feedback
  // through the adapter must repair it without touching the base.
  Rng rng(71);
  const auto proto_a = Hypervector::random(kDim, rng);
  const auto proto_b = Hypervector::random(kDim, rng);
  CentroidClassifier trained(2, kDim, 72);
  for (int i = 0; i < 30; ++i) {
    trained.add_sample(0, hdc::flip_random_bits(proto_a, kDim / 12, rng));
    trained.add_sample(1, hdc::flip_random_bits(proto_b, kDim / 12, rng));
  }
  for (int i = 0; i < 25; ++i) {  // poison class 1 with near-A samples
    trained.add_sample(1, hdc::flip_random_bits(proto_a, kDim / 12, rng));
  }
  trained.finalize();
  const auto restored =
      std::make_shared<const CentroidClassifier>(trained.detach());

  AdaptiveClassifier overlay(restored, kDefaultAdaptSeed);
  std::size_t wrong_before = 0;
  for (int i = 0; i < 50; ++i) {
    wrong_before +=
        overlay.model()->predict(
            hdc::flip_random_bits(proto_a, kDim / 12, rng)) != 0
            ? 1U
            : 0U;
  }
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (int i = 0; i < 40; ++i) {
      (void)overlay.adapt(0, hdc::flip_random_bits(proto_a, kDim / 12, rng));
      (void)overlay.adapt(1, hdc::flip_random_bits(proto_b, kDim / 12, rng));
    }
  }
  std::size_t wrong_after = 0;
  for (int i = 0; i < 50; ++i) {
    wrong_after +=
        overlay.model()->predict(
            hdc::flip_random_bits(proto_a, kDim / 12, rng)) != 0
            ? 1U
            : 0U;
  }
  EXPECT_LE(wrong_after, wrong_before);
  EXPECT_EQ(wrong_after, 0U);
  // The base model itself is untouched (the mmap-safety property).
  for (std::size_t c = 0; c < 2; ++c) {
    const auto original = trained.class_vector(c);
    const auto base = restored->class_vector(c);
    EXPECT_TRUE(std::equal(original.words().begin(), original.words().end(),
                           base.words().begin()));
  }
}

TEST(AdaptiveClassifierTest, CheckedClassLabelRejectsBadTargets) {
  EXPECT_EQ(checked_class_label(0.0, 3), 0U);
  EXPECT_EQ(checked_class_label(2.0, 3), 2U);
  EXPECT_THROW((void)checked_class_label(2.5, 3), std::invalid_argument);
  EXPECT_THROW((void)checked_class_label(-1.0, 3), std::invalid_argument);
  EXPECT_THROW((void)checked_class_label(3.0, 3), std::invalid_argument);
  EXPECT_THROW(
      (void)checked_class_label(std::numeric_limits<double>::quiet_NaN(), 3),
      std::invalid_argument);
  EXPECT_THROW(
      (void)checked_class_label(std::numeric_limits<double>::infinity(), 3),
      std::invalid_argument);
}

/// A finalized regressor and its inference-only from_model restore.
struct RegressorPair {
  std::shared_ptr<const HDRegressor> trained;
  std::shared_ptr<const HDRegressor> restored;
};

RegressorPair make_regressor_pair(std::uint64_t seed) {
  hdc::LevelBasisConfig config;
  config.dimension = kDim;
  config.size = 16;
  config.seed = seed;
  const auto labels = std::make_shared<hdc::LinearScalarEncoder>(
      hdc::make_level_basis(config), 0.0, 1.0);
  auto model = std::make_shared<HDRegressor>(labels, seed + 1);
  for (int k = 0; k < 24; ++k) {
    const double x = static_cast<double>(k) / 23.0;
    model->add_sample(labels->encode(x), x);
  }
  model->finalize();
  return {model, std::make_shared<const HDRegressor>(HDRegressor::from_model(
                     labels, Hypervector(model->model())))};
}

TEST(AdaptiveRegressorTest, ConstructionValidates) {
  EXPECT_THROW(AdaptiveRegressor(nullptr, kDefaultAdaptSeed),
               std::invalid_argument);
}

TEST(AdaptiveRegressorTest, UntouchedOverlayMatchesBaseAndAdaptsInPlace) {
  const auto pair = make_regressor_pair(81);
  AdaptiveRegressor overlay(pair.restored, kDefaultAdaptSeed);
  EXPECT_FALSE(overlay.touched());
  EXPECT_TRUE(overlay.changed_rows().empty());
  EXPECT_EQ(overlay.model(), pair.restored);
  const auto& labels = pair.restored->labels();
  // Drive feedback toward a shifted target curve until an update fires.
  for (int k = 0; k < 48; ++k) {
    const double x = static_cast<double>(k % 16) / 15.0;
    (void)overlay.adapt(labels.encode(x), 1.0 - x);
  }
  EXPECT_TRUE(overlay.touched());
  EXPECT_GT(overlay.updates(), 0U);
  const auto changed = overlay.changed_rows();
  ASSERT_EQ(changed.size(), 1U);
  EXPECT_EQ(changed.begin()->first, 0U);
}

TEST(AdaptiveRegressorTest, PublishedModelIsTheChangedRow) {
  const auto pair = make_regressor_pair(91);
  AdaptiveRegressor overlay(pair.restored, kDefaultAdaptSeed);
  const auto& labels = pair.restored->labels();
  for (int k = 0; k < 64; ++k) {
    const double x = static_cast<double>(k % 16) / 15.0;
    (void)overlay.adapt(labels.encode(x), 1.0 - x);
  }
  ASSERT_TRUE(overlay.touched());
  // The published regressor is the changed row over the base's label
  // encoder: the model a delta reload of changed_rows() restores.
  const auto changed = overlay.changed_rows();
  ASSERT_EQ(changed.size(), 1U);
  const auto words = overlay.model()->model().words();
  EXPECT_TRUE(std::equal(words.begin(), words.end(),
                         changed.at(0).begin(), changed.at(0).end()));
  EXPECT_EQ(&overlay.model()->labels(), &labels);
  EXPECT_TRUE(overlay.model()->finalized());
}

TEST(AdaptiveRegressorTest, BorrowedAndOwningBasesBuildIdenticalOverlays) {
  const auto pair = make_regressor_pair(101);
  AdaptiveRegressor over_trained(pair.trained, kDefaultAdaptSeed);
  AdaptiveRegressor over_restored(pair.restored, kDefaultAdaptSeed);
  const auto& labels = pair.restored->labels();
  for (int k = 0; k < 64; ++k) {
    const double x = static_cast<double>(k % 16) / 15.0;
    EXPECT_DOUBLE_EQ(over_trained.adapt(labels.encode(x), 1.0 - x),
                     over_restored.adapt(labels.encode(x), 1.0 - x));
  }
  EXPECT_EQ(over_trained.changed_rows(), over_restored.changed_rows());
  EXPECT_EQ(over_trained.updates(), over_restored.updates());
}

TEST(AdaptiveRegressorTest, ResetRestoresTheBase) {
  const auto pair = make_regressor_pair(111);
  AdaptiveRegressor overlay(pair.restored, kDefaultAdaptSeed);
  const auto& labels = pair.restored->labels();
  for (int k = 0; k < 48; ++k) {
    const double x = static_cast<double>(k % 16) / 15.0;
    (void)overlay.adapt(labels.encode(x), 1.0 - x);
  }
  ASSERT_TRUE(overlay.touched());
  overlay.reset();
  EXPECT_FALSE(overlay.touched());
  EXPECT_EQ(overlay.model(), pair.restored);
}

}  // namespace
