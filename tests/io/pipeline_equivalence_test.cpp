// Dataset-level conformance suite for full-pipeline snapshots.
//
// Trains the paper's two workloads end to end — a JIGSAWS-style gesture
// classifier (18 angular channels through a KeyValueEncoder with circular
// values) and a Beijing-style temperature regressor (periodic day/hour
// features through multiscale-circular values) — snapshots each as ONE
// artifact with SnapshotWriter::add_pipeline, restores it through both the
// mmap reader and the stream loader, and asserts bit-exact encoded vectors
// and identical predictions across the full test split, including under the
// thread pool via the Pipeline -> Batch* bridges.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "hdc/core/hdc.hpp"
#include "hdc/data/beijing.hpp"
#include "hdc/data/jigsaws.hpp"
#include "hdc/data/splits.hpp"
#include "hdc/io/io.hpp"
#include "hdc/runtime/runtime.hpp"

namespace {

using hdc::Hypervector;
using hdc::KeyValueEncoder;
using hdc::io::MappedSnapshot;
using hdc::io::Pipeline;
using hdc::io::PipelineKind;
using hdc::io::SnapshotIntegrity;
using hdc::io::SnapshotWriter;

constexpr std::size_t kDim = 1024;
constexpr double kTwoPi = 6.283185307179586476925287;

std::string temp_file(const std::string& name) {
  return (std::filesystem::path(testing::TempDir()) / name).string();
}

/// Asserts that \p pipeline reproduces \p expected_encoded /
/// \p expected_prediction for every feature row, bit for bit.
void expect_pipeline_matches(
    const Pipeline& pipeline, const std::vector<std::vector<double>>& rows,
    const std::vector<Hypervector>& expected_encoded,
    const std::vector<double>& expected_predictions) {
  ASSERT_EQ(rows.size(), expected_encoded.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Hypervector encoded = pipeline.encode(rows[i]);
    ASSERT_TRUE(encoded == expected_encoded[i]) << "row " << i;
    const double prediction =
        pipeline.kind() == PipelineKind::Classifier
            ? static_cast<double>(pipeline.classify(rows[i]))
            : pipeline.regress(rows[i]);
    ASSERT_EQ(prediction, expected_predictions[i]) << "row " << i;
  }
}

TEST(PipelineEquivalenceTest, GestureClassifierPipelineRoundTripsBitExact) {
  // JIGSAWS-style split: train on one surgeon, test on the others.
  hdc::data::JigsawsConfig data_config;
  data_config.num_gestures = 6;
  data_config.num_surgeons = 4;
  data_config.train_samples_per_gesture = 24;
  data_config.test_samples_per_gesture_per_surgeon = 6;
  const hdc::data::GestureDataset dataset =
      hdc::data::make_jigsaws_dataset(data_config);

  hdc::CircularBasisConfig values_config;
  values_config.dimension = kDim;
  values_config.size = 32;
  values_config.r = 0.1;
  values_config.seed = 101;
  const auto values = std::make_shared<hdc::CircularScalarEncoder>(
      hdc::make_circular_basis(values_config), kTwoPi);
  const KeyValueEncoder encoder(dataset.num_channels, values, 102);

  hdc::CentroidClassifier model(dataset.num_gestures, kDim, 103);
  for (const auto& sample : dataset.train) {
    model.add_sample(sample.gesture, encoder.encode(sample.angles));
  }
  model.finalize();

  const std::string path = temp_file("pipeline_gesture.hdcs");
  SnapshotWriter writer;
  writer.add_pipeline(encoder, model);
  writer.write_file(path);

  // In-memory oracle over the FULL test split.
  std::vector<std::vector<double>> rows;
  std::vector<Hypervector> expected_encoded;
  std::vector<double> expected_predictions;
  for (const auto& sample : dataset.test) {
    rows.push_back(sample.angles);
    expected_encoded.push_back(encoder.encode(sample.angles));
    expected_predictions.push_back(
        static_cast<double>(model.predict(expected_encoded.back())));
  }

  const auto mapped = MappedSnapshot::open(path);
  const Pipeline mapped_pipeline = Pipeline::restore(mapped);
  EXPECT_EQ(mapped_pipeline.kind(), PipelineKind::Classifier);
  EXPECT_EQ(mapped_pipeline.dimension(), kDim);
  EXPECT_EQ(mapped_pipeline.num_features(), dataset.num_channels);
  ASSERT_NE(mapped_pipeline.feature_encoder(), nullptr);
  EXPECT_EQ(mapped_pipeline.scalar_encoder(), nullptr);
  expect_pipeline_matches(mapped_pipeline, rows, expected_encoded,
                          expected_predictions);

  // The heap/stream loader and the Trust fast path serve the same bits.
  const auto streamed = hdc::io::load_snapshot(path);
  expect_pipeline_matches(Pipeline::restore(streamed), rows, expected_encoded,
                          expected_predictions);
  const auto trusted = MappedSnapshot::open(path, SnapshotIntegrity::Trust);
  expect_pipeline_matches(Pipeline::restore(trusted), rows, expected_encoded,
                          expected_predictions);

  // Thread pool: the Batch* bridges must agree with the sequential oracle
  // for every row, for any thread count.
  const auto pool = std::make_shared<hdc::runtime::ThreadPool>(4);
  const auto arena = mapped_pipeline.batch_encoder(pool).encode(rows);
  const auto batch_predictions =
      mapped_pipeline.batch_classifier(pool).predict(arena);
  ASSERT_EQ(batch_predictions.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(arena.view(i) == expected_encoded[i]) << "row " << i;
    EXPECT_EQ(static_cast<double>(batch_predictions[i]),
              expected_predictions[i])
        << "row " << i;
  }

  // An owning model swapped in with with_model() (what an adapted model
  // publishes) is served in place: the engine's class words are the
  // pipeline's own, not a copy, and predict the same.
  const auto owned =
      std::make_shared<const hdc::CentroidClassifier>(model.detach());
  const Pipeline swapped = mapped_pipeline.with_model(owned);
  ASSERT_TRUE(swapped.classifier().owns_storage());
  const auto engine = swapped.batch_classifier(pool);
  EXPECT_EQ(engine.model().packed_class_words().data(),
            owned->packed_class_words().data());
  EXPECT_EQ(engine.model().packed_class_words().size(),
            owned->packed_class_words().size());
  EXPECT_FALSE(engine.model().owns_storage());
  const auto swapped_predictions = engine.predict(arena);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(static_cast<double>(swapped_predictions[i]),
              expected_predictions[i])
        << "row " << i;
  }
  std::filesystem::remove(path);
}

TEST(PipelineEquivalenceTest, TemperatureRegressorPipelineRoundTripsBitExact) {
  // Beijing-style chronological split over the full hourly series; day and
  // hour enter as phases of period 1 through one shared multiscale-circular
  // value encoder.
  const auto records = hdc::data::make_beijing_dataset({});
  const auto split = hdc::data::chronological_split(records.size(), 0.7);

  hdc::MultiScaleCircularEncoder::Config values_config;
  values_config.dimension = kDim;
  values_config.scales = {16, 64};
  values_config.period = 1.0;
  values_config.seed = 201;
  const auto values =
      std::make_shared<hdc::MultiScaleCircularEncoder>(values_config);
  const KeyValueEncoder encoder(2, values, 202);
  const auto featurize = [](const hdc::data::BeijingRecord& r) {
    return std::vector<double>{
        static_cast<double>(r.day_of_year - 1) / 366.0,
        static_cast<double>(r.hour) / 24.0};
  };

  hdc::LevelBasisConfig label_config;
  label_config.dimension = kDim;
  label_config.size = 64;
  label_config.seed = 203;
  const auto labels = std::make_shared<hdc::LinearScalarEncoder>(
      hdc::make_level_basis(label_config), -25.0, 42.0);
  hdc::HDRegressor model(labels, 204);
  for (const std::size_t i : split.train) {
    model.add_sample(encoder.encode(featurize(records[i])),
                     records[i].temperature);
  }
  model.finalize();

  const std::string path = temp_file("pipeline_temperature.hdcs");
  SnapshotWriter writer;
  writer.add_pipeline(encoder, model);
  writer.write_file(path);

  std::vector<std::vector<double>> rows;
  std::vector<Hypervector> expected_encoded;
  std::vector<double> expected_predictions;
  rows.reserve(split.test.size());
  for (const std::size_t i : split.test) {
    rows.push_back(featurize(records[i]));
    expected_encoded.push_back(encoder.encode(rows.back()));
    expected_predictions.push_back(model.predict(expected_encoded.back()));
  }

  const auto mapped = MappedSnapshot::open(path);
  const Pipeline pipeline = Pipeline::restore(mapped);
  EXPECT_EQ(pipeline.kind(), PipelineKind::Regressor);
  EXPECT_EQ(pipeline.num_features(), 2U);
  EXPECT_FALSE(pipeline.regressor().trainable());
  expect_pipeline_matches(pipeline, rows, expected_encoded,
                          expected_predictions);
  const auto streamed = hdc::io::load_snapshot(path);
  expect_pipeline_matches(Pipeline::restore(streamed), rows, expected_encoded,
                          expected_predictions);

  // Thread pool over the full test split.
  const auto pool = std::make_shared<hdc::runtime::ThreadPool>(4);
  const auto arena = pipeline.batch_encoder(pool).encode(rows);
  const auto batch_predictions =
      pipeline.batch_regressor(pool).predict(arena);
  ASSERT_EQ(batch_predictions.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(batch_predictions[i], expected_predictions[i]) << "row " << i;
  }
  std::filesystem::remove(path);
}

TEST(PipelineEquivalenceTest, ComposedBeijingPipelineRoundTripsBitExact) {
  // The paper's flagship circular-regression shape, end to end: temperature
  // regressed on Y ⊗ D ⊗ H — level-encoded year bound to circular day
  // (period 366) and hour (period 24) — over the full hourly series with
  // the chronological split whose test window wraps Dec 31 -> Jan 1.
  const auto records = hdc::data::make_beijing_dataset({});
  const auto split = hdc::data::chronological_split(records.size(), 0.7);

  hdc::LevelBasisConfig year_config;
  year_config.dimension = kDim;
  year_config.size = 5;
  year_config.seed = 501;
  auto year = std::make_shared<hdc::LinearScalarEncoder>(
      hdc::make_level_basis(year_config), 0.0, 4.0);
  hdc::CircularBasisConfig day_config;
  day_config.dimension = kDim;
  day_config.size = 64;
  day_config.r = 0.05;
  day_config.seed = 502;
  auto day = std::make_shared<hdc::CircularScalarEncoder>(
      hdc::make_circular_basis(day_config), 366.0);
  hdc::CircularBasisConfig hour_config;
  hour_config.dimension = kDim;
  hour_config.size = 24;
  hour_config.r = 0.05;
  hour_config.seed = 503;
  auto hour = std::make_shared<hdc::CircularScalarEncoder>(
      hdc::make_circular_basis(hour_config), 24.0);
  const hdc::ComposedEncoder encoder(
      {std::move(year), std::move(day), std::move(hour)});
  const auto featurize = [](const hdc::data::BeijingRecord& r) {
    return std::vector<double>{static_cast<double>(r.year_index),
                               static_cast<double>(r.day_of_year - 1),
                               static_cast<double>(r.hour)};
  };

  hdc::LevelBasisConfig label_config;
  label_config.dimension = kDim;
  label_config.size = 64;
  label_config.seed = 504;
  const auto labels = std::make_shared<hdc::LinearScalarEncoder>(
      hdc::make_level_basis(label_config), -25.0, 42.0);
  hdc::HDRegressor model(labels, 505);
  for (const std::size_t i : split.train) {
    model.add_sample(encoder.encode(featurize(records[i])),
                     records[i].temperature);
  }
  model.finalize();

  const std::string path = temp_file("pipeline_composed_beijing.hdcs");
  SnapshotWriter writer;
  writer.add_pipeline(encoder, model);
  writer.write_file(path);

  // In-memory oracle over the FULL test split.
  std::vector<std::vector<double>> rows;
  std::vector<Hypervector> expected_encoded;
  std::vector<double> expected_predictions;
  rows.reserve(split.test.size());
  for (const std::size_t i : split.test) {
    rows.push_back(featurize(records[i]));
    expected_encoded.push_back(encoder.encode(rows.back()));
    expected_predictions.push_back(model.predict(expected_encoded.back()));
  }

  const auto mapped = MappedSnapshot::open(path);
  const Pipeline pipeline = Pipeline::restore(mapped);
  EXPECT_EQ(pipeline.kind(), PipelineKind::Regressor);
  EXPECT_EQ(pipeline.num_features(), 3U);
  ASSERT_NE(pipeline.composed_encoder(), nullptr);
  EXPECT_EQ(pipeline.feature_encoder(), nullptr);
  EXPECT_EQ(pipeline.scalar_encoder(), nullptr);
  // Restored parts borrow the mapping, period/range provenance intact.
  const auto& restored = *pipeline.composed_encoder();
  ASSERT_EQ(restored.num_features(), 3U);
  const auto* restored_year =
      dynamic_cast<const hdc::LinearScalarEncoder*>(&restored.part(0));
  const auto* restored_day =
      dynamic_cast<const hdc::CircularScalarEncoder*>(&restored.part(1));
  const auto* restored_hour =
      dynamic_cast<const hdc::CircularScalarEncoder*>(&restored.part(2));
  ASSERT_NE(restored_year, nullptr);
  ASSERT_NE(restored_day, nullptr);
  ASSERT_NE(restored_hour, nullptr);
  EXPECT_DOUBLE_EQ(restored_year->low(), 0.0);
  EXPECT_DOUBLE_EQ(restored_year->high(), 4.0);
  EXPECT_DOUBLE_EQ(restored_day->period(), 366.0);
  EXPECT_DOUBLE_EQ(restored_hour->period(), 24.0);
  EXPECT_FALSE(restored_day->basis().owns_storage());
  expect_pipeline_matches(pipeline, rows, expected_encoded,
                          expected_predictions);

  // Stream loader and Trust fast path serve the same bits.
  const auto streamed = hdc::io::load_snapshot(path);
  expect_pipeline_matches(Pipeline::restore(streamed), rows, expected_encoded,
                          expected_predictions);
  const auto trusted = MappedSnapshot::open(path, SnapshotIntegrity::Trust);
  expect_pipeline_matches(Pipeline::restore(trusted), rows, expected_encoded,
                          expected_predictions);

  // Thread pool over the full test split via the batch bridges.
  const auto pool = std::make_shared<hdc::runtime::ThreadPool>(4);
  const auto arena = pipeline.batch_encoder(pool).encode(rows);
  const auto batch_predictions =
      pipeline.batch_regressor(pool).predict(arena);
  ASSERT_EQ(batch_predictions.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(arena.view(i) == expected_encoded[i]) << "row " << i;
    EXPECT_EQ(batch_predictions[i], expected_predictions[i]) << "row " << i;
  }
  std::filesystem::remove(path);
}

TEST(PipelineEquivalenceTest, ScalarEncoderPipelineRoundTripsBitExact) {
  // A single-feature pipeline: day-of-year phase -> temperature, with the
  // multiscale encoder itself as the pipeline encoder (exercises the
  // scalar-encoder head and the one-feature encode contract).
  hdc::MultiScaleCircularEncoder::Config encoder_config;
  encoder_config.dimension = kDim;
  encoder_config.scales = {8, 32};
  encoder_config.period = 1.0;
  encoder_config.seed = 301;
  const hdc::MultiScaleCircularEncoder encoder(encoder_config);

  hdc::LevelBasisConfig label_config;
  label_config.dimension = kDim;
  label_config.size = 32;
  label_config.seed = 302;
  const auto labels = std::make_shared<hdc::LinearScalarEncoder>(
      hdc::make_level_basis(label_config), -1.0, 1.0);
  hdc::HDRegressor model(labels, 303);
  for (int k = 0; k < 64; ++k) {
    const double phase = static_cast<double>(k) / 64.0;
    model.add_sample(encoder.encode(phase),
                     2.0 * std::abs(2.0 * phase - 1.0) - 1.0);
  }
  model.finalize();

  const std::string path = temp_file("pipeline_scalar.hdcs");
  SnapshotWriter writer;
  writer.add_pipeline(encoder, model);
  writer.write_file(path);

  const auto mapped = MappedSnapshot::open(path);
  const Pipeline pipeline = Pipeline::restore(mapped);
  EXPECT_EQ(pipeline.num_features(), 1U);
  ASSERT_NE(pipeline.scalar_encoder(), nullptr);
  EXPECT_EQ(pipeline.feature_encoder(), nullptr);
  const auto* restored =
      dynamic_cast<const hdc::MultiScaleCircularEncoder*>(
          pipeline.scalar_encoder());
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->scales(), encoder.scales());
  EXPECT_EQ(restored->seed(), encoder.seed());
  EXPECT_FALSE(restored->owns_storage());
  for (int k = 0; k <= 200; ++k) {
    const double phase = static_cast<double>(k) / 200.0;
    const std::vector<double> row{phase};
    ASSERT_TRUE(pipeline.encode(row) == Hypervector(encoder.encode(phase)))
        << "phase " << phase;
    EXPECT_EQ(pipeline.regress(row), model.predict(encoder.encode(phase)))
        << "phase " << phase;
  }
  EXPECT_THROW((void)pipeline.encode(std::vector<double>{0.1, 0.2}),
               std::invalid_argument);
  EXPECT_THROW((void)pipeline.classify(std::vector<double>{0.1}),
               std::logic_error);
  std::filesystem::remove(path);
}

// The restored objects must expose coherent state: inference-only models,
// borrowed storage, and round-tripped encoder provenance.
TEST(PipelineEquivalenceTest, RestoredPipelineStateIsCoherent) {
  hdc::CircularBasisConfig values_config;
  values_config.dimension = 256;
  values_config.size = 16;
  values_config.seed = 401;
  const auto values = std::make_shared<hdc::CircularScalarEncoder>(
      hdc::make_circular_basis(values_config), 360.0);
  const KeyValueEncoder encoder(3, values, 402);
  hdc::CentroidClassifier model(2, 256, 403);
  hdc::Rng rng(404);
  for (int i = 0; i < 8; ++i) {
    model.add_sample(static_cast<std::size_t>(i) % 2,
                     Hypervector::random(256, rng));
  }
  model.finalize();

  const std::string path = temp_file("pipeline_state.hdcs");
  SnapshotWriter writer;
  writer.add_pipeline(encoder, model);
  writer.write_file(path);
  const auto snapshot = MappedSnapshot::open(path);
  const Pipeline pipeline = Pipeline::restore(snapshot);

  const KeyValueEncoder* restored = pipeline.feature_encoder();
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->num_features(), 3U);
  EXPECT_EQ(restored->seed(), encoder.seed());
  EXPECT_TRUE(restored->tie_breaker() == encoder.tie_breaker());
  EXPECT_FALSE(restored->keys().owns_storage());
  const auto* restored_values = dynamic_cast<const hdc::CircularScalarEncoder*>(
      &restored->values());
  ASSERT_NE(restored_values, nullptr);
  EXPECT_DOUBLE_EQ(restored_values->period(), 360.0);
  EXPECT_FALSE(restored_values->basis().owns_storage());

  // Restored models are inference-only; the batch bridge inherits that.
  EXPECT_FALSE(pipeline.classifier().trainable());
  const auto pool = std::make_shared<hdc::runtime::ThreadPool>(2);
  auto batch = pipeline.batch_classifier(pool);
  hdc::runtime::VectorArena arena(256);
  arena.append(Hypervector::random(256, rng));
  const std::vector<std::size_t> labels{0};
  EXPECT_THROW(batch.fit(arena, labels), std::logic_error);
  EXPECT_THROW((void)pipeline.regressor(), std::logic_error);
  std::filesystem::remove(path);
}

TEST(PipelineEquivalenceTest, TextClassifierPipelineRoundTripsBitExact) {
  // Language-ID shape: character trigrams bundled per phrase, one centroid
  // per pseudo-language.  The snapshot stores config only (dimension, n,
  // seed) for the encoder, so the restored pipeline must rebuild the exact
  // item memory and reproduce training-time encodings bit for bit.
  const std::vector<std::vector<std::string>> phrases = {
      {"lomo viri solenne", "miri velo sonare", "virelo memo lima"},
      {"zuk tak prell", "skarn tzek kalt", "prak zel tikk"},
      {"anda vestri olm", "ulfar esta brind", "orvan dilas pena"},
  };
  hdc::NGramEncoder encoder(kDim, 3, 501);
  hdc::CentroidClassifier model(phrases.size(), kDim, 502);
  for (std::size_t c = 0; c < phrases.size(); ++c) {
    for (const std::string& phrase : phrases[c]) {
      model.add_sample(c, encoder.encode(phrase));
    }
  }
  model.finalize();

  const std::string path = temp_file("pipeline_text_classifier.hdcs");
  SnapshotWriter writer;
  writer.add_pipeline(encoder, model);
  writer.write_file(path);

  std::vector<std::string> rows = {"lomo velo sonare", "tak tzek prak",
                                   "vestri dilas olm", "zz",
                                   "bytes & spaces 42"};
  std::vector<Hypervector> expected_encoded;
  std::vector<std::size_t> expected_predictions;
  for (const std::string& row : rows) {
    expected_encoded.push_back(encoder.encode(row));
    expected_predictions.push_back(model.predict(expected_encoded.back()));
  }

  const auto verify = [&](const Pipeline& pipeline) {
    EXPECT_EQ(pipeline.kind(), PipelineKind::Classifier);
    EXPECT_EQ(pipeline.input(), hdc::io::PipelineInput::Text);
    EXPECT_EQ(pipeline.num_features(), 0U);
    ASSERT_NE(pipeline.ngram_encoder(), nullptr);
    EXPECT_EQ(pipeline.ngram_encoder()->n(), 3U);
    EXPECT_EQ(pipeline.ngram_encoder()->seed(), encoder.seed());
    // Numeric entry points are sealed off on a text pipeline.
    const std::vector<double> numeric_row{1.0};
    EXPECT_THROW((void)pipeline.encode(numeric_row), std::logic_error);
    EXPECT_THROW((void)pipeline.classify(numeric_row), std::logic_error);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ASSERT_TRUE(pipeline.encode_text(rows[i]) == expected_encoded[i])
          << rows[i];
      EXPECT_EQ(pipeline.classify_text(rows[i]), expected_predictions[i])
          << rows[i];
    }
  };
  const auto mapped = MappedSnapshot::open(path);
  const Pipeline pipeline = Pipeline::restore(mapped);
  verify(pipeline);
  const auto streamed = hdc::io::load_snapshot(path);
  verify(Pipeline::restore(streamed));

  // Batch bridge: parallel text encoding and the confidence head must match
  // the sequential oracle bit for bit.
  const auto pool = std::make_shared<hdc::runtime::ThreadPool>(4);
  const auto arena = pipeline.batch_text_encoder(pool).encode(rows);
  const auto batch = pipeline.batch_classifier(pool);
  const auto batch_predictions = batch.predict(arena);
  const auto batch_top2 = batch.predict_top2(arena);
  ASSERT_EQ(batch_predictions.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(arena.view(i) == expected_encoded[i]) << "row " << i;
    EXPECT_EQ(batch_predictions[i], expected_predictions[i]) << "row " << i;
    const hdc::Top2 expected_top2 =
        model.predict_top2(expected_encoded[i]);
    EXPECT_EQ(batch_top2[i].best.index, expected_top2.best.index);
    EXPECT_EQ(hdc::margin_confidence(batch_top2[i]),
              hdc::margin_confidence(expected_top2));
  }
  std::filesystem::remove(path);
}

TEST(PipelineEquivalenceTest, TextRegressorPipelineRoundTripsBitExact) {
  // Sequence-encoder regressor: score raw words against a numeric target
  // (a toy "sentiment strength"), snapshot, and serve the band head.
  hdc::SequenceEncoder encoder(kDim, 601);
  hdc::LevelBasisConfig label_config;
  label_config.dimension = kDim;
  label_config.size = 32;
  label_config.seed = 602;
  const auto labels = std::make_shared<hdc::LinearScalarEncoder>(
      hdc::make_level_basis(label_config), 0.0, 1.0);
  hdc::HDRegressor model(labels, 603);
  const std::vector<std::pair<std::string, double>> samples = {
      {"awful", 0.05}, {"bad", 0.2},  {"meh", 0.45},
      {"fine", 0.6},   {"good", 0.8}, {"superb", 0.95},
  };
  for (const auto& [word, score] : samples) {
    model.add_sample(encoder.encode_word(word), score);
  }
  model.finalize();

  const std::string path = temp_file("pipeline_text_regressor.hdcs");
  SnapshotWriter writer;
  writer.add_pipeline(encoder, model);
  writer.write_file(path);

  const std::vector<std::string> rows = {"awful", "good", "grand", "so-so"};
  const auto snapshot = MappedSnapshot::open(path);
  const Pipeline pipeline = Pipeline::restore(snapshot);
  EXPECT_EQ(pipeline.kind(), PipelineKind::Regressor);
  EXPECT_EQ(pipeline.input(), hdc::io::PipelineInput::Text);
  ASSERT_NE(pipeline.sequence_encoder(), nullptr);
  for (const std::string& row : rows) {
    const Hypervector encoded = encoder.encode_word(row);
    ASSERT_TRUE(pipeline.encode_text(row) == encoded) << row;
    EXPECT_DOUBLE_EQ(pipeline.regress_text(row), model.predict(encoded))
        << row;
    const hdc::Band expected_band = model.predict_band(encoded);
    const hdc::Band band = pipeline.regressor().predict_band(encoded);
    EXPECT_EQ(band.p10, expected_band.p10) << row;
    EXPECT_EQ(band.p50, expected_band.p50) << row;
    EXPECT_EQ(band.p90, expected_band.p90) << row;
    EXPECT_LE(band.p10, band.p50) << row;
    EXPECT_LE(band.p50, band.p90) << row;
  }
  std::filesystem::remove(path);
}

}  // namespace
