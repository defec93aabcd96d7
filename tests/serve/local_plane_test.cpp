// LocalPlane answers each batch in one pass: every chunk encodes its rows
// and answers each at once on its own scratch.  Across the served shapes
// (the Beijing regressor, the JIGSAWS-shape classifier and the text
// classifier), every head the kind allows, batch sizes 1, 7 and 64, pools
// of 1, 2, 3 and 7 threads, and both sides of `!use`, each batch must equal
// the per-row Pipeline oracles.  The band oracle rebuilds the label-grid
// profile one basis row at a time, independent of the plane's sweep.

#include "hdc/serve/local_plane.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "hdc/core/ops.hpp"
#include "hdc/io/fixture_models.hpp"
#include "hdc/io/io.hpp"

namespace {

using hdc::io::Pipeline;
using hdc::io::PipelineKind;
using hdc::io::SnapshotWriter;
using hdc::serve::AdaptiveState;
using hdc::serve::HeadMode;
using hdc::serve::LocalPlane;
using hdc::serve::Predictions;
using hdc::serve::RowBatch;
using hdc::serve::ServingState;
using hdc::serve::ServingStatePtr;
namespace fixtures = hdc::io::fixtures;

std::string temp_file(const std::string& name) {
  const auto stamp = static_cast<unsigned long long>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  return (std::filesystem::path(testing::TempDir()) /
          ("plane_" + std::to_string(stamp) + "_" + name))
      .string();
}

constexpr std::size_t kRows = 64;

/// One served shape: its snapshot, 64 probe rows (numeric or text), a
/// feedback target per row that insists on a wrong answer, and the head
/// its kind allows.
struct Shape {
  std::string path;
  std::vector<std::vector<double>> rows;
  std::vector<std::string> text_rows;
  std::vector<double> targets;
  HeadMode head = HeadMode::None;

  [[nodiscard]] RowBatch batch(std::size_t begin, std::size_t end) const {
    if (!text_rows.empty()) {
      return {{}, std::span(text_rows).subspan(begin, end - begin)};
    }
    return {std::span(rows).subspan(begin, end - begin), {}};
  }
};

template <typename Encoder, typename Model>
std::string write_pipeline(const std::string& name, const Encoder& encoder,
                           const Model& model) {
  const std::string path = temp_file(name);
  SnapshotWriter writer;
  writer.add_pipeline(encoder, model);
  writer.write_file(path);
  return path;
}

Shape beijing() {
  const fixtures::BeijingPipeline models = fixtures::make_beijing_pipeline();
  Shape shape;
  shape.path = write_pipeline("beijing.hdcs", *models.encoder, models.model);
  shape.head = HeadMode::Band;
  for (std::size_t i = 0; i < kRows; ++i) {
    shape.rows.push_back({static_cast<double>(i % 5),
                          static_cast<double>((i * 53) % 366),
                          0.5 * static_cast<double>((i * 7) % 48)});
    shape.targets.push_back(
        models.model.predict(models.encoder->encode(shape.rows.back())) <
                10.0
            ? 40.0
            : -20.0);
  }
  return shape;
}

Shape jigsaws() {
  const fixtures::ClassifierPipeline models =
      fixtures::make_classifier_pipeline();
  Shape shape;
  shape.path = write_pipeline("jigsaws.hdcs", models.encoder, models.model);
  shape.head = HeadMode::Confidence;
  for (std::size_t i = 0; i < kRows; ++i) {
    std::vector<double> row(4);
    for (std::size_t f = 0; f < row.size(); ++f) {
      row[f] = 12.0 * static_cast<double>(i) + 90.25 * static_cast<double>(f);
    }
    shape.targets.push_back(static_cast<double>(
        (models.model.predict(models.encoder.encode(row)) + 1) % 3));
    shape.rows.push_back(std::move(row));
  }
  return shape;
}

Shape text() {
  fixtures::TextPipeline models = fixtures::make_text_pipeline();
  Shape shape;
  shape.path = write_pipeline("text.hdcs", models.encoder, models.model);
  shape.head = HeadMode::Confidence;
  const char* vocab[] = {"lo vo miri", "zu ka pelo tir", "anda vestri olm",
                         "tir tir", "zz", "1,2,3 not csv"};
  for (std::size_t i = 0; i < kRows; ++i) {
    shape.text_rows.push_back(std::string(vocab[i % 6]) + " #" +
                              std::to_string(i % 7));
    shape.targets.push_back(static_cast<double>(
        (models.model.predict(models.encoder.encode(shape.text_rows.back())) +
         1) %
        3));
  }
  return shape;
}

ServingStatePtr serve(const std::string& path) {
  return std::make_shared<const ServingState>(hdc::io::load_pipeline(path), 1,
                                              path);
}

/// The band of \p encoded from its label-grid profile, one basis row at a
/// time.
hdc::Band profile_band(const hdc::HDRegressor& model,
                       const hdc::Hypervector& encoded) {
  const hdc::Hypervector unbound = model.model() ^ encoded;
  const hdc::Basis& basis = model.labels().basis();
  std::vector<std::size_t> profile;
  for (std::size_t j = 0; j < basis.size(); ++j) {
    profile.push_back(hdc::hamming_distance(unbound, basis[j]));
  }
  return hdc::band_from_distances(profile, model.labels(), model.dimension());
}

/// Every field of the per-row answers of \p pipeline over the shape's rows
/// with \p head, flattened so whole streams compare with ==.
std::vector<double> oracle(const Pipeline& pipeline, const Shape& shape,
                           HeadMode head) {
  std::vector<double> values;
  std::vector<double> heads;
  const bool text = !shape.text_rows.empty();
  for (std::size_t i = 0; i < kRows; ++i) {
    const hdc::Hypervector encoded =
        text ? pipeline.encode_text(shape.text_rows[i])
             : pipeline.encode(shape.rows[i]);
    if (pipeline.kind() == PipelineKind::Classifier) {
      values.push_back(static_cast<double>(
          text ? pipeline.classify_text(shape.text_rows[i])
               : pipeline.classify(shape.rows[i])));
      if (head == HeadMode::Confidence) {
        heads.push_back(hdc::margin_confidence(
            pipeline.classifier().predict_top2(encoded)));
      }
    } else {
      values.push_back(text ? pipeline.regress_text(shape.text_rows[i])
                            : pipeline.regress(shape.rows[i]));
      if (head == HeadMode::Band) {
        const hdc::Band band = profile_band(pipeline.regressor(), encoded);
        heads.insert(heads.end(), {band.p10, band.p50, band.p90});
      }
    }
  }
  values.insert(values.end(), heads.begin(), heads.end());
  return values;
}

/// The plane's answers over the shape's rows in batches of \p size, in the
/// layout of oracle().
std::vector<double> served(LocalPlane& plane, const Shape& shape,
                           HeadMode head, bool adapted, std::size_t size) {
  std::vector<double> values;
  std::vector<double> heads;
  Predictions out;
  for (std::size_t begin = 0; begin < kRows; begin += size) {
    const std::size_t end = std::min(begin + size, kRows);
    plane.predict(shape.batch(begin, end), head, adapted, out);
    EXPECT_EQ(out.values.size(), end - begin);
    values.insert(values.end(), out.values.begin(), out.values.end());
    heads.insert(heads.end(), out.confidences.begin(), out.confidences.end());
    for (const hdc::Band& band : out.bands) {
      heads.insert(heads.end(), {band.p10, band.p50, band.p90});
    }
  }
  values.insert(values.end(), heads.begin(), heads.end());
  return values;
}

void expect_matrix(const Shape& shape) {
  const ServingStatePtr base = serve(shape.path);
  // The adapted oracle: the same feedback on a private adaptation of the
  // base, which publishes bit-identically to the plane's (same seed).
  AdaptiveState mirror(base);
  for (std::size_t i = 0; i < kRows; ++i) {
    const RowBatch one = shape.batch(i, i + 1);
    (void)(one.text_rows.empty()
               ? mirror.adapt(one.rows.front(), shape.targets[i])
               : mirror.adapt_text(one.text_rows.front(), shape.targets[i]));
  }
  const Pipeline& adapted = mirror.published()->pipeline();
  ASSERT_NE(oracle(adapted, shape, HeadMode::None),
            oracle(base->pipeline(), shape, HeadMode::None))
      << "the feedback left the model unchanged";

  for (const std::size_t threads : {1, 2, 3, 7}) {
    LocalPlane plane(serve(shape.path), threads);
    for (std::size_t i = 0; i < kRows; ++i) {
      (void)plane.adapt(shape.targets[i], shape.batch(i, i + 1));
    }
    for (const HeadMode head : {HeadMode::None, shape.head}) {
      const std::vector<double> want_base =
          oracle(base->pipeline(), shape, head);
      const std::vector<double> want_adapted = oracle(adapted, shape, head);
      for (const std::size_t size : {1, 7, 64}) {
        SCOPED_TRACE("threads " + std::to_string(threads) + ", head " +
                     std::to_string(static_cast<int>(head)) + ", batch " +
                     std::to_string(size));
        EXPECT_EQ(served(plane, shape, head, false, size), want_base);
        EXPECT_EQ(served(plane, shape, head, true, size), want_adapted);
      }
    }
  }
  std::filesystem::remove(shape.path);
}

TEST(LocalPlaneTest, BeijingRegressorMatchesPerRowOracles) {
  expect_matrix(beijing());
}

TEST(LocalPlaneTest, JigsawsClassifierMatchesPerRowOracles) {
  expect_matrix(jigsaws());
}

TEST(LocalPlaneTest, TextClassifierMatchesPerRowOracles) {
  expect_matrix(text());
}

TEST(LocalPlaneTest, HeadOfTheOtherKindIsIgnored) {
  // Band on a classifier and Confidence on a regressor answer values only.
  const Shape shape = jigsaws();
  LocalPlane plane(serve(shape.path), 2);
  Predictions out;
  plane.predict(shape.batch(0, kRows), HeadMode::Band, false, out);
  EXPECT_EQ(out.values.size(), kRows);
  EXPECT_TRUE(out.bands.empty());
  EXPECT_TRUE(out.confidences.empty());

  const Shape regressor = beijing();
  LocalPlane regressor_plane(serve(regressor.path), 2);
  regressor_plane.predict(regressor.batch(0, kRows), HeadMode::Confidence,
                          false, out);
  EXPECT_EQ(out.values.size(), kRows);
  EXPECT_TRUE(out.bands.empty());
  EXPECT_TRUE(out.confidences.empty());
  std::filesystem::remove(shape.path);
  std::filesystem::remove(regressor.path);
}

}  // namespace
