// Reload-path validation: `load_pipeline` must hand back a fully vetted
// mapping+pipeline bundle or throw with the file untouched, and
// `ensure_swappable` must admit exactly the replacements that preserve the
// wire contract of already-connected clients (same prediction kind, same
// feature arity — retrained weights and even a different dimension are
// fine).  These are the gates the hdc::serve hot-swap protocol stands on.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "hdc/io/fixture_models.hpp"
#include "hdc/io/io.hpp"

namespace {

using hdc::io::LoadedPipeline;
using hdc::io::MappedSnapshot;
using hdc::io::Pipeline;
using hdc::io::SnapshotError;
using hdc::io::SnapshotIntegrity;
using hdc::io::SnapshotWriter;
namespace fixtures = hdc::io::fixtures;

std::string temp_file(const std::string& name) {
  const auto stamp = static_cast<unsigned long long>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  return (std::filesystem::path(testing::TempDir()) /
          ("reload_" + std::to_string(stamp) + "_" + name))
      .string();
}

std::string write_beijing(const std::string& name,
                          const fixtures::FixtureSpec& spec = {}) {
  const std::string path = temp_file(name);
  const fixtures::BeijingPipeline models =
      fixtures::make_beijing_pipeline(spec);
  SnapshotWriter writer;
  writer.add_pipeline(*models.encoder, models.model);
  writer.write_file(path);
  return path;
}

TEST(ReloadTest, LoadPipelineMatchesManualRestore) {
  const std::string path = write_beijing("roundtrip.hdcs");
  const LoadedPipeline loaded = hdc::io::load_pipeline(path);

  const auto oracle_snapshot = MappedSnapshot::open(path);
  const Pipeline oracle = Pipeline::restore(oracle_snapshot);
  EXPECT_EQ(loaded.pipeline.kind(), oracle.kind());
  EXPECT_EQ(loaded.pipeline.num_features(), oracle.num_features());
  const std::vector<double> row{2.0, 180.0, 12.5};
  EXPECT_EQ(loaded.pipeline.regress(row), oracle.regress(row));
  std::filesystem::remove(path);
}

TEST(ReloadTest, LoadedPipelineSurvivesMove) {
  // The serve hot-swap moves the bundle into a shared ServingState; the
  // pipeline's borrowed spans must stay valid across that move.
  const std::string path = write_beijing("move.hdcs");
  LoadedPipeline first = hdc::io::load_pipeline(path);
  const std::vector<double> row{4.0, 300.0, 23.0};
  const double expected = first.pipeline.regress(row);
  const LoadedPipeline second = std::move(first);
  EXPECT_EQ(second.pipeline.regress(row), expected);
  std::filesystem::remove(path);
}

TEST(ReloadTest, RejectsCorruptPayloadUnderChecksumIntegrity) {
  // XOR the whole second half: with page-aligned sections a single flipped
  // byte could land in checksum-free padding, but the tail section's real
  // payload is always in here.
  const std::string path = write_beijing("corrupt.hdcs");
  const auto size =
      static_cast<std::streamoff>(std::filesystem::file_size(path));
  {
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    std::string tail(static_cast<std::size_t>(size - size / 2), '\0');
    file.seekg(size / 2);
    file.read(tail.data(), static_cast<std::streamoff>(tail.size()));
    for (char& byte : tail) {
      byte = static_cast<char>(byte ^ 0x5A);
    }
    file.clear();
    file.seekp(size / 2);
    file.write(tail.data(), static_cast<std::streamoff>(tail.size()));
  }
  EXPECT_THROW((void)hdc::io::load_pipeline(path), SnapshotError);
  std::filesystem::remove(path);
}

TEST(ReloadTest, RejectsTruncatedFile) {
  const std::string path = write_beijing("truncated.hdcs");
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) / 2);
  EXPECT_THROW((void)hdc::io::load_pipeline(path), SnapshotError);
  std::filesystem::remove(path);
}

TEST(ReloadTest, RejectsMissingFileAndPipelinelessSnapshot) {
  EXPECT_THROW(
      (void)hdc::io::load_pipeline(temp_file("does_not_exist.hdcs")),
      SnapshotError);

  // A valid snapshot that holds sections but no pipeline head is not
  // servable and must be rejected by the same single entry point.
  const std::string path = temp_file("headless.hdcs");
  // add_basis keeps a span into the basis until write_file, so the basis
  // must outlive the writer's pending sections.
  const hdc::Basis basis = fixtures::make_basis(hdc::BasisKind::Circular);
  SnapshotWriter writer;
  writer.add_basis(basis);
  writer.write_file(path);
  EXPECT_THROW((void)hdc::io::load_pipeline(path), SnapshotError);
  std::filesystem::remove(path);
}

TEST(ReloadTest, EnsureSwappableAcceptsRetrainedSameShape) {
  // Different seed — completely different weights and predictions, same
  // kind and arity: the canonical redeploy.
  const std::string a = write_beijing("shape_a.hdcs");
  fixtures::FixtureSpec retrained;
  retrained.seed = 7777;
  const std::string b = write_beijing("shape_b.hdcs", retrained);
  const LoadedPipeline incumbent = hdc::io::load_pipeline(a);
  const LoadedPipeline fresh = hdc::io::load_pipeline(b);
  EXPECT_NO_THROW(
      hdc::io::ensure_swappable(fresh.pipeline, incumbent.pipeline));

  // A different dimension is deliberately also fine (invisible on the wire).
  fixtures::FixtureSpec wider;
  wider.dimension = 256;
  const std::string c = write_beijing("shape_c.hdcs", wider);
  const LoadedPipeline rescaled = hdc::io::load_pipeline(c);
  EXPECT_NO_THROW(
      hdc::io::ensure_swappable(rescaled.pipeline, incumbent.pipeline));
  for (const auto& path : {a, b, c}) {
    std::filesystem::remove(path);
  }
}

TEST(ReloadTest, EnsureSwappableRejectsKindAndArityMismatch) {
  const std::string regressor_path = write_beijing("kind_regressor.hdcs");
  const LoadedPipeline regressor = hdc::io::load_pipeline(regressor_path);

  const std::string classifier_path = temp_file("kind_classifier.hdcs");
  const fixtures::ClassifierPipeline classifier_models =
      fixtures::make_classifier_pipeline();
  {
    SnapshotWriter writer;
    writer.add_pipeline(classifier_models.encoder, classifier_models.model);
    writer.write_file(classifier_path);
  }
  const LoadedPipeline classifier = hdc::io::load_pipeline(classifier_path);

  // Kind mismatch, both directions.
  EXPECT_THROW(
      hdc::io::ensure_swappable(classifier.pipeline, regressor.pipeline),
      SnapshotError);
  EXPECT_THROW(
      hdc::io::ensure_swappable(regressor.pipeline, classifier.pipeline),
      SnapshotError);

  // Same kind (regressor) but one feature instead of three.
  const std::string narrow_path = temp_file("arity_regressor.hdcs");
  const fixtures::RegressorPipeline narrow_models =
      fixtures::make_regressor_pipeline();
  {
    SnapshotWriter writer;
    writer.add_pipeline(*narrow_models.encoder, narrow_models.model);
    writer.write_file(narrow_path);
  }
  const LoadedPipeline narrow = hdc::io::load_pipeline(narrow_path);
  ASSERT_NE(narrow.pipeline.num_features(),
            regressor.pipeline.num_features());
  try {
    hdc::io::ensure_swappable(narrow.pipeline, regressor.pipeline);
    FAIL() << "arity mismatch must be rejected";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("features/row"), std::string::npos);
  }
  for (const auto& path : {regressor_path, classifier_path, narrow_path}) {
    std::filesystem::remove(path);
  }
}

}  // namespace
