#ifndef HDC_TESTS_CLUSTER_TEST_UTIL_HPP
#define HDC_TESTS_CLUSTER_TEST_UTIL_HPP

// Shared fixtures for the hdc::cluster suite: deterministic pipeline
// snapshots in the two shapes the paper's experiments serve (a JIGSAWS-style
// circular-feature classifier and the Beijing composed-encoder regressor),
// row generators, and the single-process oracle every sharded configuration
// must match bit for bit.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "hdc/io/fixture_models.hpp"
#include "hdc/io/io.hpp"

namespace hdc::cluster::testutil {

inline std::string temp_file(const std::string& name) {
  const auto stamp = static_cast<unsigned long long>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  return (std::filesystem::path(::testing::TempDir()) /
          ("cluster_" + std::to_string(stamp) + "_" + name))
      .string();
}

/// JIGSAWS-shape classifier pipeline snapshot (4 circular channels, 3
/// classes) under \p seed; returns the written path.
inline std::string write_jigsaws_snapshot(const std::string& name,
                                          std::uint64_t seed) {
  const std::string path = temp_file(name);
  io::fixtures::FixtureSpec spec;
  spec.seed = seed;
  const io::fixtures::ClassifierPipeline models =
      io::fixtures::make_classifier_pipeline(spec);
  io::SnapshotWriter writer;
  writer.add_pipeline(models.encoder, models.model);
  writer.write_file(path);
  return path;
}

/// Beijing-shape composed-encoder regressor snapshot under \p seed.
inline std::string write_beijing_snapshot(const std::string& name,
                                          std::uint64_t seed) {
  const std::string path = temp_file(name);
  io::fixtures::FixtureSpec spec;
  spec.seed = seed;
  const io::fixtures::BeijingPipeline models =
      io::fixtures::make_beijing_pipeline(spec);
  io::SnapshotWriter writer;
  writer.add_pipeline(*models.encoder, models.model);
  writer.write_file(path);
  return path;
}

/// Deterministic probe rows sweeping all 4 angular channels of the
/// classifier pipeline.
inline std::vector<std::vector<double>> classifier_rows(std::size_t count) {
  std::vector<std::vector<double>> rows;
  rows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<double> row(4);
    for (std::size_t f = 0; f < row.size(); ++f) {
      row[f] = 12.0 * static_cast<double>(i) +
               90.0 * static_cast<double>(f) + 0.25 * static_cast<double>(f);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Deterministic (year index, day-of-year, hour) rows for the Beijing
/// pipeline, covering wrap-around of both periodic channels.
inline std::vector<std::vector<double>> beijing_rows(std::size_t count) {
  std::vector<std::vector<double>> rows;
  rows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    rows.push_back({static_cast<double>(i % 5),
                    static_cast<double>((i * 53) % 366),
                    0.5 * static_cast<double>((i * 7) % 48)});
  }
  return rows;
}

/// Language-ID-shape text classifier snapshot (character trigrams, 3
/// classes) under \p seed.
inline std::string write_text_snapshot(const std::string& name,
                                       std::uint64_t seed) {
  const std::string path = temp_file(name);
  io::fixtures::FixtureSpec spec;
  spec.seed = seed;
  io::fixtures::TextPipeline models = io::fixtures::make_text_pipeline(spec);
  io::SnapshotWriter writer;
  writer.add_pipeline(models.encoder, models.model);
  writer.write_file(path);
  return path;
}

/// Deterministic raw-text probe rows mixing the three fixture vocabularies
/// (plus out-of-vocabulary bytes) so every class and the tie paths get hit.
inline std::vector<std::string> text_rows(std::size_t count) {
  const char* vocab[] = {"lo vo miri",      "zu ka pelo tir",
                         "anda vestri olm", "tir tir",
                         "1,2,3 not csv",   "zz"};
  std::vector<std::string> rows;
  rows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    rows.push_back(std::string(vocab[i % 6]) + " #" + std::to_string(i % 4));
  }
  return rows;
}

/// The single-process prediction stream for a text snapshot over \p rows.
inline std::vector<double> text_oracle(const std::string& snapshot_path,
                                       const std::vector<std::string>& rows) {
  const auto snapshot = io::MappedSnapshot::open(snapshot_path);
  const io::Pipeline pipeline = io::Pipeline::restore(snapshot);
  std::vector<double> out;
  out.reserve(rows.size());
  for (const std::string& row : rows) {
    out.push_back(static_cast<double>(pipeline.classify_text(row)));
  }
  return out;
}

/// The single-process prediction stream for \p snapshot_path over \p rows —
/// classifier labels cast to double exactly as ShardedServer reports them.
inline std::vector<double> oracle(
    const std::string& snapshot_path,
    const std::vector<std::vector<double>>& rows) {
  const auto snapshot = io::MappedSnapshot::open(snapshot_path);
  const io::Pipeline pipeline = io::Pipeline::restore(snapshot);
  std::vector<double> out;
  out.reserve(rows.size());
  for (const auto& row : rows) {
    if (pipeline.kind() == io::PipelineKind::Classifier) {
      out.push_back(static_cast<double>(pipeline.classify(row)));
    } else {
      out.push_back(pipeline.regress(row));
    }
  }
  return out;
}

}  // namespace hdc::cluster::testutil

#endif  // HDC_TESTS_CLUSTER_TEST_UTIL_HPP
