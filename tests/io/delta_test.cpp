// HDCS v4 delta snapshots: the byte-exactness contract
// (apply_delta(base, diff_snapshots(base, adapted)) == adapted, and both
// equal to independently writing the adapted model), the diff_rows
// changed-row semantics, every validation gate on the apply path, the
// serving loader, and the corruption fuzzer extended over DeltaPatch
// sections — a corrupt delta must be rejected or provably harmless, never
// a silently altered model.

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hdc/core/adaptive.hpp"
#include "hdc/io/fixture_models.hpp"
#include "hdc/io/io.hpp"

namespace {

using hdc::AdaptiveClassifier;
using hdc::CentroidClassifier;
using hdc::Hypervector;
using hdc::Rng;
using hdc::io::DeltaPatch;
using hdc::io::MappedSnapshot;
using hdc::io::SnapshotError;
using hdc::io::SnapshotWriter;
namespace fixtures = hdc::io::fixtures;

std::string temp_file(const std::string& name) {
  const auto stamp = static_cast<unsigned long long>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  return (std::filesystem::path(testing::TempDir()) /
          ("delta_" + std::to_string(stamp) + "_" + name))
      .string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

std::span<const std::byte> as_bytes(const std::string& bytes) {
  return {reinterpret_cast<const std::byte*>(bytes.data()), bytes.size()};
}

/// Base classifier-pipeline snapshot + an adapted twin produced by a
/// deterministic feedback pass — the canonical delta scenario.
struct AdaptScenario {
  std::string base_path;
  fixtures::ClassifierPipeline models;
  std::map<std::size_t, std::vector<std::uint64_t>> changed;
  CentroidClassifier adapted;  // the published adapted model

  explicit AdaptScenario(const std::string& tag)
      : models(fixtures::make_classifier_pipeline()),
        adapted(CentroidClassifier(1, 1, 0)) {
    base_path = temp_file(tag + "_base.hdcs");
    SnapshotWriter writer;
    writer.add_pipeline(models.encoder, models.model);
    writer.write_file(base_path);

    const auto snapshot = MappedSnapshot::open(base_path);
    const std::size_t section = hdc::io::find_model_section(snapshot);
    auto borrowed = std::make_shared<const CentroidClassifier>(
        snapshot.classifier(section));
    AdaptiveClassifier overlay(borrowed, hdc::kDefaultAdaptSeed);
    Rng rng(404);
    std::size_t fed = 0;
    while (overlay.touched_classes() == 0 || fed < 24) {
      (void)overlay.adapt(fed % overlay.num_classes(),
                          Hypervector::random(overlay.dimension(), rng));
      ++fed;
    }
    changed = overlay.changed_rows();
    adapted = *overlay.model();
  }
};

TEST(DeltaTest, RoundTripIsByteExact) {
  const AdaptScenario scenario("roundtrip");
  const std::string base_bytes = read_file(scenario.base_path);

  // Independently written full snapshot of the adapted model: the oracle
  // apply_delta must reproduce byte for byte.
  const std::string adapted_path = temp_file("roundtrip_adapted.hdcs");
  {
    SnapshotWriter writer;
    writer.add_pipeline(scenario.models.encoder, scenario.adapted);
    writer.write_file(adapted_path);
  }
  const std::string adapted_bytes = read_file(adapted_path);
  ASSERT_NE(base_bytes, adapted_bytes);

  const auto base = MappedSnapshot::open(scenario.base_path);
  const std::size_t section = hdc::io::find_model_section(base);
  const DeltaPatch patch = hdc::io::make_delta(
      base, hdc::io::snapshot_file_hash(scenario.base_path), section,
      scenario.changed);
  EXPECT_EQ(patch.changed_rows(), scenario.changed.size());
  EXPECT_EQ(patch.base_rows, scenario.models.model.num_classes());

  // apply(base, make_delta(changed_rows)) == the full adapted snapshot.
  const std::vector<std::byte> applied =
      hdc::io::apply_delta(as_bytes(base_bytes), patch);
  ASSERT_EQ(applied.size(), adapted_bytes.size());
  EXPECT_EQ(std::memcmp(applied.data(), adapted_bytes.data(), applied.size()),
            0);

  // diff_snapshots recovers the identical patch from the two full files.
  const DeltaPatch recovered =
      hdc::io::diff_snapshots(scenario.base_path, adapted_path);
  EXPECT_EQ(recovered.target_type, patch.target_type);
  EXPECT_EQ(recovered.base_section, patch.base_section);
  EXPECT_EQ(recovered.base_hash, patch.base_hash);
  EXPECT_EQ(recovered.base_rows, patch.base_rows);
  EXPECT_EQ(recovered.dimension, patch.dimension);
  EXPECT_EQ(recovered.words, patch.words);

  // Delta file round trip: write -> read preserves every field, and the
  // file identifies as a delta while full snapshots do not.
  const std::string delta_path = temp_file("roundtrip.delta.hdcs");
  hdc::io::write_delta_file(patch, delta_path);
  EXPECT_TRUE(hdc::io::snapshot_is_delta(delta_path));
  EXPECT_FALSE(hdc::io::snapshot_is_delta(scenario.base_path));
  const DeltaPatch reread = hdc::io::read_delta_file(delta_path);
  EXPECT_EQ(reread.base_hash, patch.base_hash);
  EXPECT_EQ(reread.words, patch.words);

  // File-level apply writes the same adapted bytes.
  const std::string patched_path = temp_file("roundtrip_patched.hdcs");
  hdc::io::apply_delta_file(scenario.base_path, delta_path, patched_path);
  EXPECT_EQ(read_file(patched_path), adapted_bytes);

  for (const auto& path :
       {scenario.base_path, adapted_path, delta_path, patched_path}) {
    std::filesystem::remove(path);
  }
}

TEST(DeltaTest, DiffRowsKeepsChangesAndDropsNoOps) {
  const AdaptScenario scenario("diffrows");
  const auto base = MappedSnapshot::open(scenario.base_path);
  const std::size_t section = hdc::io::find_model_section(base);

  // current == base everywhere: nothing to ship.
  const auto identity = hdc::io::diff_rows(
      base, section, [&](std::size_t i) {
        return scenario.models.model.class_vector(i).words();
      });
  EXPECT_TRUE(identity.empty());

  // current == adapted model: exactly the overlay's touched rows (every
  // touched row genuinely differs in this scenario).
  const auto diff = hdc::io::diff_rows(
      base, section, [&](std::size_t i) {
        return scenario.adapted.class_vector(i).words();
      });
  EXPECT_EQ(diff, scenario.changed);

  // A wrong-size row is a contract violation, not a silent truncation.
  const std::vector<std::uint64_t> short_row(1, 0);
  EXPECT_THROW(
      (void)hdc::io::diff_rows(
          base, section,
          [&](std::size_t) {
            return std::span<const std::uint64_t>(short_row);
          }),
      SnapshotError);
  std::filesystem::remove(scenario.base_path);
}

TEST(DeltaTest, ApplyValidatesBaseIdentityAndPatchShape) {
  const AdaptScenario scenario("validate");
  const std::string base_bytes = read_file(scenario.base_path);
  const auto base = MappedSnapshot::open(scenario.base_path);
  const std::size_t section = hdc::io::find_model_section(base);
  const std::uint64_t hash =
      hdc::io::snapshot_file_hash(scenario.base_path);
  const DeltaPatch patch =
      hdc::io::make_delta(base, hash, section, scenario.changed);

  // Wrong base: a patch must refuse any file but the one it was made from.
  DeltaPatch wrong_base = patch;
  wrong_base.base_hash ^= 1;
  try {
    (void)hdc::io::apply_delta(as_bytes(base_bytes), wrong_base);
    FAIL() << "hash mismatch accepted";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("different base"),
              std::string::npos)
        << error.what();
  }

  // Out-of-range row index / non-increasing indices / tail garbage.
  DeltaPatch bad_index = patch;
  bad_index.words[0] = patch.base_rows;  // first index out of range
  EXPECT_THROW((void)hdc::io::apply_delta(as_bytes(base_bytes), bad_index),
               SnapshotError);
  if (patch.changed_rows() >= 2) {
    DeltaPatch unsorted = patch;
    std::swap(unsorted.words[0], unsorted.words[1]);
    EXPECT_THROW((void)hdc::io::apply_delta(as_bytes(base_bytes), unsorted),
                 SnapshotError);
  }
  DeltaPatch tail_garbage = patch;
  // 96-bit rows leave 32 dead tail bits per row; set one.
  tail_garbage.words.back() |= 0xFFFFFFFF00000000ULL;
  EXPECT_THROW(
      (void)hdc::io::apply_delta(as_bytes(base_bytes), tail_garbage),
      SnapshotError);

  // Empty patches cannot be built or written.
  EXPECT_THROW((void)hdc::io::make_delta(base, hash, section, {}),
               SnapshotError);
  DeltaPatch empty = patch;
  empty.words.clear();
  empty.dimension = 0;
  EXPECT_THROW(hdc::io::write_delta_file(empty, temp_file("empty.hdcs")),
               SnapshotError);
  std::filesystem::remove(scenario.base_path);
}

TEST(DeltaTest, LoadPipelineOrDeltaServesTheAdaptedModel) {
  const AdaptScenario scenario("load");
  const auto base = MappedSnapshot::open(scenario.base_path);
  const std::size_t section = hdc::io::find_model_section(base);
  const DeltaPatch patch = hdc::io::make_delta(
      base, hdc::io::snapshot_file_hash(scenario.base_path), section,
      scenario.changed);
  const std::string delta_path = temp_file("load.delta.hdcs");
  hdc::io::write_delta_file(patch, delta_path);

  // A full snapshot loads exactly as load_pipeline.
  const auto full = hdc::io::load_pipeline_or_delta(scenario.base_path, "");
  // A delta loads the adapted model against the tracked base.
  const auto patched =
      hdc::io::load_pipeline_or_delta(delta_path, scenario.base_path);

  for (std::size_t i = 0; i < 40; ++i) {
    std::vector<double> row(4);
    for (std::size_t f = 0; f < row.size(); ++f) {
      row[f] = 17.0 * static_cast<double>(i) + 45.0 * static_cast<double>(f);
    }
    const auto encoded = scenario.models.encoder.encode(row);
    EXPECT_EQ(full.pipeline.classify(row),
              scenario.models.model.predict(encoded))
        << "row " << i;
    EXPECT_EQ(patched.pipeline.classify(row), scenario.adapted.predict(encoded))
        << "row " << i;
  }

  // A delta without a tracked base is a descriptive error.
  try {
    (void)hdc::io::load_pipeline_or_delta(delta_path, "");
    FAIL() << "delta without base accepted";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("base"), std::string::npos)
        << error.what();
  }
  std::filesystem::remove(scenario.base_path);
  std::filesystem::remove(delta_path);
}

TEST(DeltaTest, EveryDeltaTruncationThrows) {
  const AdaptScenario scenario("trunc");
  const auto base = MappedSnapshot::open(scenario.base_path);
  const std::size_t section = hdc::io::find_model_section(base);
  const DeltaPatch patch = hdc::io::make_delta(
      base, hdc::io::snapshot_file_hash(scenario.base_path), section,
      scenario.changed);
  const std::string delta_path = temp_file("trunc.delta.hdcs");
  hdc::io::write_delta_file(patch, delta_path);
  const std::string bytes = read_file(delta_path);

  const std::string probe = temp_file("trunc_probe.hdcs");
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    std::ofstream(probe, std::ios::binary | std::ios::trunc)
        << bytes.substr(0, length);
    EXPECT_THROW((void)hdc::io::read_delta_file(probe), SnapshotError)
        << "prefix length " << length;
  }
  std::filesystem::remove(scenario.base_path);
  std::filesystem::remove(delta_path);
  std::filesystem::remove(probe);
}

TEST(DeltaTest, EveryDeltaBitFlipIsRejectedOrHarmless) {
  // The corruption contract extended to DeltaPatch sections: a flipped
  // delta file either fails to read/apply, or decodes to the identical
  // patch (padding bytes) — the applied result must never silently differ.
  const AdaptScenario scenario("fuzz");
  const std::string base_bytes = read_file(scenario.base_path);
  const auto base = MappedSnapshot::open(scenario.base_path);
  const std::size_t section = hdc::io::find_model_section(base);
  const DeltaPatch patch = hdc::io::make_delta(
      base, hdc::io::snapshot_file_hash(scenario.base_path), section,
      scenario.changed);
  const std::string delta_path = temp_file("fuzz.delta.hdcs");
  hdc::io::write_delta_file(patch, delta_path);
  const std::string bytes = read_file(delta_path);
  const std::vector<std::byte> expected =
      hdc::io::apply_delta(as_bytes(base_bytes), patch);

  const std::string probe = temp_file("fuzz_probe.hdcs");
  std::size_t rejected = 0;
  std::size_t harmless = 0;
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = bytes;
      corrupted[pos] = static_cast<char>(
          static_cast<unsigned char>(corrupted[pos]) ^ (1U << bit));
      std::ofstream(probe, std::ios::binary | std::ios::trunc) << corrupted;
      try {
        const DeltaPatch decoded = hdc::io::read_delta_file(probe);
        const auto applied =
            hdc::io::apply_delta(as_bytes(base_bytes), decoded);
        ASSERT_EQ(applied, expected)
            << "byte " << pos << " bit " << bit
            << ": corrupted delta applied with altered content";
        ++harmless;
      } catch (const SnapshotError&) {
        ++rejected;  // never UB, never a silently different model
      }
    }
  }
  // Unlike the multi-section fuzz fixtures (alignment 64), a delta file is
  // one tiny section in an alignment-padded snapshot, so *most* of its
  // bytes are padding no checksum covers — but every header, table and
  // payload byte must actually reject.
  const std::size_t covered_bytes =
      64 + hdc::io::snapshot_entry_bytes + patch.words.size() * 8;
  EXPECT_GT(rejected, covered_bytes * 8U * 9U / 10U);
  EXPECT_GT(harmless, 0U);
  std::filesystem::remove(scenario.base_path);
  std::filesystem::remove(delta_path);
  std::filesystem::remove(probe);
}

}  // namespace
