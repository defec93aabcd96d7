// Corrupted-snapshot fuzzing, extending the PR-2 corrupted-stream harness
// to the HDCS format.  Every header/section-table truncation and every
// byte-level bit flip of a small multi-section snapshot is replayed through
// the readers, which must either raise SnapshotError or — when the flip
// lands in inter-section padding, the only bytes no checksum covers —
// yield models bit-identical to the originals.  No corruption may ever
// construct a partial or altered model.  SnapshotRuleTest then breaks one
// header or table field at a time in a basis-only file, re-sealing the
// table checksum, and asserts each structural rule by its message.  The
// suite runs under the ASan/UBSan CI job, so "survives" also means no
// out-of-bounds read or undefined behaviour on any path.

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "hdc/core/basis_circular.hpp"
#include "hdc/core/basis_level.hpp"
#include "hdc/core/basis_random.hpp"
#include "hdc/core/feature_encoder.hpp"
#include "hdc/core/multiscale_encoder.hpp"
#include "hdc/core/scalar_encoder.hpp"
#include "hdc/core/sequence_encoder.hpp"
#include "hdc/io/io.hpp"

namespace {

using hdc::Basis;
using hdc::Hypervector;
using hdc::KeyValueEncoder;
using hdc::Rng;
using hdc::io::MappedSnapshot;
using hdc::io::Pipeline;
using hdc::io::PipelineKind;
using hdc::io::SnapshotError;
using hdc::io::SnapshotWriter;

std::span<const std::byte> as_bytes(const std::string& bytes) {
  return {reinterpret_cast<const std::byte*>(bytes.data()), bytes.size()};
}

/// A small snapshot covering every section type: basis (d = 70 exercises a
/// partial tail word), classifier, and regressor (label basis + model).
/// Alignment 64 keeps the file a few hundred bytes so the quadratic fuzz
/// loops stay fast.
std::string snapshot_bytes() {
  hdc::RandomBasisConfig basis_config;
  basis_config.dimension = 70;
  basis_config.size = 3;
  basis_config.seed = 97;
  const Basis basis = hdc::make_random_basis(basis_config);

  Rng rng(6);
  std::vector<Hypervector> class_vectors;
  for (int c = 0; c < 2; ++c) {
    class_vectors.push_back(Hypervector::random(70, rng));
  }
  const auto classifier = hdc::CentroidClassifier::from_packed_class_words(
      class_vectors.size(), 70,
      hdc::WordStorage(hdc::pack_words(class_vectors)));

  hdc::LevelBasisConfig label_config;
  label_config.dimension = 70;
  label_config.size = 4;
  label_config.seed = 23;
  const auto labels = std::make_shared<hdc::LinearScalarEncoder>(
      hdc::make_level_basis(label_config), 0.0, 1.0);
  hdc::HDRegressor regressor(labels, 5);
  for (int k = 0; k < 4; ++k) {
    const double x = static_cast<double>(k) / 3.0;
    regressor.add_sample(labels->encode(x), x);
  }
  regressor.finalize();

  SnapshotWriter writer(64);
  writer.add_basis(basis);
  writer.add_classifier(classifier);
  writer.add_regressor(regressor);

  std::stringstream out;
  writer.write(out);
  return out.str();
}

/// A basis-only snapshot, the file `hdcgen gen` writes: one circular
/// BasisArena section at d = 70 (a partial tail word), alignment 64.
std::string basis_snapshot_bytes() {
  hdc::CircularBasisConfig config;
  config.dimension = 70;
  config.size = 4;
  config.r = 0.25;
  config.seed = 98;
  const Basis basis = hdc::make_circular_basis(config);
  SnapshotWriter writer(64);
  writer.add_basis(basis);
  std::stringstream out;
  writer.write(out);
  return out.str();
}

/// A pipeline snapshot covering every encoder/pipeline section type: a
/// feature-encoder classification pipeline, a multiscale-circular
/// regression pipeline, a composed three-encoder (Beijing-shape) regression
/// pipeline, and both sequence-encoder kinds, at d = 70 (partial tail word)
/// with alignment 64 so the quadratic fuzz loops stay fast.
std::string pipeline_snapshot_bytes() {
  constexpr std::size_t d = 70;

  hdc::CircularBasisConfig values_config;
  values_config.dimension = d;
  values_config.size = 4;
  values_config.seed = 41;
  const auto values = std::make_shared<hdc::CircularScalarEncoder>(
      hdc::make_circular_basis(values_config), 360.0);
  const KeyValueEncoder feature_encoder(2, values, 42);
  Rng rng(43);
  hdc::CentroidClassifier classifier(2, d, 43);
  for (int i = 0; i < 4; ++i) {
    classifier.add_sample(static_cast<std::size_t>(i) % 2,
                          Hypervector::random(d, rng));
  }
  classifier.finalize();

  hdc::MultiScaleCircularEncoder::Config multiscale_config;
  multiscale_config.dimension = d;
  multiscale_config.scales = {2, 4};
  multiscale_config.period = 1.0;
  multiscale_config.seed = 44;
  const hdc::MultiScaleCircularEncoder multiscale(multiscale_config);
  hdc::LevelBasisConfig label_config;
  label_config.dimension = d;
  label_config.size = 4;
  label_config.seed = 45;
  const auto labels = std::make_shared<hdc::LinearScalarEncoder>(
      hdc::make_level_basis(label_config), 0.0, 1.0);
  hdc::HDRegressor regressor(labels, 46);
  for (int k = 0; k < 4; ++k) {
    const double x = static_cast<double>(k) / 4.0;
    regressor.add_sample(multiscale.encode(x), x);
  }
  regressor.finalize();

  // Beijing-shape composed product: linear year ⊗ circular day ⊗ circular
  // hour, so a third sub-encoder reference lands in a scales slot.
  hdc::LevelBasisConfig year_config;
  year_config.dimension = d;
  year_config.size = 2;
  year_config.seed = 49;
  auto year = std::make_shared<hdc::LinearScalarEncoder>(
      hdc::make_level_basis(year_config), 0.0, 4.0);
  hdc::CircularBasisConfig day_config;
  day_config.dimension = d;
  day_config.size = 4;
  day_config.seed = 50;
  auto day = std::make_shared<hdc::CircularScalarEncoder>(
      hdc::make_circular_basis(day_config), 366.0);
  hdc::CircularBasisConfig hour_config;
  hour_config.dimension = d;
  hour_config.size = 3;
  hour_config.seed = 51;
  auto hour = std::make_shared<hdc::CircularScalarEncoder>(
      hdc::make_circular_basis(hour_config), 24.0);
  const hdc::ComposedEncoder composed({year, day, hour});
  hdc::HDRegressor composed_regressor(labels, 52);
  for (int k = 0; k < 4; ++k) {
    const std::vector<double> row{static_cast<double>(k % 2),
                                  91.5 * static_cast<double>(k),
                                  6.0 * static_cast<double>(k)};
    composed_regressor.add_sample(composed.encode(row),
                                  static_cast<double>(k) / 4.0);
  }
  composed_regressor.finalize();

  SnapshotWriter writer(64);
  writer.add_pipeline(feature_encoder, classifier);
  writer.add_pipeline(multiscale, regressor);
  writer.add_pipeline(composed, composed_regressor);
  writer.add_sequence_encoder(hdc::SequenceEncoder(d, 47));
  writer.add_sequence_encoder(hdc::NGramEncoder(d, 3, 48));

  std::stringstream out;
  writer.write(out);
  return out.str();
}

/// Materializes every model in the snapshot, proving no constructor path is
/// reachable with broken invariants, and returns the payload words of every
/// section for bit-exact comparison.
std::vector<std::vector<std::uint64_t>> materialize_all(
    const MappedSnapshot& snapshot) {
  std::vector<std::vector<std::uint64_t>> payloads;
  for (std::size_t i = 0; i < snapshot.section_count(); ++i) {
    switch (snapshot.section(i).type) {
      case hdc::io::SectionType::BasisArena: {
        const Basis basis = snapshot.basis(i);
        EXPECT_GT(basis.size(), 0U);
        EXPECT_LT(basis.nearest(basis[0]), basis.size());
        break;
      }
      case hdc::io::SectionType::ClassifierClassVectors: {
        const hdc::CentroidClassifier model = snapshot.classifier(i);
        EXPECT_TRUE(model.finalized());
        EXPECT_LT(model.predict(model.class_vector(0)), model.num_classes());
        break;
      }
      case hdc::io::SectionType::RegressorModel: {
        const hdc::HDRegressor model = snapshot.regressor(i);
        EXPECT_NO_THROW(
            (void)model.predict(model.labels().encode(0.5)));
        break;
      }
      case hdc::io::SectionType::ScalarEncoderConfig:
      case hdc::io::SectionType::MultiScaleEncoderConfig: {
        const hdc::ScalarEncoderPtr encoder = snapshot.scalar_encoder(i);
        EXPECT_NO_THROW((void)encoder->decode(encoder->encode(0.3)));
        break;
      }
      case hdc::io::SectionType::FeatureEncoderConfig: {
        const KeyValueEncoder encoder = snapshot.feature_encoder(i);
        const std::vector<double> row(encoder.num_features(), 0.5);
        EXPECT_EQ(encoder.encode(row).dimension(), encoder.dimension());
        break;
      }
      case hdc::io::SectionType::ComposedEncoderConfig: {
        const hdc::ComposedEncoder encoder = snapshot.composed_encoder(i);
        const std::vector<double> row(encoder.num_features(), 0.5);
        EXPECT_EQ(encoder.encode(row).dimension(), encoder.dimension());
        break;
      }
      case hdc::io::SectionType::PipelineHead: {
        const Pipeline pipeline = Pipeline::restore(snapshot, i);
        const std::vector<double> row(pipeline.num_features(), 0.25);
        if (pipeline.kind() == PipelineKind::Classifier) {
          EXPECT_LT(pipeline.classify(row),
                    pipeline.classifier().num_classes());
        } else {
          EXPECT_NO_THROW((void)pipeline.regress(row));
        }
        break;
      }
      case hdc::io::SectionType::SequenceEncoderConfig: {
        if (snapshot.section(i).kind == 0) {
          auto encoder = snapshot.sequence_encoder(i);
          EXPECT_EQ(encoder.encode_word("ab").dimension(),
                    encoder.dimension());
        } else {
          auto encoder = snapshot.ngram_encoder(i);
          EXPECT_EQ(encoder.encode("abcd").dimension(), encoder.dimension());
        }
        break;
      }
      case hdc::io::SectionType::DeltaPatch:
        // A patch is only ever applied onto its base; its words are still
        // compared below.
        break;
    }
    const auto words = snapshot.section_words(i);
    payloads.emplace_back(words.begin(), words.end());
  }
  return payloads;
}

/// Stores the low \p width bytes of \p value little-endian at byte \p at.
void store_le(std::string& bytes, std::size_t at, std::uint64_t value,
              std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<char>((value >> (8 * i)) & 0xFFU);
  }
}

/// Recomputes the header's table checksum over the (patched) section table,
/// so the parser's *semantic* rules are exercised rather than the checksum.
std::string reseal_table(std::string bytes) {
  const std::uint32_t section_count =
      hdc::io::detail::load_u32(as_bytes(bytes), 16);
  const std::uint64_t checksum = hdc::io::xxhash64(
      as_bytes(bytes).subspan(hdc::io::snapshot_header_bytes,
                              section_count * hdc::io::snapshot_entry_bytes),
      hdc::io::snapshot_version);
  store_le(bytes, 32, checksum, 8);
  return bytes;
}

/// Overwrites one u64 field of a section-table entry and re-seals the table
/// checksum (the restore-misuse fixture factory).
std::string patch_entry_u64(std::string bytes, std::size_t entry,
                            std::size_t field_offset, std::uint64_t value) {
  store_le(bytes,
           hdc::io::snapshot_header_bytes +
               entry * hdc::io::snapshot_entry_bytes + field_offset,
           value, 8);
  return reseal_table(std::move(bytes));
}

/// First section index of the given type; the snapshot must contain one.
std::size_t section_of_type(const hdc::io::SnapshotLayout& layout,
                            hdc::io::SectionType type) {
  for (std::size_t i = 0; i < layout.sections.size(); ++i) {
    if (layout.sections[i].type == type) {
      return i;
    }
  }
  ADD_FAILURE() << "no section of type " << static_cast<int>(type);
  return 0;
}

TEST(SnapshotFuzzTest, EveryTruncationThrows) {
  const std::string bytes = snapshot_bytes();
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    EXPECT_THROW(
        (void)MappedSnapshot::from_bytes(as_bytes(bytes.substr(0, length))),
        SnapshotError)
        << "prefix length " << length;
  }
  // The untruncated image stays readable and fully coherent.
  const auto snapshot = MappedSnapshot::from_bytes(as_bytes(bytes));
  EXPECT_EQ(snapshot.section_count(), 4U);
  (void)materialize_all(snapshot);
}

TEST(SnapshotFuzzTest, EveryBitFlipIsRejectedOrHarmless) {
  const std::string bytes = snapshot_bytes();
  const auto original = MappedSnapshot::from_bytes(as_bytes(bytes));
  const auto original_payloads = materialize_all(original);

  std::size_t rejected = 0;
  std::size_t harmless = 0;
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = bytes;
      corrupted[pos] = static_cast<char>(
          static_cast<unsigned char>(corrupted[pos]) ^ (1U << bit));
      try {
        const auto snapshot = MappedSnapshot::from_bytes(as_bytes(corrupted));
        // Only flips in inter-section padding can survive: every header,
        // table, and payload byte is covered by a checksum or a structural
        // rule.  The models must be bit-identical to the originals.
        const auto payloads = materialize_all(snapshot);
        ASSERT_EQ(payloads, original_payloads)
            << "byte " << pos << " bit " << bit
            << ": corrupted snapshot loaded with altered content";
        ++harmless;
      } catch (const SnapshotError&) {
        ++rejected;  // never UB, never a partial model
      }
    }
  }
  // Everything but padding must actually be rejected; this file carries
  // only a few dozen padding bytes.
  EXPECT_GT(rejected, bytes.size() * 8U * 9U / 10U);
  EXPECT_GT(harmless, 0U);
}

TEST(SnapshotFuzzTest, PayloadChecksumMismatchRaisesBeforeAnyModel) {
  const std::string bytes = snapshot_bytes();
  const auto layout = hdc::io::parse_snapshot_layout(as_bytes(bytes));
  for (const auto& section : layout.sections) {
    std::string corrupted = bytes;
    corrupted[static_cast<std::size_t>(section.payload_offset)] ^= '\x01';
    EXPECT_THROW((void)MappedSnapshot::from_bytes(as_bytes(corrupted)),
                 SnapshotError);
    // Trust mode skips the hash by contract; structural parsing still works.
    EXPECT_NO_THROW((void)MappedSnapshot::from_bytes(
        as_bytes(corrupted), hdc::io::SnapshotIntegrity::Trust));
  }
}

TEST(SnapshotFuzzTest, TableChecksumFieldItselfIsCovered) {
  std::string corrupted = snapshot_bytes();
  corrupted[32] ^= '\x01';  // header's table-checksum field
  EXPECT_THROW((void)MappedSnapshot::from_bytes(as_bytes(corrupted)),
               SnapshotError);
}

// The mmap path shares the parser, but its lazy per-access verification is
// a distinct code path: open() must succeed on a payload-corrupt file (the
// table is intact) and the *accessor* must throw before any model escapes.
TEST(SnapshotFuzzTest, MappedOpenVerifiesLazilyButBeforeConstruction) {
  const std::string bytes = snapshot_bytes();
  const auto layout = hdc::io::parse_snapshot_layout(as_bytes(bytes));
  const auto dir = std::filesystem::path(testing::TempDir());

  std::string corrupted = bytes;
  corrupted[static_cast<std::size_t>(layout.sections[0].payload_offset)] ^=
      '\x01';
  const auto corrupt_path = (dir / "corrupt_payload.hdcs").string();
  std::ofstream(corrupt_path, std::ios::binary) << corrupted;
  const auto snapshot = MappedSnapshot::open(corrupt_path);
  EXPECT_THROW((void)snapshot.basis(0), SnapshotError);
  EXPECT_THROW((void)snapshot.section_words(0), SnapshotError);
  EXPECT_THROW(snapshot.verify(), SnapshotError);
  // Other sections are independently checksummed and still load.
  EXPECT_NO_THROW((void)snapshot.classifier(1));

  const auto truncated_path = (dir / "truncated.hdcs").string();
  std::ofstream(truncated_path, std::ios::binary)
      << bytes.substr(0, bytes.size() / 2);
  EXPECT_THROW((void)MappedSnapshot::open(truncated_path), SnapshotError);

  EXPECT_THROW((void)MappedSnapshot::open((dir / "missing.hdcs").string()),
               SnapshotError);
}

TEST(SnapshotFuzzTest, ImplausibleTableFieldsAreRejectedWithoutAllocating) {
  // Rewriting the dimension field to an absurd value also breaks the table
  // checksum, so craft the check at the layer that owns the rule: the
  // parser must reject oversize fields even with a matching checksum.
  // Patch dimension, then re-checksum the table.
  std::string corrupted = snapshot_bytes();
  // dimension field of entry 0 lives at 64 + 8.
  corrupted[64 + 8 + 6] = '\x7F';  // blow past snapshot_sanity_limit
  corrupted = reseal_table(std::move(corrupted));
  EXPECT_THROW((void)MappedSnapshot::from_bytes(as_bytes(corrupted)),
               SnapshotError);
}

// Same corruption contract, now over every v2 encoder/pipeline section
// type: every truncation throws, and every single-bit flip is either
// rejected or provably harmless (padding), never a silently altered model.
TEST(SnapshotFuzzTest, PipelineEveryTruncationThrows) {
  const std::string bytes = pipeline_snapshot_bytes();
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    EXPECT_THROW(
        (void)MappedSnapshot::from_bytes(as_bytes(bytes.substr(0, length))),
        SnapshotError)
        << "prefix length " << length;
  }
  const auto snapshot = MappedSnapshot::from_bytes(as_bytes(bytes));
  EXPECT_EQ(snapshot.section_count(), 23U);
  (void)materialize_all(snapshot);
}

TEST(SnapshotFuzzTest, PipelineEveryBitFlipIsRejectedOrHarmless) {
  const std::string bytes = pipeline_snapshot_bytes();
  const auto original = MappedSnapshot::from_bytes(as_bytes(bytes));
  const auto original_payloads = materialize_all(original);

  std::size_t rejected = 0;
  std::size_t harmless = 0;
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = bytes;
      corrupted[pos] = static_cast<char>(
          static_cast<unsigned char>(corrupted[pos]) ^ (1U << bit));
      try {
        const auto snapshot = MappedSnapshot::from_bytes(as_bytes(corrupted));
        const auto payloads = materialize_all(snapshot);
        ASSERT_EQ(payloads, original_payloads)
            << "byte " << pos << " bit " << bit
            << ": corrupted pipeline snapshot loaded with altered content";
        ++harmless;
      } catch (const SnapshotError&) {
        ++rejected;  // never UB, never a partial pipeline
      }
    }
  }
  EXPECT_GT(rejected, bytes.size() * 8U * 8U / 10U);
  EXPECT_GT(harmless, 0U);
}

// Restore-time misuse: a pipeline whose encoder references a missing or
// incompatible section must fail with a *descriptive* SnapshotError at
// parse, long before any index could run out of bounds.
TEST(SnapshotFuzzTest, PipelineBrokenSectionReferencesAreDescriptiveErrors) {
  const std::string bytes = pipeline_snapshot_bytes();
  const auto layout = hdc::io::parse_snapshot_layout(as_bytes(bytes));
  const std::size_t feature =
      section_of_type(layout, hdc::io::SectionType::FeatureEncoderConfig);
  const std::size_t scalar =
      section_of_type(layout, hdc::io::SectionType::ScalarEncoderConfig);
  const std::size_t multiscale =
      section_of_type(layout, hdc::io::SectionType::MultiScaleEncoderConfig);
  const std::size_t head =
      section_of_type(layout, hdc::io::SectionType::PipelineHead);
  const std::size_t keys_basis =
      static_cast<std::size_t>(layout.sections[feature].aux_section);

  const auto expect_error = [&](const std::string& corrupted,
                                const char* needle) {
    try {
      (void)MappedSnapshot::from_bytes(as_bytes(corrupted));
      FAIL() << "corrupted reference accepted (wanted error containing '"
             << needle << "')";
    } catch (const SnapshotError& error) {
      EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
          << "actual error: " << error.what();
    }
  };
  // aux offsets within a 128-byte entry: aux_section at 48, aux_b at 80.
  // Key basis pointing at a non-basis section.
  expect_error(patch_entry_u64(bytes, feature, 48, scalar),
               "not a key basis");
  // Key basis pointing at a missing (not-yet-parsed / out-of-range) section.
  expect_error(patch_entry_u64(bytes, feature, 48, 9999),
               "must reference an earlier section");
  // Value encoder pointing at a model section.
  expect_error(patch_entry_u64(bytes, feature, 80, keys_basis),
               "not a value encoder");
  // Multiscale finest basis pointing at a basis of the wrong row count.
  expect_error(patch_entry_u64(bytes, multiscale, 48, keys_basis),
               "not the finest-scale basis");
  // Pipeline head whose model reference is an encoder section.
  expect_error(patch_entry_u64(bytes, head, 80, scalar),
               "not a pipeline model");
  // Pipeline head whose encoder reference is a raw basis.
  expect_error(patch_entry_u64(bytes, head, 48, keys_basis),
               "not a pipeline encoder");

  // Composed-encoder reference misuse: sub-encoder slots must reference
  // scalar-encoder configs (first two in aux/aux_b, the rest in scale
  // slots as index + 1) and every declared slot must be present.
  const std::size_t composed =
      section_of_type(layout, hdc::io::SectionType::ComposedEncoderConfig);
  expect_error(patch_entry_u64(bytes, composed, 48, keys_basis),
               "not a scalar encoder config");
  expect_error(patch_entry_u64(bytes, composed, 80, keys_basis),
               "not a scalar encoder config");
  // Third sub-encoder slot (scales[0], entry offset 88) zeroed out.
  expect_error(patch_entry_u64(bytes, composed, 88, 0),
               "missing composed sub-encoder reference");
  // A forward reference in a scale slot (stored as index + 1).
  expect_error(patch_entry_u64(bytes, composed, 88, 10000),
               "must reference an earlier section");
  // A trailing slot that version 3 says must stay zero.
  expect_error(patch_entry_u64(bytes, composed, 96, keys_basis + 1),
               "trailing composed sub-encoder slots must be zero");
}

TEST(SnapshotFuzzTest, PipelineEncoderDimensionMismatchIsRejected) {
  // A foreign basis of a different dimension in the same file: re-pointing
  // the scalar-encoder config at it must fail the dimension cross-check.
  hdc::RandomBasisConfig foreign_config;
  foreign_config.dimension = 33;
  foreign_config.size = 3;
  foreign_config.seed = 77;
  const Basis foreign = hdc::make_random_basis(foreign_config);

  hdc::CircularBasisConfig values_config;
  values_config.dimension = 70;
  values_config.size = 4;
  values_config.seed = 78;
  const auto values = std::make_shared<hdc::CircularScalarEncoder>(
      hdc::make_circular_basis(values_config), 1.0);
  const KeyValueEncoder encoder(2, values, 79);
  Rng rng(80);
  hdc::CentroidClassifier classifier(2, 70, 81);
  for (int i = 0; i < 4; ++i) {
    classifier.add_sample(static_cast<std::size_t>(i) % 2,
                          Hypervector::random(70, rng));
  }
  classifier.finalize();

  SnapshotWriter writer(64);
  writer.add_basis(foreign);
  writer.add_pipeline(encoder, classifier);
  std::stringstream out;
  writer.write(out);
  const std::string bytes = out.str();
  const auto layout = hdc::io::parse_snapshot_layout(as_bytes(bytes));
  const std::size_t scalar =
      section_of_type(layout, hdc::io::SectionType::ScalarEncoderConfig);

  const std::string corrupted = patch_entry_u64(bytes, scalar, 48, 0);
  try {
    (void)MappedSnapshot::from_bytes(as_bytes(corrupted));
    FAIL() << "dimension mismatch accepted";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("mismatched dimension"),
              std::string::npos)
        << "actual error: " << error.what();
  }
}

// Pipeline::restore's own misuse surface: no head, ambiguous heads, and a
// non-head index must all fail descriptively.
TEST(SnapshotFuzzTest, PipelineRestoreRejectsMissingOrAmbiguousHeads) {
  const std::string plain = snapshot_bytes();
  const auto no_head = MappedSnapshot::from_bytes(as_bytes(plain));
  EXPECT_THROW((void)Pipeline::restore(no_head), SnapshotError);
  EXPECT_THROW((void)Pipeline::restore(no_head, 0), SnapshotError);
  EXPECT_THROW((void)Pipeline::restore(no_head, 9999), std::out_of_range);

  const std::string two = pipeline_snapshot_bytes();
  const auto two_heads = MappedSnapshot::from_bytes(as_bytes(two));
  EXPECT_THROW((void)Pipeline::restore(two_heads), SnapshotError);
  const auto layout = hdc::io::parse_snapshot_layout(as_bytes(two));
  const std::size_t head =
      section_of_type(layout, hdc::io::SectionType::PipelineHead);
  EXPECT_NO_THROW((void)Pipeline::restore(two_heads, head));
}

TEST(SnapshotFuzzTest, WriterRejectsUnusableInputs) {
  SnapshotWriter empty;
  std::stringstream out;
  EXPECT_THROW(empty.write(out), SnapshotError);
  EXPECT_THROW(SnapshotWriter(48), SnapshotError);      // not a power of two
  EXPECT_THROW(SnapshotWriter(32), SnapshotError);      // below the floor
  hdc::CentroidClassifier unfinalized(2, 70, 1);
  SnapshotWriter writer;
  EXPECT_THROW((void)writer.add_classifier(unfinalized), SnapshotError);

  // Multiscale encoders beyond the section-entry scale capacity, or with
  // duplicate scales (the format requires strictly increasing ring sizes).
  hdc::MultiScaleCircularEncoder::Config duplicated;
  duplicated.dimension = 70;
  duplicated.scales = {4, 4};
  duplicated.seed = 9;
  EXPECT_THROW(
      (void)writer.add_scalar_encoder(hdc::MultiScaleCircularEncoder(duplicated)),
      SnapshotError);
  hdc::MultiScaleCircularEncoder::Config oversubscribed;
  oversubscribed.dimension = 70;
  oversubscribed.scales = {2, 4, 8, 16, 32, 64};
  oversubscribed.seed = 10;
  EXPECT_THROW(
      (void)writer.add_scalar_encoder(
          hdc::MultiScaleCircularEncoder(oversubscribed)),
      SnapshotError);

  // Pipelines whose encoder and model dimensions disagree.
  hdc::CircularBasisConfig values_config;
  values_config.dimension = 64;
  values_config.size = 4;
  values_config.seed = 11;
  const auto values = std::make_shared<hdc::CircularScalarEncoder>(
      hdc::make_circular_basis(values_config), 1.0);
  const KeyValueEncoder mismatched(2, values, 12);
  Rng rng(13);
  hdc::CentroidClassifier classifier(2, 70, 14);
  for (int i = 0; i < 2; ++i) {
    classifier.add_sample(static_cast<std::size_t>(i),
                          Hypervector::random(70, rng));
  }
  classifier.finalize();
  EXPECT_THROW((void)writer.add_pipeline(mismatched, classifier),
               SnapshotError);
}

// Payload words are checksummed, so bits beyond the dimension reach a
// reader only from a crafted file whose checksums were recomputed.  The
// model constructors' own tail check must still refuse such a row instead
// of serving it: bit flips alone never exercise this rule.
TEST(SnapshotFuzzTest, ResealedTailBitsBeyondTheDimensionAreRejected) {
  const std::string bytes = snapshot_bytes();
  const auto layout = hdc::io::parse_snapshot_layout(as_bytes(bytes));
  for (const std::size_t i : {std::size_t{0}, std::size_t{1}}) {
    const hdc::io::SectionRecord& section = layout.sections[i];
    SCOPED_TRACE(static_cast<int>(section.type));
    ASSERT_EQ(section.dimension, 70U);
    // Row 0's second word holds bits 64..127; bit 70 is past d = 70.
    std::string corrupted = bytes;
    corrupted[section.payload_offset + 8] ^= '\x40';
    store_le(corrupted,
             hdc::io::snapshot_header_bytes +
                 i * hdc::io::snapshot_entry_bytes + 72,
             hdc::io::xxhash64(as_bytes(corrupted).subspan(
                 section.payload_offset, section.payload_bytes)),
             8);
    corrupted = reseal_table(std::move(corrupted));

    std::istringstream in(corrupted);
    for (const MappedSnapshot& snapshot :
         {MappedSnapshot::from_bytes(as_bytes(corrupted)),
          hdc::io::load_snapshot(in)}) {
      // Both checksums agree with the crafted bytes...
      EXPECT_NO_THROW(snapshot.verify());
      // ...and the model is refused all the same.
      if (i == 0) {
        EXPECT_THROW((void)snapshot.basis(i), std::invalid_argument);
      } else {
        EXPECT_THROW((void)snapshot.classifier(i), std::invalid_argument);
      }
    }
  }
}

/// One structural rule of the parser: the field a corrupted file breaks,
/// the value it holds, and the words the SnapshotError must carry.
struct RuleCase {
  const char* name;
  std::size_t at;  ///< Byte offset in the file; >= 64 lands in entry 0.
  std::size_t width;
  std::uint64_t value;
  const char* rule;
};

// Test listings print the parameter; without this they would dump its raw
// bytes, pointers included, and the listed names would change between runs.
void PrintTo(const RuleCase& rule, std::ostream* os) { *os << rule.name; }

constexpr std::size_t kEntry = hdc::io::snapshot_header_bytes;

const RuleCase kRuleCases[] = {
    // Header fields (no checksum covers them; each has a rule).
    {"legacy_stream_magic", 0, 4, 0x01434448U, "bad magic"},
    {"older_version", 4, 2, 3, "unsupported format version"},
    {"big_endian_marker", 6, 2, 0x454CU, "endianness marker mismatch"},
    {"header_size", 8, 4, 128, "header or section-entry size disagrees"},
    {"entry_size", 12, 4, 64, "header or section-entry size disagrees"},
    {"no_sections", 16, 4, 0, "implausible section count"},
    {"table_past_end", 16, 4, 1000, "section table extends past the end"},
    {"alignment_not_power_of_two", 20, 4, 96,
     "payload alignment must be a power of two"},
    {"alignment_below_floor", 20, 4, 32,
     "payload alignment must be a power of two"},
    {"recorded_size", 24, 8, 1U << 20, "recorded file size disagrees"},
    {"table_checksum", 32, 8, 0, "section table checksum mismatch"},
    {"reserved_header_byte", 40, 1, 1, "header reserved bytes must be zero"},
    // Fields of the basis section's table entry, re-sealed.
    {"unknown_section_type", kEntry + 0, 2, 11, "unknown section type"},
    {"config_section_with_rows", kEntry + 0, 2,
     static_cast<std::uint64_t>(hdc::io::SectionType::ScalarEncoderConfig),
     "config sections carry no payload rows"},
    {"basis_kind_out_of_range", kEntry + 2, 2, 4,
     "unknown basis kind or level method"},
    {"level_method_out_of_range", kEntry + 4, 2, 2,
     "unknown basis kind or level method"},
    {"label_encoder_on_basis", kEntry + 6, 2, 1,
     "basis sections carry no encoder or aux fields"},
    {"zero_dimension", kEntry + 8, 8, 0, "implausible dimension"},
    {"oversize_dimension", kEntry + 8, 8,
     hdc::io::snapshot_sanity_limit + 1, "implausible dimension"},
    {"dimension_disagrees_with_payload", kEntry + 8, 8, 129,
     "payload byte count disagrees with dimension and count"},
    {"zero_rows", kEntry + 16, 8, 0, "implausible row count"},
    {"oversize_rows", kEntry + 16, 8, hdc::io::snapshot_sanity_limit + 1,
     "implausible row count"},
    {"rows_disagree_with_payload", kEntry + 16, 8, 5,
     "payload byte count disagrees with dimension and count"},
    {"negative_r", kEntry + 24, 8, std::bit_cast<std::uint64_t>(-0.25),
     "basis r out of [0, 1]"},
    {"r_above_one", kEntry + 24, 8, std::bit_cast<std::uint64_t>(1.5),
     "basis r out of [0, 1]"},
    {"nan_r", kEntry + 24, 8,
     std::bit_cast<std::uint64_t>(std::numeric_limits<double>::quiet_NaN()),
     "basis r out of [0, 1]"},
    {"reserved_param", kEntry + 32, 8, std::bit_cast<std::uint64_t>(1.0),
     "nonzero reserved param"},
    {"aux_reference_on_basis", kEntry + 48, 8, 0,
     "basis sections carry no encoder or aux fields"},
    {"misaligned_payload", kEntry + 56, 8, 8, "payload is not aligned"},
    {"payload_inside_table", kEntry + 56, 8, 64,
     "payload is out of order or out of bounds"},
    {"payload_past_end", kEntry + 56, 8, std::uint64_t{1} << 40,
     "payload is out of order or out of bounds"},
    {"payload_bytes_disagree", kEntry + 64, 8, 72,
     "payload byte count disagrees with dimension and count"},
    {"secondary_reference_on_basis", kEntry + 80, 8, 0,
     "unexpected secondary section reference"},
    {"scale_list_on_basis", kEntry + 88, 8, 2,
     "scale list on a non-multiscale section"},
};

class SnapshotRuleTest : public ::testing::TestWithParam<RuleCase> {};

// Every structural rule the parser applies to the file `hdcgen gen` writes,
// one field at a time.  A table patch is re-sealed, so the rule itself and
// not the table checksum must catch it; both heap readers refuse the file
// with that rule's message before any model exists.
TEST_P(SnapshotRuleTest, ViolationIsRejectedWithItsRule) {
  const RuleCase& rule = GetParam();
  const std::string bytes = basis_snapshot_bytes();
  ASSERT_NO_THROW((void)MappedSnapshot::from_bytes(as_bytes(bytes)));
  std::string corrupted = bytes;
  store_le(corrupted, rule.at, rule.value, rule.width);
  ASSERT_NE(corrupted, bytes) << "the case must change the file";
  if (rule.at >= hdc::io::snapshot_header_bytes) {
    corrupted = reseal_table(std::move(corrupted));
  }
  const auto expect_rule = [&](const auto& load) {
    try {
      (void)load();
      FAIL() << "corrupted snapshot accepted (wanted '" << rule.rule << "')";
    } catch (const SnapshotError& error) {
      EXPECT_NE(std::string(error.what()).find(rule.rule), std::string::npos)
          << "actual error: " << error.what();
    }
  };
  expect_rule([&] { return MappedSnapshot::from_bytes(as_bytes(corrupted)); });
  expect_rule([&] {
    std::istringstream in(corrupted);
    return hdc::io::load_snapshot(in);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Rules, SnapshotRuleTest, ::testing::ValuesIn(kRuleCases),
    [](const ::testing::TestParamInfo<RuleCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
