// Equivalence suite: models served straight over a snapshot mapping must be
// bit-identical to the in-memory models they were written from, for every
// basis kind and every entry point (nearest / predict / encode-decode);
// a basis round trip keeps every word and every BasisInfo field across the
// word-tail edge dimensions; restored classifiers are inference-only; and
// concurrent MappedSnapshots of one file must agree under the thread pool.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "hdc/core/hdc.hpp"
#include "hdc/io/io.hpp"
#include "hdc/runtime/runtime.hpp"

namespace {

using hdc::Basis;
using hdc::BasisKind;
using hdc::Hypervector;
using hdc::Rng;
using hdc::io::MappedSnapshot;
using hdc::io::SnapshotWriter;

constexpr std::size_t kDim = 129;  // exercises a partial tail word
constexpr std::size_t kSize = 16;

Basis make_basis(BasisKind kind, std::size_t dimension = kDim,
                 std::size_t size = kSize) {
  switch (kind) {
    case BasisKind::Random: {
      hdc::RandomBasisConfig config;
      config.dimension = dimension;
      config.size = size;
      config.seed = 31;
      return hdc::make_random_basis(config);
    }
    case BasisKind::Level: {
      hdc::LevelBasisConfig config;
      config.dimension = dimension;
      config.size = size;
      config.r = 0.2;
      config.seed = 32;
      return hdc::make_level_basis(config);
    }
    case BasisKind::Circular: {
      hdc::CircularBasisConfig config;
      config.dimension = dimension;
      config.size = size;
      config.r = 0.15;
      config.seed = 33;
      return hdc::make_circular_basis(config);
    }
    default: {
      hdc::ScatterBasisConfig config;
      config.dimension = dimension;
      config.size = size;
      config.seed = 34;
      return hdc::make_scatter_basis(config);
    }
  }
}

std::string temp_file(const std::string& name) {
  return (std::filesystem::path(testing::TempDir()) / name).string();
}

TEST(SnapshotEquivalenceTest, MappedBasisMatchesOriginal) {
  for (const BasisKind kind : {BasisKind::Random, BasisKind::Level,
                               BasisKind::Circular, BasisKind::Scatter}) {
    SCOPED_TRACE(hdc::to_string(kind));
    const Basis original = make_basis(kind);

    const std::string path = temp_file(std::string("equiv_") +
                                       hdc::to_string(kind) + ".hdcs");
    SnapshotWriter writer;
    writer.add_basis(original);
    writer.write_file(path);
    const auto snapshot = MappedSnapshot::open(path);
    const Basis mapped = snapshot.basis(0);

    EXPECT_FALSE(mapped.owns_storage());
    EXPECT_EQ(mapped.resident_bytes(), 0U);
    ASSERT_EQ(mapped.size(), original.size());
    ASSERT_EQ(mapped.dimension(), original.dimension());
    EXPECT_EQ(mapped.info().seed, original.info().seed);
    for (std::size_t i = 0; i < original.size(); ++i) {
      EXPECT_TRUE(mapped[i] == original[i]) << "row " << i;
    }
    // nearest: identical cleanup decisions on noisy probes.
    Rng rng(7);
    for (int probe = 0; probe < 64; ++probe) {
      const Hypervector query = Hypervector::random(kDim, rng);
      EXPECT_EQ(mapped.nearest(query), original.nearest(query));
    }
    // detach(): the owning escape hatch is bit-exact too.
    const Basis detached = mapped.detach();
    EXPECT_TRUE(detached.owns_storage());
    for (std::size_t i = 0; i < original.size(); ++i) {
      EXPECT_TRUE(detached[i] == original[i]) << "row " << i;
    }
    std::filesystem::remove(path);
  }
}

TEST(SnapshotEquivalenceTest, MappedEncodeDecodeMatchesOriginal) {
  // Level basis under a linear encoder, circular basis under a circular
  // encoder: phi and phi^{-1} must agree between mapped and original models.
  const Basis level = make_basis(BasisKind::Level);
  const Basis circular = make_basis(BasisKind::Circular);
  const std::string path = temp_file("equiv_encoders.hdcs");
  SnapshotWriter writer;
  writer.add_basis(level);
  writer.add_basis(circular);
  writer.write_file(path);
  const auto snapshot = MappedSnapshot::open(path);

  const hdc::LinearScalarEncoder mapped_linear(snapshot.basis(0), 0.0, 10.0);
  const hdc::LinearScalarEncoder original_linear(level, 0.0, 10.0);
  const hdc::CircularScalarEncoder mapped_circ(snapshot.basis(1), 360.0);
  const hdc::CircularScalarEncoder original_circ(circular, 360.0);
  for (int k = 0; k <= 50; ++k) {
    const double x = static_cast<double>(k) / 5.0;
    EXPECT_TRUE(mapped_linear.encode(x) == original_linear.encode(x));
    EXPECT_DOUBLE_EQ(mapped_linear.decode(mapped_linear.encode(x)),
                     original_linear.decode(original_linear.encode(x)));
    const double angle = x * 36.0;
    EXPECT_TRUE(mapped_circ.encode(angle) == original_circ.encode(angle));
    EXPECT_DOUBLE_EQ(mapped_circ.decode(mapped_circ.encode(angle)),
                     original_circ.decode(original_circ.encode(angle)));
  }
  std::filesystem::remove(path);
}

TEST(SnapshotEquivalenceTest, MappedClassifierMatchesOriginal) {
  Rng rng(11);
  hdc::CentroidClassifier original(4, kDim, 3);
  for (int i = 0; i < 40; ++i) {
    original.add_sample(static_cast<std::size_t>(i) % 4,
                        Hypervector::random(kDim, rng));
  }
  original.finalize();

  const std::string path = temp_file("equiv_classifier.hdcs");
  SnapshotWriter writer;
  writer.add_classifier(original);
  writer.write_file(path);
  const auto snapshot = MappedSnapshot::open(path);
  const hdc::CentroidClassifier mapped = snapshot.classifier(0);

  EXPECT_FALSE(mapped.owns_storage());
  EXPECT_FALSE(mapped.trainable());
  ASSERT_EQ(mapped.num_classes(), original.num_classes());
  for (std::size_t c = 0; c < original.num_classes(); ++c) {
    EXPECT_TRUE(mapped.class_vector(c) == original.class_vector(c));
  }
  for (int probe = 0; probe < 64; ++probe) {
    const Hypervector query = Hypervector::random(kDim, rng);
    EXPECT_EQ(mapped.predict(query), original.predict(query));
    EXPECT_EQ(mapped.similarities(query), original.similarities(query));
  }
  std::filesystem::remove(path);
}

// A restored classifier carries its class-vectors but no accumulators: it
// reports that up front, every training mutator refuses, and detach() is
// the owning, bit-exact way out of the mapping.
TEST(SnapshotEquivalenceTest, MappedClassifierIsInferenceOnly) {
  Rng rng(12);
  hdc::CentroidClassifier original(3, kDim, 5);
  for (int i = 0; i < 30; ++i) {
    original.add_sample(static_cast<std::size_t>(i) % 3,
                        Hypervector::random(kDim, rng));
  }
  original.finalize();
  EXPECT_TRUE(original.trainable());
  EXPECT_FALSE(original.inference_only());

  const std::string path = temp_file("equiv_inference_only.hdcs");
  SnapshotWriter writer;
  writer.add_classifier(original);
  writer.write_file(path);
  const auto snapshot = MappedSnapshot::open(path);
  hdc::CentroidClassifier mapped = snapshot.classifier(0);

  EXPECT_TRUE(mapped.finalized());
  EXPECT_FALSE(mapped.trainable());
  EXPECT_TRUE(mapped.inference_only());
  const Hypervector sample = Hypervector::random(kDim, rng);
  hdc::BundleAccumulator partial(kDim);
  partial.add(sample);
  EXPECT_THROW(mapped.add_sample(0, sample), std::logic_error);
  EXPECT_THROW(mapped.absorb(0, partial), std::logic_error);
  EXPECT_THROW((void)mapped.adapt(0, sample), std::logic_error);
  EXPECT_THROW(mapped.finalize(), std::logic_error);
  // Restored models report zero accumulated samples, not stale counts.
  for (std::size_t c = 0; c < mapped.num_classes(); ++c) {
    EXPECT_EQ(mapped.class_count(c), 0U) << "class " << c;
  }
  EXPECT_EQ(mapped.predict(sample), original.predict(sample));

  const hdc::CentroidClassifier copy = mapped.detach();
  EXPECT_TRUE(copy.owns_storage());
  EXPECT_TRUE(copy.inference_only());
  ASSERT_EQ(copy.num_classes(), original.num_classes());
  for (std::size_t c = 0; c < copy.num_classes(); ++c) {
    EXPECT_TRUE(copy.class_vector(c) == original.class_vector(c))
        << "class " << c;
  }
  std::filesystem::remove(path);
}

TEST(SnapshotEquivalenceTest, BorrowedArenaServesSectionWords) {
  const Basis original = make_basis(BasisKind::Random);
  const std::string path = temp_file("equiv_arena.hdcs");
  SnapshotWriter writer;
  writer.add_basis(original);
  writer.write_file(path);
  const auto snapshot = MappedSnapshot::open(path);

  const auto arena = hdc::runtime::VectorArena::borrow(
      kDim, kSize, snapshot.section_words(0));
  EXPECT_FALSE(arena.owns_storage());
  EXPECT_TRUE(arena.tails_clean());
  ASSERT_EQ(arena.size(), original.size());
  for (std::size_t i = 0; i < arena.size(); ++i) {
    EXPECT_TRUE(arena.view(i) == original[i]) << "slot " << i;
  }
  // Borrowed arenas are read-only: every mutator must refuse.
  auto mutable_arena = hdc::runtime::VectorArena::borrow(
      kDim, kSize, snapshot.section_words(0));
  EXPECT_THROW(mutable_arena.append(original[0]), std::logic_error);
  EXPECT_THROW((void)mutable_arena.append_zero(), std::logic_error);
  EXPECT_THROW(mutable_arena.resize(4), std::logic_error);
  EXPECT_THROW((void)mutable_arena.mutable_words(0), std::logic_error);
  std::filesystem::remove(path);
}

TEST(SnapshotEquivalenceTest, ConcurrentMappedSnapshotsAgreeUnderThreadPool) {
  Rng rng(13);
  const Basis basis = make_basis(BasisKind::Circular);
  hdc::CentroidClassifier classifier(4, kDim, 3);
  for (int i = 0; i < 32; ++i) {
    classifier.add_sample(static_cast<std::size_t>(i) % 4,
                          Hypervector::random(kDim, rng));
  }
  classifier.finalize();

  const std::string path = temp_file("equiv_concurrent.hdcs");
  SnapshotWriter writer;
  writer.add_basis(basis);
  writer.add_classifier(classifier);
  writer.write_file(path);

  // Two independent mappings of one file, plus the original as the oracle.
  const auto snapshot_a = MappedSnapshot::open(path);
  const auto snapshot_b = MappedSnapshot::open(path);

  constexpr std::size_t kQueries = 256;
  std::vector<Hypervector> queries;
  std::vector<std::size_t> expected_class(kQueries);
  std::vector<std::size_t> expected_nearest(kQueries);
  queries.reserve(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    queries.push_back(Hypervector::random(kDim, rng));
    expected_class[i] = classifier.predict(queries[i]);
    expected_nearest[i] = basis.nearest(queries[i]);
  }

  hdc::runtime::ThreadPool pool(4);
  std::vector<std::size_t> got_class(kQueries);
  std::vector<std::size_t> got_nearest(kQueries);
  pool.for_chunks(kQueries, [&](std::size_t begin, std::size_t end,
                                std::size_t chunk) {
    // Alternate mappings per chunk; each chunk materializes its own
    // borrowed models, exercising the verify-once path concurrently.
    const MappedSnapshot& snapshot = (chunk % 2 == 0) ? snapshot_a
                                                      : snapshot_b;
    const Basis chunk_basis = snapshot.basis(0);
    const hdc::CentroidClassifier chunk_model = snapshot.classifier(1);
    for (std::size_t i = begin; i < end; ++i) {
      got_class[i] = chunk_model.predict(queries[i]);
      got_nearest[i] = chunk_basis.nearest(queries[i]);
    }
  });
  EXPECT_EQ(got_class, expected_class);
  EXPECT_EQ(got_nearest, expected_nearest);
  std::filesystem::remove(path);
}

TEST(SnapshotEquivalenceTest, HeapLoaderMatchesMappedLoader) {
  const Basis original = make_basis(BasisKind::Level);
  const std::string path = temp_file("equiv_heap.hdcs");
  SnapshotWriter writer;
  writer.add_basis(original);
  writer.write_file(path);

  const auto mapped = MappedSnapshot::open(path);
  const auto heap = hdc::io::load_snapshot(path);
  EXPECT_FALSE(heap.zero_copy());
  ASSERT_EQ(heap.section_count(), mapped.section_count());
  const Basis mapped_basis = mapped.basis(0);
  const Basis heap_basis = heap.basis(0);
  ASSERT_EQ(heap_basis.size(), mapped_basis.size());
  for (std::size_t i = 0; i < mapped_basis.size(); ++i) {
    EXPECT_TRUE(heap_basis[i] == mapped_basis[i]) << "row " << i;
  }
  // The stream overload serves the no-filesystem path.
  std::ifstream in(path, std::ios::binary);
  const auto stream_loaded = hdc::io::load_snapshot(in);
  EXPECT_TRUE(stream_loaded.basis(0)[0] == mapped_basis[0]);
  std::filesystem::remove(path);
}

TEST(SnapshotEquivalenceTest, LockMemoryPinsMappingOrFailsLoudly) {
  const Basis original = make_basis(BasisKind::Random);
  const std::string path = temp_file("equiv_mlock.hdcs");
  SnapshotWriter writer;
  writer.add_basis(original);
  writer.write_file(path);

  // Without lock_memory the mapping is never pinned.
  EXPECT_FALSE(MappedSnapshot::open(path).locked());
  hdc::io::MappingOptions pinned;
  pinned.lock_memory = true;
  // mlock needs RLIMIT_MEMLOCK headroom, which sandboxed CI runners may
  // not grant; the contract is pin-or-throw, never a silently unpinned
  // mapping.
  try {
    const auto snapshot = MappedSnapshot::open(
        path, hdc::io::SnapshotIntegrity::Checksum, pinned);
    EXPECT_EQ(snapshot.locked(), snapshot.zero_copy());
    const Basis basis = snapshot.basis(0);
    ASSERT_EQ(basis.size(), original.size());
    for (std::size_t i = 0; i < basis.size(); ++i) {
      EXPECT_TRUE(basis[i] == original[i]) << "row " << i;
    }
  } catch (const hdc::io::SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("mlock"), std::string::npos);
  }
  std::filesystem::remove(path);
}

struct RoundTripCase {
  BasisKind kind;
  std::size_t dimension;
};

std::string round_trip_name(const RoundTripCase& c) {
  return std::string(hdc::to_string(c.kind)) + "_d" +
         std::to_string(c.dimension);
}

// Test listings print the parameter; without this they would dump its raw
// bytes, padding included, and the listed names would change between runs.
void PrintTo(const RoundTripCase& c, std::ostream* os) {
  *os << round_trip_name(c);
}

class SnapshotBasisRoundTripTest
    : public ::testing::TestWithParam<RoundTripCase> {};

// Writing a basis and reading it back, mapped or through the heap loader,
// keeps every arena word and every BasisInfo field, across the word-tail
// edge dimensions and the paper-scale ones; the owning copy carries no
// capacity slack.
TEST_P(SnapshotBasisRoundTripTest, PreservesEveryWordAndInfoField) {
  const auto [kind, d] = GetParam();
  const Basis original = make_basis(kind, d, d > 1'000 ? 8 : 16);
  const std::string path =
      temp_file(std::string("round_trip_") + hdc::to_string(kind) + "_d" +
                std::to_string(d) + ".hdcs");
  SnapshotWriter writer;
  writer.add_basis(original);
  writer.write_file(path);
  const auto mapped = MappedSnapshot::open(path);
  const auto heap = hdc::io::load_snapshot(path);
  const auto expected = original.packed_words();
  for (const Basis& loaded : {mapped.basis(0), heap.basis(0)}) {
    const hdc::BasisInfo& info = loaded.info();
    EXPECT_EQ(info.kind, original.info().kind);
    EXPECT_EQ(info.method, original.info().method);
    EXPECT_EQ(info.dimension, original.info().dimension);
    EXPECT_EQ(info.size, original.info().size);
    EXPECT_EQ(info.r, original.info().r);
    EXPECT_EQ(info.seed, original.info().seed);
    ASSERT_EQ(loaded.words_per_vector(), original.words_per_vector());
    const auto words = loaded.packed_words();
    ASSERT_EQ(words.size(), expected.size());
    for (std::size_t w = 0; w < expected.size(); ++w) {
      ASSERT_EQ(words[w], expected[w]) << "word " << w;
    }
    EXPECT_EQ(loaded.detach().resident_bytes(), original.resident_bytes());
  }
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SnapshotBasisRoundTripTest,
    ::testing::ValuesIn([] {
      std::vector<RoundTripCase> cases;
      for (const BasisKind kind : {BasisKind::Random, BasisKind::Level,
                                   BasisKind::Circular, BasisKind::Scatter}) {
        for (const std::size_t d :
             {1UL, 63UL, 64UL, 65UL, 127UL, 10'000UL, 10'240UL}) {
          cases.push_back({kind, d});
        }
      }
      return cases;
    }()),
    [](const ::testing::TestParamInfo<RoundTripCase>& info) {
      return round_trip_name(info.param);
    });

}  // namespace
