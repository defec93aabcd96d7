// Property/fuzz suite for the arena-backed zero-copy refactor: every result
// computed through `HypervectorView`s into the packed `Basis` arena must be
// bit-identical to the "copy path" — the same computation over owning
// `Hypervector` copies materialized from those views (which reproduces the
// pre-refactor storage layout).  The sweep covers the word-boundary edge
// dimensions (1, 63, 64, 65, 127) plus the paper-scale ones (10'000, 10'240)
// for all four basis families, with several generation seeds each.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <vector>

#include "hdc/core/basis_circular.hpp"
#include "hdc/core/basis_level.hpp"
#include "hdc/core/basis_random.hpp"
#include "hdc/core/multiscale_encoder.hpp"
#include "hdc/core/ops.hpp"
#include "hdc/core/scalar_encoder.hpp"
#include "hdc/core/scatter_code.hpp"

namespace {

using hdc::Basis;
using hdc::BasisKind;
using hdc::Hypervector;
using hdc::HypervectorView;
using hdc::Rng;

struct SweepCase {
  BasisKind kind;
  std::size_t dimension;
};

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  return std::string(hdc::to_string(info.param.kind)) + "_d" +
         std::to_string(info.param.dimension);
}

// Test listings print the parameter; without this they would dump its raw
// bytes, padding included, and the listed names would change between runs.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << hdc::to_string(c.kind) << "_d" << c.dimension;
}

Basis make_basis(BasisKind kind, std::size_t d, std::size_t m,
                 std::uint64_t seed) {
  switch (kind) {
    case BasisKind::Random: {
      hdc::RandomBasisConfig config;
      config.dimension = d;
      config.size = m;
      config.seed = seed;
      return hdc::make_random_basis(config);
    }
    case BasisKind::Level: {
      hdc::LevelBasisConfig config;
      config.dimension = d;
      config.size = m;
      config.seed = seed;
      return hdc::make_level_basis(config);
    }
    case BasisKind::Circular: {
      hdc::CircularBasisConfig config;
      config.dimension = d;
      config.size = m;
      config.seed = seed;
      return hdc::make_circular_basis(config);
    }
    case BasisKind::Scatter: {
      hdc::ScatterBasisConfig config;
      config.dimension = d;
      config.size = m;
      config.seed = seed;
      return hdc::make_scatter_basis(config);
    }
  }
  throw std::logic_error("unknown basis kind");
}

/// The copy path: owning duplicates of every arena row, i.e. exactly the
/// per-Hypervector storage the pre-refactor Basis kept alongside the arena.
std::vector<Hypervector> materialize(const Basis& basis) {
  std::vector<Hypervector> copies;
  copies.reserve(basis.size());
  for (std::size_t i = 0; i < basis.size(); ++i) {
    copies.emplace_back(basis[i]);
  }
  return copies;
}

/// Reference cleanup: per-pair distances over owning copies with a strict
/// less-than scan, the documented tie rule (lowest index wins).
std::size_t copy_path_nearest(const std::vector<Hypervector>& copies,
                              const Hypervector& query) {
  std::size_t best = 0;
  std::size_t best_dist = hdc::hamming_distance(query, copies[0]);
  for (std::size_t i = 1; i < copies.size(); ++i) {
    const std::size_t dist = hdc::hamming_distance(query, copies[i]);
    if (dist < best_dist) {
      best_dist = dist;
      best = i;
    }
  }
  return best;
}

class ViewEquivalenceTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ViewEquivalenceTest, ViewsAreBitIdenticalToCopies) {
  const auto [kind, d] = GetParam();
  const std::size_t m = d > 1'000 ? 8 : 16;
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    const Basis basis = make_basis(kind, d, m, seed);
    const std::vector<Hypervector> copies = materialize(basis);
    ASSERT_EQ(basis.size(), m);
    ASSERT_EQ(basis.packed_words().size(), m * basis.words_per_vector());
    std::size_t index = 0;
    for (const HypervectorView view : basis) {
      EXPECT_TRUE(view == copies[index]) << "row " << index;
      EXPECT_EQ(view.count_ones(), copies[index].count_ones());
      EXPECT_EQ(view.bit(0), copies[index].bit(0));
      EXPECT_EQ(view.bit(d - 1), copies[index].bit(d - 1));
      ++index;
    }
    EXPECT_EQ(index, m);
  }
}

TEST_P(ViewEquivalenceTest, NearestMatchesCopyPath) {
  const auto [kind, d] = GetParam();
  const std::size_t m = d > 1'000 ? 8 : 16;
  for (const std::uint64_t seed : {21ULL, 22ULL, 23ULL}) {
    const Basis basis = make_basis(kind, d, m, seed);
    const std::vector<Hypervector> copies = materialize(basis);
    Rng rng(seed * 1'000'003ULL);

    std::vector<Hypervector> queries;
    for (std::size_t i = 0; i < m; ++i) {
      queries.push_back(copies[i]);  // exact members (maximally tied inputs)
      queries.push_back(hdc::flip_random_bits(basis[i], d / 5, rng));
    }
    for (int q = 0; q < 4; ++q) {
      queries.push_back(Hypervector::random(d, rng));
    }

    for (const Hypervector& query : queries) {
      const std::size_t expected = copy_path_nearest(copies, query);
      EXPECT_EQ(basis.nearest(query), expected);
      EXPECT_EQ(basis.nearest_words(query.words()), expected);
    }
  }
}

TEST_P(ViewEquivalenceTest, PairwiseDistancesMatchCopyPath) {
  const auto [kind, d] = GetParam();
  const std::size_t m = d > 1'000 ? 8 : 16;
  for (const std::uint64_t seed : {31ULL, 32ULL}) {
    const Basis basis = make_basis(kind, d, m, seed);
    const std::vector<Hypervector> copies = materialize(basis);
    const auto dist = basis.pairwise_distances();
    ASSERT_EQ(dist.size(), m);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        // Same integer Hamming count divided by the same double — the
        // results must be bit-identical, not merely close.
        EXPECT_EQ(dist[i][j], hdc::normalized_distance(copies[i], copies[j]))
            << "pair (" << i << ", " << j << ")";
      }
    }
  }
}

TEST_P(ViewEquivalenceTest, BindingViewsMatchesBindingCopies) {
  const auto [kind, d] = GetParam();
  const std::size_t m = d > 1'000 ? 8 : 16;
  const Basis basis = make_basis(kind, d, m, 41);
  const std::vector<Hypervector> copies = materialize(basis);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const Hypervector from_views = basis[i] ^ basis[j];
      const Hypervector from_copies = copies[i] ^ copies[j];
      EXPECT_EQ(from_views, from_copies) << "pair (" << i << ", " << j << ")";
      EXPECT_EQ(from_views, hdc::bind(basis[i], copies[j]));
    }
  }
}

TEST_P(ViewEquivalenceTest, EncodeDecodeRoundTripMatchesCopyPath) {
  const auto [kind, d] = GetParam();
  const std::size_t m = d > 1'000 ? 8 : 16;
  const Basis basis = make_basis(kind, d, m, 51);
  const std::vector<Hypervector> copies = materialize(basis);

  const hdc::LinearScalarEncoder linear(basis, 0.0, 1.0);
  const hdc::CircularScalarEncoder circular(basis, 1.0);
  for (const hdc::ScalarEncoder* encoder :
       {static_cast<const hdc::ScalarEncoder*>(&linear),
        static_cast<const hdc::ScalarEncoder*>(&circular)}) {
    for (std::size_t i = 0; i < m; ++i) {
      const double value = encoder->value_of(i);
      const HypervectorView encoded = encoder->encode(value);
      // The view must hit the exact arena row the copy path owns...
      EXPECT_TRUE(encoded == copies[encoder->index_of(value)]) << "grid " << i;
      // ...and decoding a view query must equal decoding its owned copy,
      // which in turn must match the reference cleanup over copies.
      const Hypervector owned(encoded);
      EXPECT_EQ(encoder->decode(encoded), encoder->decode(owned));
      EXPECT_EQ(encoder->decode(owned),
                encoder->value_of(copy_path_nearest(copies, owned)));
    }
  }
}

TEST(ViewEquivalenceMultiScaleTest, ViewAndCopyQueriesDecodeIdentically) {
  // The multi-scale encoder serves views out of its own bound-vector arena;
  // querying decode() with the view and with a materialized copy of it must
  // agree everywhere on the grid.
  for (const std::size_t d : {1UL, 63UL, 64UL, 65UL, 127UL, 10'000UL}) {
    hdc::MultiScaleCircularEncoder::Config config;
    config.dimension = d;
    config.scales = {4, 16};
    config.period = 24.0;
    config.seed = 71;
    const hdc::MultiScaleCircularEncoder enc(config);
    for (std::size_t i = 0; i < enc.size(); ++i) {
      const HypervectorView view = enc.encode(enc.value_of(i));
      const Hypervector copy(view);
      EXPECT_EQ(enc.decode(view), enc.decode(copy)) << "d " << d << " i " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ViewEquivalenceTest,
    ::testing::Values(
        SweepCase{BasisKind::Random, 1}, SweepCase{BasisKind::Random, 63},
        SweepCase{BasisKind::Random, 64}, SweepCase{BasisKind::Random, 65},
        SweepCase{BasisKind::Random, 127}, SweepCase{BasisKind::Random, 10'000},
        SweepCase{BasisKind::Random, 10'240}, SweepCase{BasisKind::Level, 1},
        SweepCase{BasisKind::Level, 63}, SweepCase{BasisKind::Level, 64},
        SweepCase{BasisKind::Level, 65}, SweepCase{BasisKind::Level, 127},
        SweepCase{BasisKind::Level, 10'000},
        SweepCase{BasisKind::Level, 10'240}, SweepCase{BasisKind::Circular, 1},
        SweepCase{BasisKind::Circular, 63}, SweepCase{BasisKind::Circular, 64},
        SweepCase{BasisKind::Circular, 65},
        SweepCase{BasisKind::Circular, 127},
        SweepCase{BasisKind::Circular, 10'000},
        SweepCase{BasisKind::Circular, 10'240},
        SweepCase{BasisKind::Scatter, 1}, SweepCase{BasisKind::Scatter, 63},
        SweepCase{BasisKind::Scatter, 64}, SweepCase{BasisKind::Scatter, 65},
        SweepCase{BasisKind::Scatter, 127},
        SweepCase{BasisKind::Scatter, 10'000},
        SweepCase{BasisKind::Scatter, 10'240}),
    case_name);

}  // namespace
