// Kernel-dispatch property suite: every compiled-in, CPU-supported kernel
// variant (scalar / AVX2 / AVX-512 / NEON) must be bit-exact with the
// scalar reference on the full primitive matrix — hamming, nearest_hamming
// (including its lowest-index tie-break), hamming_many, count_ones,
// xor_rows (aliased too), the bundling pair accumulate / threshold (zero
// ties, tail bits, counters past the dimension) and the one-pass majority
// against that pair (plain rows, bound pairs, rotated n-gram windows,
// position-rotated symbols, even counts' ties, a canary word past the
// output) — across dimensions that exercise every word-count shape: single
// partial word, exact word boundaries, one-past boundaries, and the
// paper-scale d = 10000 / 10240.  Variants are forced through
// select_kernels(), the same switch HDC_KERNELS reaches at init, so this
// suite is also the regression net for the dispatcher itself.

#include "hdc/core/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "hdc/base/rng.hpp"
#include "hdc/core/bitops.hpp"

namespace {

using hdc::Rng;
namespace bits = hdc::bits;

// The dimension matrix from the arena property suites: every tail shape.
constexpr std::size_t kDims[] = {1, 63, 64, 65, 127, 10'000, 10'240};

std::vector<std::uint64_t> random_words(std::size_t bit_count, Rng& rng) {
  std::vector<std::uint64_t> words(bits::words_for(bit_count));
  for (auto& w : words) {
    w = rng();
  }
  if (!words.empty()) {
    words.back() &= bits::tail_mask(bit_count);
  }
  return words;
}

/// Restores the entry selection when a test exits, pass or fail, so a
/// failure in one variant cannot leak that variant into later suites.
class KernelGuard {
 public:
  KernelGuard() : previous_(bits::active_kernels().name) {}
  ~KernelGuard() { bits::select_kernels(previous_); }
  KernelGuard(const KernelGuard&) = delete;
  KernelGuard& operator=(const KernelGuard&) = delete;

 private:
  std::string previous_;
};

TEST(KernelDispatchTest, ScalarIsAlwaysAvailable) {
  bool saw_scalar = false;
  for (const bits::Kernels* variant : bits::available_kernels()) {
    EXPECT_TRUE(variant->supported());
    if (std::string_view(variant->name) == "scalar") {
      saw_scalar = true;
    }
  }
  EXPECT_TRUE(saw_scalar);
  EXPECT_EQ(std::string_view(bits::scalar_kernels().name), "scalar");
  EXPECT_TRUE(bits::scalar_kernels().supported());
}

TEST(KernelDispatchTest, AvailableIsTheSupportedSubsetOfCompiled) {
  const auto compiled = bits::compiled_kernels();
  EXPECT_GE(compiled.size(), bits::available_kernels().size());
  for (const bits::Kernels* variant : bits::available_kernels()) {
    EXPECT_NE(std::find(compiled.begin(), compiled.end(), variant),
              compiled.end());
  }
}

TEST(KernelDispatchTest, SelectRoundTripsEveryAvailableVariant) {
  const KernelGuard guard;
  for (const bits::Kernels* variant : bits::available_kernels()) {
    const bits::Kernels& selected = bits::select_kernels(variant->name);
    EXPECT_EQ(&selected, variant);
    EXPECT_EQ(std::string_view(bits::active_kernels().name), variant->name);
  }
}

TEST(KernelDispatchTest, SelectUnknownVariantThrowsAndKeepsSelection) {
  const std::string before = bits::active_kernels().name;
  EXPECT_THROW(bits::select_kernels("bogus"), std::invalid_argument);
  EXPECT_THROW(bits::select_kernels(""), std::invalid_argument);
  try {
    bits::select_kernels("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    // The diagnostic must list the real alternatives.
    EXPECT_NE(std::string(error.what()).find("scalar"), std::string::npos);
  }
  EXPECT_EQ(std::string(bits::active_kernels().name), before);
}

TEST(KernelDispatchTest, CpuFeaturesImplyCompiledVariantSupport) {
  const bits::CpuFeatures features = bits::cpu_features();
  for (const bits::Kernels* variant : bits::compiled_kernels()) {
    const std::string_view name = variant->name;
    if (name == "avx2") {
      EXPECT_EQ(variant->supported(), features.avx2);
    } else if (name == "avx512") {
      EXPECT_EQ(variant->supported(),
                features.avx512f && features.avx512vpopcntdq);
    } else if (name == "neon") {
      EXPECT_EQ(variant->supported(), features.neon);
    }
  }
}

/// Bit-exactness matrix, run once per available variant via the
/// value-parameterized harness below.
class KernelVariantTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override { bits::select_kernels(GetParam()); }
  void TearDown() override { bits::select_kernels("scalar"); }
};

TEST_P(KernelVariantTest, HammingMatchesScalarReference) {
  const bits::Kernels& reference = bits::scalar_kernels();
  for (const std::size_t dim : kDims) {
    Rng rng(dim * 5 + 1);
    for (int round = 0; round < 8; ++round) {
      const auto a = random_words(dim, rng);
      const auto b = random_words(dim, rng);
      EXPECT_EQ(bits::hamming(a, b),
                reference.hamming(a.data(), b.data(), a.size()))
          << "variant " << GetParam() << " d=" << dim;
    }
    // Identical inputs and complementary tails are the distance extremes.
    const auto a = random_words(dim, rng);
    EXPECT_EQ(bits::hamming(a, a), 0U);
    std::vector<std::uint64_t> flipped(a);
    for (auto& w : flipped) {
      w = ~w;
    }
    flipped.back() &= bits::tail_mask(dim);
    EXPECT_EQ(bits::hamming(a, flipped), dim)
        << "variant " << GetParam() << " d=" << dim;
  }
}

TEST_P(KernelVariantTest, CountOnesMatchesScalarReference) {
  const bits::Kernels& reference = bits::scalar_kernels();
  for (const std::size_t dim : kDims) {
    Rng rng(dim * 7 + 2);
    for (int round = 0; round < 8; ++round) {
      const auto words = random_words(dim, rng);
      EXPECT_EQ(bits::count_ones(words),
                reference.count_ones(words.data(), words.size()))
          << "variant " << GetParam() << " d=" << dim;
    }
  }
}

TEST_P(KernelVariantTest, XorMatchesScalarAndPreservesTailInvariant) {
  for (const std::size_t dim : kDims) {
    Rng rng(dim * 11 + 3);
    const auto a = random_words(dim, rng);
    const auto b = random_words(dim, rng);
    std::vector<std::uint64_t> expected(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      expected[i] = a[i] ^ b[i];
    }

    std::vector<std::uint64_t> rows_out(a.size(), ~0ULL);
    bits::xor_rows(rows_out, a, b);
    EXPECT_EQ(rows_out, expected) << "variant " << GetParam() << " d=" << dim;
    // Tail-masked inputs must produce a tail-masked XOR.
    EXPECT_EQ(rows_out.back() & ~bits::tail_mask(dim), 0U);

    // Aliased xor_rows(dst = dst ^ b) is part of the contract.
    std::vector<std::uint64_t> aliased(a);
    bits::xor_rows(aliased, aliased, b);
    EXPECT_EQ(aliased, expected) << "variant " << GetParam() << " d=" << dim;
  }
}

TEST_P(KernelVariantTest, NearestAndManyMatchScalarOverArenas) {
  const bits::Kernels& reference = bits::scalar_kernels();
  for (const std::size_t dim : kDims) {
    Rng rng(dim * 13 + 4);
    const std::size_t words = bits::words_for(dim);
    // stride > words exercises the padded-row layout the VectorArena uses.
    const std::size_t stride = words + (dim % 3);
    const std::size_t count = 17;
    std::vector<std::uint64_t> arena(stride * count, 0);
    for (std::size_t i = 0; i < count; ++i) {
      const auto row = random_words(dim, rng);
      std::copy(row.begin(), row.end(), arena.begin() + i * stride);
    }
    const auto query = random_words(dim, rng);

    const bits::NearestMatch expected = reference.nearest_hamming(
        query.data(), words, arena.data(), stride, count);
    const bits::NearestMatch actual =
        bits::nearest_hamming(query, arena, stride, count);
    EXPECT_EQ(actual.index, expected.index)
        << "variant " << GetParam() << " d=" << dim;
    EXPECT_EQ(actual.distance, expected.distance)
        << "variant " << GetParam() << " d=" << dim;

    std::vector<std::size_t> distances(count, 0);
    std::vector<std::size_t> reference_distances(count, 0);
    bits::hamming_many(query, arena, stride, count, distances);
    reference.hamming_many(query.data(), words, arena.data(), stride, count,
                           reference_distances.data());
    EXPECT_EQ(distances, reference_distances)
        << "variant " << GetParam() << " d=" << dim;
  }
}

TEST_P(KernelVariantTest, NearestBreaksTiesTowardLowestIndex) {
  for (const std::size_t dim : kDims) {
    Rng rng(dim * 17 + 5);
    const std::size_t words = bits::words_for(dim);
    const auto query = random_words(dim, rng);
    const auto far = random_words(dim, rng);
    const auto near = random_words(dim, rng);

    // Rows [far, near, near, near]: the duplicated minimum must resolve to
    // its first occurrence for every variant (index 1, never 2 or 3) —
    // unless `far` accidentally ties or beats it, in which case index 0 is
    // the correct strict-less-than answer; skip that degenerate draw.
    if (bits::hamming(query, near) >= bits::hamming(query, far)) {
      continue;
    }
    std::vector<std::uint64_t> arena;
    for (const auto* row : {&far, &near, &near, &near}) {
      arena.insert(arena.end(), row->begin(), row->end());
    }
    const bits::NearestMatch match =
        bits::nearest_hamming(query, arena, words, 4);
    EXPECT_EQ(match.index, 1U) << "variant " << GetParam() << " d=" << dim;

    // An arena of identical rows must always resolve to index 0.
    std::vector<std::uint64_t> same;
    for (int i = 0; i < 5; ++i) {
      same.insert(same.end(), near.begin(), near.end());
    }
    EXPECT_EQ(bits::nearest_hamming(query, same, words, 5).index, 0U)
        << "variant " << GetParam() << " d=" << dim;
  }
}

TEST_P(KernelVariantTest, AccumulateMatchesScalarAndSparesCanary) {
  const bits::Kernels& reference = bits::scalar_kernels();
  constexpr std::int32_t kCanary = 0x5A5A5A5A;
  for (const std::size_t dim : kDims) {
    Rng rng(dim * 19 + 6);
    // One slot past the dimension holds a canary no variant may write.
    std::vector<std::int32_t> counters(dim + 1, 0);
    std::vector<std::int32_t> expected(dim + 1, 0);
    counters[dim] = kCanary;
    expected[dim] = kCanary;
    for (const std::int32_t weight : {1, -1, 7, -300}) {
      const auto words = random_words(dim, rng);
      bits::accumulate(std::span(counters).first(dim), words, weight);
      reference.accumulate(expected.data(), words.data(), dim, weight);
    }
    EXPECT_EQ(counters, expected) << "variant " << GetParam() << " d=" << dim;
    EXPECT_EQ(counters[dim], kCanary)
        << "variant " << GetParam() << " d=" << dim;
  }
}

TEST_P(KernelVariantTest, ThresholdMatchesScalarTakesTiesAndMasksTail) {
  const bits::Kernels& reference = bits::scalar_kernels();
  for (const std::size_t dim : kDims) {
    Rng rng(dim * 23 + 7);
    // Counters in {-2..2} make about a fifth of them exact zero ties.
    std::vector<std::int32_t> counters(dim);
    for (auto& c : counters) {
      c = static_cast<std::int32_t>(rng() % 5) - 2;
    }
    const auto tie = random_words(dim, rng);
    std::vector<std::uint64_t> out(tie.size(), ~0ULL);
    std::vector<std::uint64_t> expected(tie.size(), 0);
    bits::threshold(counters, tie, out);
    reference.threshold(counters.data(), tie.data(), expected.data(), dim);
    EXPECT_EQ(out, expected) << "variant " << GetParam() << " d=" << dim;
    EXPECT_EQ(out.back() & ~bits::tail_mask(dim), 0U)
        << "variant " << GetParam() << " d=" << dim;

    // All-zero counters are all ties: the output is the tie row itself,
    // and an all-ones tie row still leaves the tail clear.
    const std::vector<std::int32_t> zeros(dim, 0);
    bits::threshold(zeros, tie, out);
    EXPECT_EQ(out, tie) << "variant " << GetParam() << " d=" << dim;
    std::vector<std::uint64_t> ones(tie.size(), ~0ULL);
    ones.back() &= bits::tail_mask(dim);
    bits::threshold(zeros, ones, out);
    EXPECT_EQ(out, ones) << "variant " << GetParam() << " d=" << dim;
  }
}

// ---------------------------------------------------------------------------
// majority: the one-pass bundle must equal accumulate(+1 per input) then
// threshold from the scalar reference, for every input shape it reads.

// Every count up to 18 walks count / 2 through each bit pattern of the four
// carry-save planes; 100 and 300 mix the bits of the planes above them.
constexpr std::size_t kMajorityCounts[] = {
    1,  2,  3,  4,  5,  6,  7,  8,  9,   10,  11,   12,   13,   14,   15,
    16, 17, 18, 31, 32, 33, 63, 64, 100, 300, 1022, 1023, 1024, 1025};
constexpr std::uint64_t kCanaryWord = 0xC0FFEE0DDBA11ULL;

/// Reference bundle of materialized input rows: accumulate + threshold of
/// the scalar variant, called directly (no dispatch).
std::vector<std::uint64_t> reference_majority(
    const std::vector<std::vector<std::uint64_t>>& inputs,
    const std::vector<std::uint64_t>& tie, std::size_t dim) {
  const bits::Kernels& reference = bits::scalar_kernels();
  std::vector<std::int32_t> counters(dim, 0);
  for (const auto& row : inputs) {
    reference.accumulate(counters.data(), row.data(), dim, 1);
  }
  std::vector<std::uint64_t> out(tie.size(), 0);
  reference.threshold(counters.data(), tie.data(), out.data(), dim);
  return out;
}

/// The dispatched majority into a row one word longer than the output,
/// whose last word is a canary no variant may write.
std::vector<std::uint64_t> dispatched_majority(
    const bits::MajorityInputs& inputs, const std::vector<std::uint64_t>& tie,
    std::size_t dim) {
  std::vector<std::uint64_t> out(tie.size() + 1, ~0ULL);
  out.back() = kCanaryWord;
  bits::majority(inputs, tie, std::span(out).first(tie.size()), dim);
  EXPECT_EQ(out.back(), kCanaryWord) << "d=" << dim;
  out.pop_back();
  return out;
}

std::vector<const std::uint64_t*> row_pointers(
    const std::vector<std::vector<std::uint64_t>>& rows) {
  std::vector<const std::uint64_t*> pointers;
  for (const auto& row : rows) {
    pointers.push_back(row.data());
  }
  return pointers;
}

TEST_P(KernelVariantTest, MajorityOfRowsMatchesAccumulateThreshold) {
  for (const std::size_t dim : kDims) {
    Rng rng(dim * 29 + 8);
    const auto tie = random_words(dim, rng);
    std::vector<std::vector<std::uint64_t>> rows;
    for (const std::size_t count : kMajorityCounts) {
      while (rows.size() < count) {
        rows.push_back(random_words(dim, rng));
      }
      const std::vector<std::vector<std::uint64_t>> used(
          rows.begin(), rows.begin() + static_cast<std::ptrdiff_t>(count));
      const auto pointers = row_pointers(used);
      bits::MajorityInputs inputs;
      inputs.rows = pointers.data();
      inputs.count = count;
      const auto out = dispatched_majority(inputs, tie, dim);
      EXPECT_EQ(out, reference_majority(used, tie, dim))
          << "variant " << GetParam() << " d=" << dim << " n=" << count;
      EXPECT_EQ(out.back() & ~bits::tail_mask(dim), 0U)
          << "variant " << GetParam() << " d=" << dim << " n=" << count;
    }
  }
}

TEST_P(KernelVariantTest, MajorityTakesTieBitsAtEvenCounts) {
  for (const std::size_t dim : kDims) {
    Rng rng(dim * 31 + 9);
    // Rows paired with their complements tie at every bit, so the output
    // is the tie row itself; one more row breaks every tie its way.  A tie
    // row with every bit set, past the dimension too, still leaves the
    // output's tail clear.
    const std::vector<std::uint64_t> all_set(bits::words_for(dim), ~0ULL);
    std::vector<std::uint64_t> ones(all_set);
    ones.back() &= bits::tail_mask(dim);
    for (const std::size_t pairs : {1, 9, 512}) {
      std::vector<std::vector<std::uint64_t>> rows;
      for (std::size_t p = 0; p < pairs; ++p) {
        auto row = random_words(dim, rng);
        auto flipped = row;
        for (std::size_t w = 0; w < flipped.size(); ++w) {
          flipped[w] = ~flipped[w] & (w + 1 == flipped.size()
                                          ? bits::tail_mask(dim)
                                          : ~0ULL);
        }
        rows.push_back(std::move(row));
        rows.push_back(std::move(flipped));
      }
      const auto tie = random_words(dim, rng);
      auto pointers = row_pointers(rows);
      bits::MajorityInputs inputs;
      inputs.rows = pointers.data();
      inputs.count = rows.size();
      EXPECT_EQ(dispatched_majority(inputs, tie, dim), tie)
          << "variant " << GetParam() << " d=" << dim << " pairs=" << pairs;
      EXPECT_EQ(dispatched_majority(inputs, all_set, dim), ones)
          << "variant " << GetParam() << " d=" << dim << " pairs=" << pairs;
      // No inputs at all: every bit ties, the tail bits included.
      inputs.count = 0;
      EXPECT_EQ(dispatched_majority(inputs, all_set, dim), ones)
          << "variant " << GetParam() << " d=" << dim << " n=0";
      inputs.count = rows.size();
      const auto extra = random_words(dim, rng);
      pointers.push_back(extra.data());
      inputs.rows = pointers.data();
      inputs.count = pointers.size();
      EXPECT_EQ(dispatched_majority(inputs, tie, dim), extra)
          << "variant " << GetParam() << " d=" << dim << " pairs=" << pairs;
    }
  }
}

TEST_P(KernelVariantTest, MajorityHandComputedOverlap) {
  // x1 sets bits 0..15, x2 bits 8..23, x3 bits 12..27 of a 32-bit row.
  const std::vector<std::uint64_t> x1 = {0x0000FFFFULL};
  const std::vector<std::uint64_t> x2 = {0x00FFFF00ULL};
  const std::vector<std::uint64_t> x3 = {0x0FFFF000ULL};
  const std::vector<std::uint64_t> tie = {0x55555555ULL};
  const std::uint64_t* rows[] = {x1.data(), x2.data(), x3.data()};
  bits::MajorityInputs inputs;
  inputs.rows = rows;
  // Two rows: bits 8..15 are set twice (kept), 0..7 and 16..23 once (a
  // tie: the tie row's even bits), 24..31 never (clear).
  inputs.count = 2;
  EXPECT_EQ(dispatched_majority(inputs, tie, 32),
            std::vector<std::uint64_t>{0x0055FF55ULL})
      << "variant " << GetParam();
  // Three rows: bits 8..23 are set at least twice; 0..7 and 24..27 once.
  inputs.count = 3;
  EXPECT_EQ(dispatched_majority(inputs, tie, 32),
            std::vector<std::uint64_t>{0x00FFFF00ULL})
      << "variant " << GetParam();
  // No rows at all: every bit is a tie.
  inputs.count = 0;
  EXPECT_EQ(dispatched_majority(inputs, tie, 32), tie)
      << "variant " << GetParam();
}

TEST_P(KernelVariantTest, MajorityFusesBoundPairs) {
  for (const std::size_t dim : kDims) {
    Rng rng(dim * 37 + 10);
    const auto tie = random_words(dim, rng);
    for (const std::size_t count : {1, 2, 18, 64, 1025}) {
      std::vector<std::vector<std::uint64_t>> rows;
      std::vector<std::vector<std::uint64_t>> bound;
      for (std::size_t i = 0; i < count; ++i) {
        rows.push_back(random_words(dim, rng));
        rows.push_back(random_words(dim, rng));
        std::vector<std::uint64_t> pair(rows[2 * i].size());
        for (std::size_t w = 0; w < pair.size(); ++w) {
          pair[w] = rows[2 * i][w] ^ rows[2 * i + 1][w];
        }
        bound.push_back(std::move(pair));
      }
      const auto pointers = row_pointers(rows);
      bits::MajorityInputs inputs;
      inputs.rows = pointers.data();
      inputs.count = count;
      inputs.terms = 2;
      EXPECT_EQ(dispatched_majority(inputs, tie, dim),
                reference_majority(bound, tie, dim))
          << "variant " << GetParam() << " d=" << dim << " n=" << count;
    }
  }
}

TEST_P(KernelVariantTest, MajorityBuildsRotatedWindows) {
  for (const std::size_t dim : kDims) {
    Rng rng(dim * 41 + 11);
    const auto tie = random_words(dim, rng);
    // A 7-row symbol table addressed by byte codes, as the n-gram encoder
    // does with its 256 symbol rows.
    std::vector<std::vector<std::uint64_t>> table;
    for (int s = 0; s < 7; ++s) {
      table.push_back(random_words(dim, rng));
    }
    const auto pointers = row_pointers(table);
    for (const std::size_t terms : {1, 2, 3, 64, 65, 70}) {
      for (const std::size_t count : {1, 18, 1024}) {
        std::vector<unsigned char> codes(count + terms - 1);
        for (auto& code : codes) {
          code = static_cast<unsigned char>(rng() % table.size());
        }
        std::vector<std::vector<std::uint64_t>> windows;
        std::vector<std::uint64_t> rotated(tie.size());
        for (std::size_t i = 0; i < count; ++i) {
          std::vector<std::uint64_t> window = table[codes[i]];
          for (std::size_t t = 1; t < terms; ++t) {
            bits::rotate_left(table[codes[i + t]], rotated, dim, t);
            for (std::size_t w = 0; w < window.size(); ++w) {
              window[w] ^= rotated[w];
            }
          }
          windows.push_back(std::move(window));
        }
        bits::MajorityInputs inputs;
        inputs.rows = pointers.data();
        inputs.codes = codes.data();
        inputs.count = count;
        inputs.terms = terms;
        EXPECT_EQ(dispatched_majority(inputs, tie, dim),
                  reference_majority(windows, tie, dim))
            << "variant " << GetParam() << " d=" << dim << " n=" << count
            << " terms=" << terms;
      }
    }
  }
}

TEST_P(KernelVariantTest, MajorityRotatesByPosition) {
  for (const std::size_t dim : kDims) {
    Rng rng(dim * 43 + 12);
    const auto tie = random_words(dim, rng);
    // A 7-row symbol table: a word addresses it through byte codes, as the
    // sequence encoder reads one; a token sequence passes its rows.
    std::vector<std::vector<std::uint64_t>> table;
    for (int s = 0; s < 7; ++s) {
      table.push_back(random_words(dim, rng));
    }
    const auto pointers = row_pointers(table);
    // Input i rotates by i + 1: 63..65 and 130 past one and two words,
    // 1025 past every small dimension.
    for (const std::size_t count : {1, 2, 18, 63, 64, 65, 130, 1025}) {
      std::vector<unsigned char> codes(count);
      for (auto& code : codes) {
        code = static_cast<unsigned char>(rng() % table.size());
      }
      std::vector<std::vector<std::uint64_t>> rotated;
      std::vector<const std::uint64_t*> rows;
      for (std::size_t i = 0; i < count; ++i) {
        std::vector<std::uint64_t> row(tie.size());
        bits::rotate_left(table[codes[i]], row, dim, i + 1);
        rotated.push_back(std::move(row));
        rows.push_back(pointers[codes[i]]);
      }
      const auto expected = reference_majority(rotated, tie, dim);
      bits::MajorityInputs inputs;
      inputs.rows = pointers.data();
      inputs.codes = codes.data();
      inputs.count = count;
      inputs.terms = 3;  // ignored by the positional shape
      inputs.positional = true;
      EXPECT_EQ(dispatched_majority(inputs, tie, dim), expected)
          << "variant " << GetParam() << " d=" << dim << " n=" << count
          << " codes";
      inputs.rows = rows.data();
      inputs.codes = nullptr;
      EXPECT_EQ(dispatched_majority(inputs, tie, dim), expected)
          << "variant " << GetParam() << " d=" << dim << " n=" << count
          << " rows";
    }
  }
}

std::vector<std::string> available_variant_names() {
  std::vector<std::string> names;
  for (const bits::Kernels* variant : bits::available_kernels()) {
    names.emplace_back(variant->name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    Variants, KernelVariantTest,
    ::testing::ValuesIn(available_variant_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
