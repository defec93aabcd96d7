// Tests for the position-aware sequence encoder and the n-gram text encoder
// (Section 3.1).

#include "hdc/core/sequence_encoder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hdc/base/rng.hpp"
#include "hdc/core/accumulator.hpp"
#include "hdc/core/item_memory.hpp"
#include "hdc/core/kernels.hpp"
#include "hdc/core/ops.hpp"

namespace {

using hdc::ItemMemory;
using hdc::NGramEncoder;
using hdc::SequenceEncoder;

/// Seeded random bytes, every value 0..255 possible.
std::string random_bytes(std::size_t length, std::uint64_t seed) {
  hdc::Rng rng(seed);
  std::string bytes(length, '\0');
  for (char& c : bytes) {
    c = static_cast<char>(rng() & 0xFFU);
  }
  return bytes;
}

TEST(SequenceEncoderTest, ValidatesArguments) {
  EXPECT_THROW(SequenceEncoder(0, 1), std::invalid_argument);
  SequenceEncoder enc(128, 1);
  const std::vector<std::string_view> empty;
  EXPECT_THROW((void)enc.encode(empty), std::invalid_argument);
  EXPECT_THROW((void)enc.encode_word(""), std::invalid_argument);
}

TEST(SequenceEncoderTest, EncodingIsDeterministic) {
  SequenceEncoder a(4'096, 11);
  SequenceEncoder b(4'096, 11);
  EXPECT_EQ(a.encode_word("gesture"), b.encode_word("gesture"));
}

TEST(SequenceEncoderTest, OrderMatters) {
  SequenceEncoder enc(10'000, 12);
  const auto abc = enc.encode_word("abc");
  const auto acb = enc.encode_word("acb");
  // Swapping two letters moves 2 of 3 bundled items: far in hyperspace.
  EXPECT_GT(hdc::normalized_distance(abc, acb), 0.25);
}

TEST(SequenceEncoderTest, SharedTokensPreserveSimilarity) {
  SequenceEncoder enc(10'000, 13);
  const auto word = enc.encode_word("surgeons");
  const auto near = enc.encode_word("surgeonz");  // one letter differs
  const auto far = enc.encode_word("telemetry");
  EXPECT_LT(hdc::normalized_distance(word, near),
            hdc::normalized_distance(word, far));
  EXPECT_LT(hdc::normalized_distance(word, near), 0.3);
}

TEST(SequenceEncoderTest, WordEncodingMatchesTokenEncoding) {
  // encode_word reads the byte table and encode() the item memory, so
  // equal codes mean both derive the same row for every byte.
  SequenceEncoder enc(2'048, 14);
  const std::vector<std::string_view> tokens{"c", "a", "t"};
  EXPECT_EQ(enc.encode(tokens), enc.encode_word("cat"));
  for (unsigned b = 0; b < 256; ++b) {
    const char byte = static_cast<char>(b);
    const std::string_view symbol(&byte, 1);
    const std::vector<std::string_view> one{symbol};
    EXPECT_EQ(enc.encode(one), enc.encode_word(symbol)) << "byte " << b;
  }
}

TEST(SequenceEncoderTest, CopyOutlivesItsOriginal) {
  auto original = std::make_unique<SequenceEncoder>(1'000, 15);
  const hdc::Hypervector expected = original->encode_word("surgeons");
  const SequenceEncoder copy = *original;
  original.reset();
  EXPECT_EQ(copy.encode_word("surgeons"), expected);
}

/// The sequence bundle built the long way: every symbol drawn from an
/// independent ItemMemory of the encoder's seed, rotated with permute()
/// and counted in a BundleAccumulator — the oracle the positional majority
/// shape must reproduce bit for bit.
hdc::Hypervector reference_sequence(
    const SequenceEncoder& enc, std::span<const std::string_view> tokens) {
  ItemMemory items(enc.dimension(), enc.seed());
  hdc::BundleAccumulator acc(enc.dimension());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    acc.add(hdc::permute(items.get(tokens[i]), i + 1));
  }
  return acc.finalize(enc.tie_breaker());
}

TEST(SequenceEncoderTest, MatchesAccumulatorOracleForEveryKernel) {
  // Lengths 63..65 and 1,024..1,100 rotate symbols past one word, and past
  // the dimension at d <= 1,100; 1,100 inputs also count past 1,023 (an
  // eleventh counter plane).
  constexpr std::size_t kLengths[] = {1, 2, 3, 16, 63, 64, 65, 1'024, 1'100};
  constexpr std::size_t kDims[] = {1, 63, 64, 65, 127, 10'000, 10'240};
  const std::string bytes = random_bytes(1'102, 0x736571);
  const std::string previous = hdc::bits::active_kernels().name;
  for (const std::size_t dim : kDims) {
    const SequenceEncoder enc(dim, 26 + dim);
    // A token sequence of one- to three-byte tokens, some repeated.
    std::vector<std::string_view> tokens;
    for (std::size_t i = 0; i < 1'100; ++i) {
      tokens.push_back(std::string_view(bytes).substr(i, 1 + i % 3));
    }
    for (const std::size_t length : kLengths) {
      const std::string_view word(bytes.data(), length);
      std::vector<std::string_view> symbols;
      for (std::size_t i = 0; i < length; ++i) {
        symbols.push_back(word.substr(i, 1));
      }
      const hdc::Hypervector word_expected = reference_sequence(enc, symbols);
      const std::span<const std::string_view> prefix(tokens.data(), length);
      const hdc::Hypervector tokens_expected = reference_sequence(enc, prefix);
      for (const hdc::bits::Kernels* variant :
           hdc::bits::available_kernels()) {
        hdc::bits::select_kernels(variant->name);
        EXPECT_EQ(enc.encode_word(word), word_expected)
            << variant->name << " d=" << dim << " length=" << length;
        SequenceEncoder trainer(dim, 26 + dim);
        EXPECT_EQ(trainer.encode(prefix), tokens_expected)
            << variant->name << " d=" << dim << " length=" << length;
      }
    }
  }
  hdc::bits::select_kernels(previous);
}

TEST(NGramEncoderTest, ValidatesArguments) {
  EXPECT_THROW(NGramEncoder(0, 3, 1), std::invalid_argument);
  EXPECT_THROW(NGramEncoder(128, 0, 1), std::invalid_argument);
  NGramEncoder enc(128, 3, 1);
  EXPECT_THROW((void)enc.encode(""), std::invalid_argument);
}

TEST(NGramEncoderTest, DeterministicGivenSeed) {
  NGramEncoder a(4'096, 3, 21);
  NGramEncoder b(4'096, 3, 21);
  EXPECT_EQ(a.encode("hyperdimensional"), b.encode("hyperdimensional"));
}

TEST(NGramEncoderTest, SharedSubstringsIncreaseSimilarity) {
  NGramEncoder enc(10'000, 3, 22);
  const auto base = enc.encode("the quick brown fox");
  const auto related = enc.encode("the quick brown cat");
  const auto unrelated = enc.encode("zxqj vwpk mlrt ghnd");
  EXPECT_LT(hdc::normalized_distance(base, related),
            hdc::normalized_distance(base, unrelated));
}

TEST(NGramEncoderTest, ShortTextsUsePartialWindow) {
  NGramEncoder enc(1'024, 5, 23);
  // Shorter than n: encoded as a single partial gram, must not throw.
  const auto hv = enc.encode("ab");
  EXPECT_EQ(hv.dimension(), 1'024U);
}

TEST(NGramEncoderTest, AnagramsDiffer) {
  // Binding with positional permutation distinguishes "abc" from "cba"
  // within each window.
  NGramEncoder enc(10'000, 3, 24);
  EXPECT_GT(hdc::normalized_distance(enc.encode("abc"), enc.encode("cba")),
            0.3);
}

TEST(NGramEncoderTest, CopyOutlivesItsOriginal) {
  auto original = std::make_unique<NGramEncoder>(1'000, 3, 27);
  const hdc::Hypervector expected = original->encode("the quick brown fox");
  const NGramEncoder copy = *original;
  original.reset();
  EXPECT_EQ(copy.encode("the quick brown fox"), expected);
}

/// The n-gram bundle built the long way: every symbol drawn from an
/// independent ItemMemory of the encoder's seed, every window materialized
/// with permute() and bind(), then counted in a BundleAccumulator — the
/// oracle the one-pass majority kernel must reproduce bit for bit.
hdc::Hypervector reference_ngrams(const NGramEncoder& enc,
                                  std::string_view text) {
  ItemMemory items(enc.dimension(), enc.seed());
  const auto symbol = [&](std::size_t at) -> const hdc::Hypervector& {
    return items.get(text.substr(at, 1));
  };
  const std::size_t window = std::min(enc.n(), text.size());
  hdc::BundleAccumulator acc(enc.dimension());
  for (std::size_t start = 0; start + window <= text.size(); ++start) {
    hdc::Hypervector gram = symbol(start);
    for (std::size_t k = 1; k < window; ++k) {
      gram = hdc::bind(gram, hdc::permute(symbol(start + k), k));
    }
    acc.add(gram);
  }
  return acc.finalize(enc.tie_breaker());
}

TEST(NGramEncoderTest, MatchesAccumulatorOracleForEveryKernel) {
  // Lengths 1..3 cover partial and single windows, 42 the mean text row,
  // 1,024 the longest served row and 1,100 counts past 1,023 windows (an
  // eleventh counter plane); gram 70 rotates terms past one word.
  constexpr std::size_t kLengths[] = {1, 2, 3, 42, 1'024, 1'100};
  const std::string bytes = random_bytes(1'100, 0x6E6772);
  const std::string previous = hdc::bits::active_kernels().name;
  for (const std::size_t gram : {1, 3, 70}) {
    const NGramEncoder enc(10'000, gram, 25 + gram);
    for (const std::size_t length : kLengths) {
      const std::string_view text(bytes.data(), length);
      const hdc::Hypervector expected = reference_ngrams(enc, text);
      for (const hdc::bits::Kernels* variant :
           hdc::bits::available_kernels()) {
        hdc::bits::select_kernels(variant->name);
        EXPECT_EQ(enc.encode(text), expected)
            << variant->name << " n=" << gram << " length=" << length;
      }
    }
  }
  hdc::bits::select_kernels(previous);
}

}  // namespace
