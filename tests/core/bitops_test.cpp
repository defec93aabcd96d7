// Unit and property tests for the word-level bit primitives, cross-checked
// against naive per-bit reference implementations.

#include "hdc/core/bitops.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "hdc/base/rng.hpp"

namespace {

using hdc::Rng;
namespace bits = hdc::bits;

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

std::vector<bool> unpack(const std::vector<std::uint64_t>& words,
                         std::size_t bit_count) {
  std::vector<bool> out(bit_count);
  for (std::size_t i = 0; i < bit_count; ++i) {
    out[i] = bits::get_bit(words, i);
  }
  return out;
}

TEST(BitopsTest, WordsForCoversPartialWords) {
  EXPECT_EQ(bits::words_for(0), 0U);
  EXPECT_EQ(bits::words_for(1), 1U);
  EXPECT_EQ(bits::words_for(64), 1U);
  EXPECT_EQ(bits::words_for(65), 2U);
  EXPECT_EQ(bits::words_for(10'000), 157U);
}

TEST(BitopsTest, TailMaskSelectsValidBits) {
  EXPECT_EQ(bits::tail_mask(64), ~std::uint64_t{0});
  EXPECT_EQ(bits::tail_mask(128), ~std::uint64_t{0});
  EXPECT_EQ(bits::tail_mask(1), 1ULL);
  EXPECT_EQ(bits::tail_mask(3), 7ULL);
  EXPECT_EQ(bits::tail_mask(10'000), (1ULL << (10'000 % 64)) - 1);
}

TEST(BitopsTest, SetGetFlipRoundTrip) {
  std::vector<std::uint64_t> words(3, 0);
  bits::set_bit(words, 0, true);
  bits::set_bit(words, 64, true);
  bits::set_bit(words, 191, true);
  EXPECT_TRUE(bits::get_bit(words, 0));
  EXPECT_TRUE(bits::get_bit(words, 64));
  EXPECT_TRUE(bits::get_bit(words, 191));
  EXPECT_FALSE(bits::get_bit(words, 1));
  bits::flip_bit(words, 64);
  EXPECT_FALSE(bits::get_bit(words, 64));
  EXPECT_EQ(bits::count_ones(words), 2U);
}

TEST(BitopsTest, HammingMatchesXorPopcount) {
  Rng rng(1);
  const auto a = random_words(300, rng);
  const auto b = random_words(300, rng);
  std::size_t expected = 0;
  for (std::size_t i = 0; i < 300; ++i) {
    expected += bits::get_bit(a, i) != bits::get_bit(b, i) ? 1U : 0U;
  }
  EXPECT_EQ(bits::hamming(a, b), expected);
}

struct ShiftCase {
  std::size_t bit_count;
  std::size_t shift;
};

// Names the case in test listings instead of gtest's raw byte dump.
void PrintTo(const ShiftCase& c, std::ostream* os) {
  *os << "bits" << c.bit_count << "_shift" << c.shift;
}

class ShiftParamTest : public ::testing::TestWithParam<ShiftCase> {};

TEST_P(ShiftParamTest, ShiftLeftMatchesNaive) {
  const auto [bit_count, shift] = GetParam();
  Rng rng(bit_count * 31 + shift);
  const auto in = random_words(bit_count, rng);
  std::vector<std::uint64_t> out(in.size());
  bits::shift_left(in, out, bit_count, shift);
  const auto input_bits = unpack(in, bit_count);
  const auto output_bits = unpack(out, bit_count);
  for (std::size_t i = 0; i < bit_count; ++i) {
    const bool expected = i >= shift ? input_bits[i - shift] : false;
    EXPECT_EQ(output_bits[i], expected) << "bit " << i;
  }
  // Tail invariant.
  if (!out.empty()) {
    EXPECT_EQ(out.back() & ~bits::tail_mask(bit_count), 0U);
  }
}

TEST_P(ShiftParamTest, ShiftRightMatchesNaive) {
  const auto [bit_count, shift] = GetParam();
  Rng rng(bit_count * 37 + shift);
  const auto in = random_words(bit_count, rng);
  std::vector<std::uint64_t> out(in.size());
  bits::shift_right(in, out, bit_count, shift);
  const auto input_bits = unpack(in, bit_count);
  const auto output_bits = unpack(out, bit_count);
  for (std::size_t i = 0; i < bit_count; ++i) {
    const bool expected =
        i + shift < bit_count ? input_bits[i + shift] : false;
    EXPECT_EQ(output_bits[i], expected) << "bit " << i;
  }
}

TEST_P(ShiftParamTest, RotateLeftMatchesNaive) {
  const auto [bit_count, shift] = GetParam();
  Rng rng(bit_count * 41 + shift);
  const auto in = random_words(bit_count, rng);
  std::vector<std::uint64_t> out(in.size());
  bits::rotate_left(in, out, bit_count, shift);
  const auto input_bits = unpack(in, bit_count);
  const auto output_bits = unpack(out, bit_count);
  const std::size_t s = shift % bit_count;
  for (std::size_t i = 0; i < bit_count; ++i) {
    const bool expected = input_bits[(i + bit_count - s) % bit_count];
    EXPECT_EQ(output_bits[i], expected) << "bit " << i;
  }
  // Rotation preserves the population count.
  EXPECT_EQ(bits::count_ones(out), bits::count_ones(in));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShiftParamTest,
    ::testing::Values(ShiftCase{1, 0}, ShiftCase{1, 1}, ShiftCase{63, 17},
                      ShiftCase{64, 1}, ShiftCase{64, 63}, ShiftCase{65, 64},
                      ShiftCase{100, 37}, ShiftCase{128, 64},
                      ShiftCase{129, 128}, ShiftCase{1000, 999},
                      ShiftCase{10'000, 1}, ShiftCase{10'000, 64},
                      ShiftCase{10'000, 6'000}, ShiftCase{10'000, 9'999}));

TEST(BitopsTest, ShiftBeyondLengthIsZero) {
  Rng rng(5);
  const auto in = random_words(100, rng);
  std::vector<std::uint64_t> out(in.size(), ~0ULL);
  bits::shift_left(in, out, 100, 100);
  for (const auto w : out) {
    EXPECT_EQ(w, 0U);
  }
  bits::shift_right(in, out, 100, 2'000);
  for (const auto w : out) {
    EXPECT_EQ(w, 0U);
  }
}

TEST(BitopsTest, RotateByZeroAndByLengthIsIdentity) {
  Rng rng(6);
  const auto in = random_words(777, rng);
  std::vector<std::uint64_t> out(in.size());
  bits::rotate_left(in, out, 777, 0);
  EXPECT_EQ(out, in);
  bits::rotate_left(in, out, 777, 777);
  EXPECT_EQ(out, in);
}

}  // namespace
