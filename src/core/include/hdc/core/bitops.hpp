#ifndef HDC_CORE_BITOPS_HPP
#define HDC_CORE_BITOPS_HPP

/// \file bitops.hpp
/// \brief Word-level primitives for bit-packed binary hypervectors.
///
/// Hypervectors are stored little-endian in 64-bit words: bit i of the vector
/// is bit (i % 64) of word (i / 64).  A dimension d that is not a multiple of
/// 64 leaves unused high bits in the last word; every routine here preserves
/// the invariant that those tail bits are zero, so popcount-based distances
/// and equality work on whole words.
///
/// The word kernels (hamming / nearest_hamming / hamming_many / count_ones
/// / xor_rows / accumulate / threshold / majority) are
/// *dispatched*: each span function below is a thin shim over the
/// process-wide `Kernels` table
/// selected at startup from the compiled-in scalar / AVX2 / AVX-512 / NEON
/// variants (hdc/core/kernels.hpp, docs/kernels.md).  Every variant is
/// bit-exact with the scalar reference; selection only changes speed.

#include <cstddef>
#include <cstdint>
#include <span>

#include "hdc/core/kernels.hpp"

namespace hdc::bits {

/// Number of bits per storage word.
inline constexpr std::size_t word_bits = 64;

/// Number of words needed to store \p bit_count bits.
[[nodiscard]] constexpr std::size_t words_for(std::size_t bit_count) noexcept {
  return (bit_count + word_bits - 1) / word_bits;
}

/// Mask selecting the valid bits of the last word of a \p bit_count-bit
/// vector.  All-ones when bit_count is a multiple of 64 (and for 0).
[[nodiscard]] constexpr std::uint64_t tail_mask(std::size_t bit_count) noexcept {
  const std::size_t rem = bit_count % word_bits;
  return rem == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << rem) - 1;
}

/// Population count over a word span.
[[nodiscard]] inline std::size_t count_ones(
    std::span<const std::uint64_t> words) noexcept {
  return active_kernels().count_ones(words.data(), words.size());
}

/// Hamming distance (bit count of XOR) between two equal-length word spans.
/// Dispatches to the active kernel variant's fused XOR+popcount sweep.
/// \pre a.size() == b.size().
[[nodiscard]] inline std::size_t hamming(
    std::span<const std::uint64_t> a,
    std::span<const std::uint64_t> b) noexcept {
  return active_kernels().hamming(a.data(), b.data(), a.size());
}

/// Fused nearest-neighbour scan over a contiguous candidate arena: candidate
/// i occupies words [i * stride, i * stride + query.size()).  Replaces
/// per-pair hamming() calls with one XOR+popcount sweep; this is the shared
/// inference kernel behind Basis::nearest, CentroidClassifier::predict and
/// the hdc::runtime batch engines.  Ties keep the lowest index for every
/// kernel variant.
/// \pre stride >= query.size() and arena.size() >= count * stride.
/// \pre count >= 1.
[[nodiscard]] inline NearestMatch nearest_hamming(
    std::span<const std::uint64_t> query, std::span<const std::uint64_t> arena,
    std::size_t stride, std::size_t count) noexcept {
  return active_kernels().nearest_hamming(query.data(), query.size(),
                                          arena.data(), stride, count);
}

/// Hamming distance from \p query to each of \p count candidates laid out as
/// in nearest_hamming; distances are written to out[0..count).
/// \pre out.size() >= count, plus the nearest_hamming layout preconditions.
inline void hamming_many(std::span<const std::uint64_t> query,
                         std::span<const std::uint64_t> arena,
                         std::size_t stride, std::size_t count,
                         std::span<std::size_t> out) noexcept {
  active_kernels().hamming_many(query.data(), query.size(), arena.data(),
                                stride, count, out.data());
}

/// dst = a ^ b, element-wise; the allocation-free binding of two arena rows
/// into a caller-provided scratch row.  \pre all three spans are the same
/// length; dst may alias a or b.
inline void xor_rows(std::span<std::uint64_t> dst,
                     std::span<const std::uint64_t> a,
                     std::span<const std::uint64_t> b) noexcept {
  active_kernels().xor_rows(dst.data(), a.data(), b.data(), dst.size());
}

/// Bundling update of one counter per bit: counters[i] += bit i of words ?
/// +weight : -weight, over i < counters.size() (the dimension).
/// \pre words.size() == words_for(counters.size()), weight != 0 and
/// weight != INT32_MIN.
inline void accumulate(std::span<std::int32_t> counters,
                       std::span<const std::uint64_t> words,
                       std::int32_t weight) noexcept {
  active_kernels().accumulate(counters.data(), words.data(), counters.size(),
                              weight);
}

/// Majority threshold of counters.size() counters into \p out: a bit is
/// set when its counter is positive, takes the tie bit when the counter is
/// zero, and tail bits are written as zero.
/// \pre tie_words.size() == out.size() == words_for(counters.size()).
inline void threshold(std::span<const std::int32_t> counters,
                      std::span<const std::uint64_t> tie_words,
                      std::span<std::uint64_t> out) noexcept {
  active_kernels().threshold(counters.data(), tie_words.data(), out.data(),
                             counters.size());
}

/// One-pass majority bundle of the inputs \p inputs describes (bound pairs,
/// n-gram windows or plain rows; see MajorityInputs) into the
/// \p dim-bit row \p out: a bit is set where more than half the inputs set
/// it, takes the tie bit where exactly half do, and tail bits are written
/// as zero — accumulate(+1 per input) then threshold, without a counter
/// row.  \pre tie_words.size() == out.size() == words_for(dim); out
/// aliases no input row.
inline void majority(const MajorityInputs& inputs,
                     std::span<const std::uint64_t> tie_words,
                     std::span<std::uint64_t> out, std::size_t dim) noexcept {
  active_kernels().majority(&inputs, tie_words.data(), out.data(), dim);
}

/// Reads bit \p index. \pre index < 64 * words.size().
[[nodiscard]] inline bool get_bit(std::span<const std::uint64_t> words,
                                  std::size_t index) noexcept {
  return ((words[index / word_bits] >> (index % word_bits)) & 1U) != 0;
}

/// Writes bit \p index. \pre index < 64 * words.size().
inline void set_bit(std::span<std::uint64_t> words, std::size_t index,
                    bool value) noexcept {
  const std::uint64_t mask = std::uint64_t{1} << (index % word_bits);
  if (value) {
    words[index / word_bits] |= mask;
  } else {
    words[index / word_bits] &= ~mask;
  }
}

/// Toggles bit \p index. \pre index < 64 * words.size().
inline void flip_bit(std::span<std::uint64_t> words, std::size_t index) noexcept {
  words[index / word_bits] ^= std::uint64_t{1} << (index % word_bits);
}

/// Logical left shift of a \p bit_count-bit vector by \p shift bits
/// (bit i of out = bit i - shift of in; vacated low bits are zero).
/// Handles shift >= bit_count by producing all zeros.  Tail bits of the
/// output are masked.  \pre in.size() == out.size() == words_for(bit_count),
/// and in/out must not alias.
void shift_left(std::span<const std::uint64_t> in, std::span<std::uint64_t> out,
                std::size_t bit_count, std::size_t shift) noexcept;

/// Logical right shift (bit i of out = bit i + shift of in).  Same contract
/// as shift_left.
void shift_right(std::span<const std::uint64_t> in, std::span<std::uint64_t> out,
                 std::size_t bit_count, std::size_t shift) noexcept;

/// Cyclic left rotation of a \p bit_count-bit vector by \p shift bits
/// (bit i of out = bit (i - shift) mod bit_count of in).  \p shift is reduced
/// modulo bit_count.  Allocation-free, so encoders can rotate into a
/// reused scratch row.  \pre same as shift_left.
void rotate_left(std::span<const std::uint64_t> in, std::span<std::uint64_t> out,
                 std::size_t bit_count, std::size_t shift) noexcept;

}  // namespace hdc::bits

#endif  // HDC_CORE_BITOPS_HPP
