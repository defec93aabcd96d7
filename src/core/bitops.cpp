// Shift and rotate over bit-packed vectors.  The fused XOR+popcount
// kernels that used to live here are now runtime-dispatched per-ISA
// variants — see bitops_scalar.cpp / bitops_avx2.cpp / bitops_avx512.cpp /
// bitops_neon.cpp and the dispatcher in kernels.cpp.

#include "hdc/core/bitops.hpp"

#include <algorithm>

namespace hdc::bits {

void shift_left(std::span<const std::uint64_t> in, std::span<std::uint64_t> out,
                std::size_t bit_count, std::size_t shift) noexcept {
  const std::size_t n = out.size();
  if (shift >= bit_count) {
    std::fill(out.begin(), out.end(), 0ULL);
    return;
  }
  const std::size_t word_shift = shift / word_bits;
  const std::size_t bit_shift = shift % word_bits;
  // Walk from the top so the routine would also be safe if in == out;
  // the public contract still forbids aliasing to keep reasoning simple.
  for (std::size_t w = n; w-- > 0;) {
    std::uint64_t value = 0;
    if (w >= word_shift) {
      value = in[w - word_shift] << bit_shift;
      if (bit_shift != 0 && w > word_shift) {
        value |= in[w - word_shift - 1] >> (word_bits - bit_shift);
      }
    }
    out[w] = value;
  }
  if (n > 0) {
    out[n - 1] &= tail_mask(bit_count);
  }
}

namespace {

/// Word \p w of `in >> shift`, before tail masking: shift_right and the
/// wrap-around half of rotate_left both read it.
std::uint64_t shifted_right_word(std::span<const std::uint64_t> in,
                                 std::size_t w, std::size_t word_shift,
                                 std::size_t bit_shift) noexcept {
  const std::size_t n = in.size();
  if (w + word_shift >= n) {
    return 0;
  }
  std::uint64_t value = in[w + word_shift] >> bit_shift;
  if (bit_shift != 0 && w + word_shift + 1 < n) {
    value |= in[w + word_shift + 1] << (word_bits - bit_shift);
  }
  return value;
}

}  // namespace

void shift_right(std::span<const std::uint64_t> in, std::span<std::uint64_t> out,
                 std::size_t bit_count, std::size_t shift) noexcept {
  const std::size_t n = out.size();
  if (shift >= bit_count) {
    std::fill(out.begin(), out.end(), 0ULL);
    return;
  }
  for (std::size_t w = 0; w < n; ++w) {
    out[w] = shifted_right_word(in, w, shift / word_bits, shift % word_bits);
  }
  if (n > 0) {
    out[n - 1] &= tail_mask(bit_count);
  }
}

void rotate_left(std::span<const std::uint64_t> in, std::span<std::uint64_t> out,
                 std::size_t bit_count, std::size_t shift) noexcept {
  if (bit_count == 0) {
    return;
  }
  const std::size_t s = shift % bit_count;
  if (s == 0) {
    std::copy(in.begin(), in.end(), out.begin());
    return;
  }
  // rot(x, s) = (x << s) | (x >> (d - s)) over d-bit vectors; the right
  // shift is ORed in word by word, so no scratch row is needed.
  shift_left(in, out, bit_count, s);
  const std::size_t wrap = bit_count - s;
  for (std::size_t w = 0; w < out.size(); ++w) {
    out[w] |= shifted_right_word(in, w, wrap / word_bits, wrap % word_bits);
  }
  out[out.size() - 1] &= tail_mask(bit_count);
}

}  // namespace hdc::bits
