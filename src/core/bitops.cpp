// Shift and rotate over bit-packed vectors.  The fused XOR+popcount
// kernels that used to live here are now runtime-dispatched per-ISA
// variants — see bitops_scalar.cpp / bitops_avx2.cpp / bitops_avx512.cpp /
// bitops_neon.cpp and the dispatcher in kernels.cpp.  The per-word shift
// helpers are the ones the majority kernel builds rotated n-gram terms
// with (kernel_detail.hpp), so both rotate one way.

#include "hdc/core/bitops.hpp"

#include <algorithm>

#include "kernel_detail.hpp"

namespace hdc::bits {

void shift_left(std::span<const std::uint64_t> in, std::span<std::uint64_t> out,
                std::size_t bit_count, std::size_t shift) noexcept {
  const std::size_t n = out.size();
  if (shift >= bit_count) {
    std::fill(out.begin(), out.end(), 0ULL);
    return;
  }
  // Walk from the top so the routine would also be safe if in == out;
  // the public contract still forbids aliasing to keep reasoning simple.
  for (std::size_t w = n; w-- > 0;) {
    out[w] = detail::shifted_left_word(in.data(), w, shift);
  }
  if (n > 0) {
    out[n - 1] &= tail_mask(bit_count);
  }
}

void shift_right(std::span<const std::uint64_t> in, std::span<std::uint64_t> out,
                 std::size_t bit_count, std::size_t shift) noexcept {
  const std::size_t n = out.size();
  if (shift >= bit_count) {
    std::fill(out.begin(), out.end(), 0ULL);
    return;
  }
  for (std::size_t w = 0; w < n; ++w) {
    out[w] = detail::shifted_right_word(in.data(), in.size(), w, shift);
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
  // rot(x, s) = (x << s) | (x >> (d - s)) over d-bit vectors, word by
  // word, so no scratch row is needed.
  const std::size_t s = shift % bit_count;
  for (std::size_t w = 0; w < out.size(); ++w) {
    out[w] = detail::rotated_word(in.data(), bit_count, w, s);
  }
  out[out.size() - 1] &= tail_mask(bit_count);
}

}  // namespace hdc::bits
