// Scalar kernel variant: portable 4-way-unrolled XOR+popcount, plus the
// portable bundling loops and one-word majority shared through
// kernel_detail.hpp.
//
// This TU is the always-correct fallback and the bit-exactness reference
// every SIMD variant is property-tested against
// (tests/core/kernel_dispatch_test.cpp).  The build may compile it with
// -mpopcnt (HDC_KERNEL_POPCNT, ~2x on query sweeps) — that changes the
// instruction used for std::popcount, never the results.

#include <bit>

#include "kernel_detail.hpp"

namespace hdc::bits::detail {

namespace {

std::size_t scalar_hamming(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n) noexcept {
  // Four independent accumulators keep the popcount chains out of each
  // other's dependency shadow, so the compiler can issue them in parallel.
  std::size_t c0 = 0;
  std::size_t c1 = 0;
  std::size_t c2 = 0;
  std::size_t c3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
    c1 += static_cast<std::size_t>(std::popcount(a[i + 1] ^ b[i + 1]));
    c2 += static_cast<std::size_t>(std::popcount(a[i + 2] ^ b[i + 2]));
    c3 += static_cast<std::size_t>(std::popcount(a[i + 3] ^ b[i + 3]));
  }
  for (; i < n; ++i) {
    c0 += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  }
  return c0 + c1 + c2 + c3;
}

NearestMatch scalar_nearest(const std::uint64_t* query, std::size_t words,
                            const std::uint64_t* arena, std::size_t stride,
                            std::size_t count) noexcept {
  return nearest_rows(scalar_hamming, query, words, arena, stride, count);
}

void scalar_hamming_many(const std::uint64_t* query, std::size_t words,
                         const std::uint64_t* arena, std::size_t stride,
                         std::size_t count, std::size_t* out) noexcept {
  hamming_rows(scalar_hamming, query, words, arena, stride, count, out);
}

std::size_t scalar_count_ones(const std::uint64_t* words,
                              std::size_t n) noexcept {
  std::size_t c0 = 0;
  std::size_t c1 = 0;
  std::size_t c2 = 0;
  std::size_t c3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += static_cast<std::size_t>(std::popcount(words[i]));
    c1 += static_cast<std::size_t>(std::popcount(words[i + 1]));
    c2 += static_cast<std::size_t>(std::popcount(words[i + 2]));
    c3 += static_cast<std::size_t>(std::popcount(words[i + 3]));
  }
  for (; i < n; ++i) {
    c0 += static_cast<std::size_t>(std::popcount(words[i]));
  }
  return c0 + c1 + c2 + c3;
}

void scalar_xor_rows(std::uint64_t* dst, const std::uint64_t* a,
                     const std::uint64_t* b, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = a[i] ^ b[i];
  }
}

constexpr Kernels kScalarKernels = {
    .name = "scalar",
    .supported = cpu_always,
    .hamming = scalar_hamming,
    .nearest_hamming = scalar_nearest,
    .hamming_many = scalar_hamming_many,
    .count_ones = scalar_count_ones,
    .xor_rows = scalar_xor_rows,
    .accumulate = portable_accumulate,
    .threshold = portable_threshold,
    .majority = portable_majority,
};

}  // namespace

const Kernels* scalar_variant() noexcept { return &kScalarKernels; }

}  // namespace hdc::bits::detail
