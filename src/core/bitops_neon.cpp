// NEON kernel variant (AArch64): 128-bit XOR + CNT byte popcount.
//
// AArch64 makes Advanced SIMD mandatory, so no extra compile flags are
// needed and the runtime predicate is a constant — this TU simply compiles
// to the nullptr stub everywhere else.  Per 16-byte vector: VEOR, VCNT
// (per-byte popcount), then UADALP chains fold bytes pairwise into 16-bit
// and 64-bit lane accumulators, reduced once at the end of the row.
// Correctness contract: bit-exact with the scalar variant (property-tested).

#include "kernel_detail.hpp"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include <bit>

namespace hdc::bits::detail {

namespace {

std::size_t neon_hamming(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t n) noexcept {
  uint64x2_t acc = vdupq_n_u64(0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint64x2_t x0 = veorq_u64(vld1q_u64(a + i), vld1q_u64(b + i));
    const uint64x2_t x1 =
        veorq_u64(vld1q_u64(a + i + 2), vld1q_u64(b + i + 2));
    // Per-byte counts (<= 8 each); one pairwise-add-long chain per pair of
    // vectors keeps every intermediate lane far from saturation.
    const uint8x16_t c0 = vcntq_u8(vreinterpretq_u8_u64(x0));
    const uint8x16_t c1 = vcntq_u8(vreinterpretq_u8_u64(x1));
    const uint16x8_t bytes16 = vaddl_u8(vget_low_u8(c0), vget_high_u8(c0));
    const uint16x8_t sum16 =
        vaddq_u16(bytes16, vaddl_u8(vget_low_u8(c1), vget_high_u8(c1)));
    acc = vpadalq_u32(acc, vpaddlq_u16(sum16));
  }
  std::size_t total = static_cast<std::size_t>(vgetq_lane_u64(acc, 0) +
                                               vgetq_lane_u64(acc, 1));
  for (; i < n; ++i) {
    total += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  }
  return total;
}

NearestMatch neon_nearest(const std::uint64_t* query, std::size_t words,
                          const std::uint64_t* arena, std::size_t stride,
                          std::size_t count) noexcept {
  return nearest_rows(neon_hamming, query, words, arena, stride, count);
}

void neon_hamming_many(const std::uint64_t* query, std::size_t words,
                       const std::uint64_t* arena, std::size_t stride,
                       std::size_t count, std::size_t* out) noexcept {
  hamming_rows(neon_hamming, query, words, arena, stride, count, out);
}

std::size_t neon_count_ones(const std::uint64_t* words, std::size_t n) noexcept {
  uint64x2_t acc = vdupq_n_u64(0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint8x16_t counts =
        vcntq_u8(vreinterpretq_u8_u64(vld1q_u64(words + i)));
    acc = vpadalq_u32(acc, vpaddlq_u16(vpaddlq_u8(counts)));
  }
  std::size_t total = static_cast<std::size_t>(vgetq_lane_u64(acc, 0) +
                                               vgetq_lane_u64(acc, 1));
  for (; i < n; ++i) {
    total += static_cast<std::size_t>(std::popcount(words[i]));
  }
  return total;
}

void neon_xor_rows(std::uint64_t* dst, const std::uint64_t* a,
                   const std::uint64_t* b, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, veorq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
  }
  for (; i < n; ++i) {
    dst[i] = a[i] ^ b[i];
  }
}

constexpr Kernels kNeonKernels = {
    .name = "neon",
    .supported = cpu_has_neon,
    .hamming = neon_hamming,
    .nearest_hamming = neon_nearest,
    .hamming_many = neon_hamming_many,
    .count_ones = neon_count_ones,
    .xor_rows = neon_xor_rows,
    // Portable loops until a toolchain can test vector NEON bundling.
    .accumulate = portable_accumulate,
    .threshold = portable_threshold,
    .majority = portable_majority,
};

}  // namespace

const Kernels* neon_variant() noexcept { return &kNeonKernels; }

}  // namespace hdc::bits::detail

#else  // !(__aarch64__ && __ARM_NEON)

namespace hdc::bits::detail {

const Kernels* neon_variant() noexcept { return nullptr; }

}  // namespace hdc::bits::detail

#endif
