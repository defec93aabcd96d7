// AVX2 kernel variant: 256-bit XOR + nibble-LUT popcount (Mula's
// algorithm).  AVX2 has no vector popcount instruction, so each 32-byte
// lane is counted with two PSHUFB lookups over a 16-entry nibble table and
// folded into four 64-bit lane sums by PSADBW; the lane sums accumulate in
// a vector register across the whole row and are reduced once at the end.
//
// Compiled with -mavx2 (plus -mpopcnt for the scalar tail) only when the
// compiler supports it; otherwise this TU is the nullptr stub and the
// dispatcher never offers the variant.  Correctness contract: bit-exact
// with the scalar variant on every input (property-tested).

#include "kernel_detail.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <bit>

namespace hdc::bits::detail {

namespace {

/// Per-byte popcount of v via two nibble-table shuffles.
inline __m256i popcount_bytes(__m256i v) noexcept {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                         _mm256_shuffle_epi8(lookup, hi));
}

/// Horizontal sum of the four 64-bit lanes.
inline std::uint64_t reduce_epi64(__m256i v) noexcept {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<std::uint64_t>(_mm_extract_epi64(sum, 0)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(sum, 1));
}

std::size_t avx2_hamming(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t n) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  // Two 256-bit lanes per iteration (8 words): independent popcount chains,
  // PSADBW folds bytes to 64-bit lanes so acc never saturates.
  for (; i + 8 <= n; i += 8) {
    const __m256i x0 = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    const __m256i x1 = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i + 4)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i + 4)));
    const __m256i counts =
        _mm256_add_epi8(popcount_bytes(x0), popcount_bytes(x1));
    acc = _mm256_add_epi64(acc,
                           _mm256_sad_epu8(counts, _mm256_setzero_si256()));
  }
  std::size_t total = static_cast<std::size_t>(reduce_epi64(acc));
  for (; i < n; ++i) {
    total += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  }
  return total;
}

NearestMatch avx2_nearest(const std::uint64_t* query, std::size_t words,
                          const std::uint64_t* arena, std::size_t stride,
                          std::size_t count) noexcept {
  return nearest_rows(avx2_hamming, query, words, arena, stride, count);
}

void avx2_hamming_many(const std::uint64_t* query, std::size_t words,
                       const std::uint64_t* arena, std::size_t stride,
                       std::size_t count, std::size_t* out) noexcept {
  hamming_rows(avx2_hamming, query, words, arena, stride, count, out);
}

std::size_t avx2_count_ones(const std::uint64_t* words, std::size_t n) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i + 4));
    const __m256i counts =
        _mm256_add_epi8(popcount_bytes(v0), popcount_bytes(v1));
    acc = _mm256_add_epi64(acc,
                           _mm256_sad_epu8(counts, _mm256_setzero_si256()));
  }
  std::size_t total = static_cast<std::size_t>(reduce_epi64(acc));
  for (; i < n; ++i) {
    total += static_cast<std::size_t>(std::popcount(words[i]));
  }
  return total;
}

void avx2_xor_rows(std::uint64_t* dst, const std::uint64_t* a,
                   const std::uint64_t* b, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), x);
  }
  for (; i < n; ++i) {
    dst[i] = a[i] ^ b[i];
  }
}

/// Lane j of group g selects bit 8 * g + j of a broadcast 32-bit
/// half-word: the AVX2 stand-in for an AVX-512 mask register.
__m256i group_selector(int group) noexcept {
  const __m256i one_hot = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  return _mm256_sllv_epi32(one_hot, _mm256_set1_epi32(8 * group));
}

/// All-ones in each lane whose selected bit of \p half is set.
__m256i bit_lanes(__m256i half, __m256i selector) noexcept {
  return _mm256_cmpeq_epi32(_mm256_and_si256(half, selector), selector);
}

void avx2_accumulate(std::int32_t* counters, const std::uint64_t* words,
                     std::size_t dim, std::int32_t weight) noexcept {
  const __m256i selectors[4] = {group_selector(0), group_selector(1),
                                group_selector(2), group_selector(3)};
  const __m256i plus = _mm256_set1_epi32(weight);
  const __m256i minus = _mm256_sub_epi32(_mm256_setzero_si256(), plus);
  const std::size_t full = dim / 64;
  for (std::size_t w = 0; w < full; ++w) {
    for (int h = 0; h < 2; ++h) {
      const auto bits32 = static_cast<int>(words[w] >> (32 * h));
      const __m256i half = _mm256_set1_epi32(bits32);
      std::int32_t* row = counters + w * 64 + 32 * h;
      for (int g = 0; g < 4; ++g) {
        const __m256i set = bit_lanes(half, selectors[g]);
        const __m256i delta = _mm256_blendv_epi8(minus, plus, set);
        auto* lane = reinterpret_cast<__m256i*>(row + 8 * g);
        const __m256i sum = _mm256_add_epi32(_mm256_loadu_si256(lane), delta);
        _mm256_storeu_si256(lane, sum);
      }
    }
  }
  portable_accumulate(counters + 64 * full, words + full, dim - 64 * full,
                      weight);
}

void avx2_threshold(const std::int32_t* counters,
                    const std::uint64_t* tie_words, std::uint64_t* out,
                    std::size_t dim) noexcept {
  const __m256i selectors[4] = {group_selector(0), group_selector(1),
                                group_selector(2), group_selector(3)};
  const __m256i zero = _mm256_setzero_si256();
  const std::size_t full = dim / 64;
  for (std::size_t w = 0; w < full; ++w) {
    std::uint64_t word = 0;
    for (int h = 0; h < 2; ++h) {
      const auto bits32 = static_cast<int>(tie_words[w] >> (32 * h));
      const __m256i tie = _mm256_set1_epi32(bits32);
      const std::int32_t* row = counters + w * 64 + 32 * h;
      for (int g = 0; g < 4; ++g) {
        const auto* lane = reinterpret_cast<const __m256i*>(row + 8 * g);
        const __m256i c = _mm256_loadu_si256(lane);
        const __m256i ties = bit_lanes(tie, selectors[g]);
        const __m256i is_zero = _mm256_cmpeq_epi32(c, zero);
        const __m256i tied = _mm256_and_si256(is_zero, ties);
        const __m256i set = _mm256_or_si256(_mm256_cmpgt_epi32(c, zero), tied);
        const int mask = _mm256_movemask_ps(_mm256_castsi256_ps(set));
        word |= static_cast<std::uint64_t>(mask) << (32 * h + 8 * g);
      }
    }
    out[w] = word;
  }
  portable_threshold(counters + 64 * full, tie_words + full, out + full,
                     dim - 64 * full);
}

/// 256-bit lanes for the shared majority template: one chunk is four
/// words, so each bit-sliced plane is one register.
struct Avx2Lanes {
  using V = __m256i;
  static constexpr std::size_t kWords = 4;
  static V zero() noexcept { return _mm256_setzero_si256(); }
  static V load(const std::uint64_t* p) noexcept {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(std::uint64_t* p, V v) noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  /// Per lane (p[j] << bits) | (p[j - 1] >> (64 - bits)); a shift count
  /// of 64 clears the lane, so bits == 0 needs no branch.
  static V funnel(const std::uint64_t* p, unsigned bits) noexcept {
    const __m128i left = _mm_cvtsi32_si128(static_cast<int>(bits));
    const __m128i right = _mm_cvtsi32_si128(64 - static_cast<int>(bits));
    return _mm256_or_si256(_mm256_sll_epi64(load(p), left),
                           _mm256_srl_epi64(load(p - 1), right));
  }
};

void avx2_majority(const MajorityInputs* inputs,
                   const std::uint64_t* tie_words, std::uint64_t* out,
                   std::size_t dim) noexcept {
  majority_rows<Avx2Lanes>(*inputs, tie_words, out, dim);
}

constexpr Kernels kAvx2Kernels = {
    .name = "avx2",
    .supported = cpu_has_avx2,
    .hamming = avx2_hamming,
    .nearest_hamming = avx2_nearest,
    .hamming_many = avx2_hamming_many,
    .count_ones = avx2_count_ones,
    .xor_rows = avx2_xor_rows,
    .accumulate = avx2_accumulate,
    .threshold = avx2_threshold,
    .majority = avx2_majority,
};

}  // namespace

const Kernels* avx2_variant() noexcept { return &kAvx2Kernels; }

}  // namespace hdc::bits::detail

#else  // !defined(__AVX2__)

namespace hdc::bits::detail {

const Kernels* avx2_variant() noexcept { return nullptr; }

}  // namespace hdc::bits::detail

#endif
