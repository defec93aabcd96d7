// AVX-512 kernel variant: 512-bit XOR + native vector popcount
// (VPOPCNTDQ).  _mm512_popcnt_epi64 counts eight words per instruction;
// the per-lane counts accumulate in a vector register across the row and
// reduce once at the end — the widest per-cycle popcount x86 offers, and
// exactly the workload shape HDC inference is (wide bitwise sweeps).
//
// Compiled with -mavx512f/bw/vl/vpopcntdq only when the compiler supports
// them; otherwise this TU is the nullptr stub.  The dispatcher offers the
// variant only when the running CPU reports avx512f + avx512vpopcntdq, so
// none of this code executes on narrower machines.

#include "kernel_detail.hpp"

#if defined(__AVX512F__) && defined(__AVX512VPOPCNTDQ__)

#include <immintrin.h>

#include <bit>

namespace hdc::bits::detail {

namespace {

/// Horizontal sum of the eight 64-bit lanes, stored and added in scalar
/// code.  GCC 12's _mm512_reduce_add_epi64 extracts the upper half through
/// an undefined passthrough and trips -Wuninitialized; an integer sum does
/// not depend on the order it is taken in.
std::size_t lane_sum(__m512i v) noexcept {
  alignas(64) std::uint64_t lanes[8];
  _mm512_store_si512(lanes, v);
  std::uint64_t total = 0;
  for (const std::uint64_t lane : lanes) {
    total += lane;
  }
  return static_cast<std::size_t>(total);
}

std::size_t avx512_hamming(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n) noexcept {
  __m512i acc0 = _mm512_setzero_si512();
  __m512i acc1 = _mm512_setzero_si512();
  std::size_t i = 0;
  // Two 512-bit lanes (16 words) per iteration with independent
  // accumulators: popcount latency overlaps across the pair.
  for (; i + 16 <= n; i += 16) {
    const __m512i x0 = _mm512_xor_si512(_mm512_loadu_si512(a + i),
                                        _mm512_loadu_si512(b + i));
    const __m512i x1 = _mm512_xor_si512(_mm512_loadu_si512(a + i + 8),
                                        _mm512_loadu_si512(b + i + 8));
    acc0 = _mm512_add_epi64(acc0, _mm512_popcnt_epi64(x0));
    acc1 = _mm512_add_epi64(acc1, _mm512_popcnt_epi64(x1));
  }
  for (; i + 8 <= n; i += 8) {
    const __m512i x = _mm512_xor_si512(_mm512_loadu_si512(a + i),
                                       _mm512_loadu_si512(b + i));
    acc0 = _mm512_add_epi64(acc0, _mm512_popcnt_epi64(x));
  }
  std::size_t total = lane_sum(_mm512_add_epi64(acc0, acc1));
  for (; i < n; ++i) {
    total += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  }
  return total;
}

NearestMatch avx512_nearest(const std::uint64_t* query, std::size_t words,
                            const std::uint64_t* arena, std::size_t stride,
                            std::size_t count) noexcept {
  return nearest_rows(avx512_hamming, query, words, arena, stride, count);
}

void avx512_hamming_many(const std::uint64_t* query, std::size_t words,
                         const std::uint64_t* arena, std::size_t stride,
                         std::size_t count, std::size_t* out) noexcept {
  hamming_rows(avx512_hamming, query, words, arena, stride, count, out);
}

std::size_t avx512_count_ones(const std::uint64_t* words,
                              std::size_t n) noexcept {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_add_epi64(
        acc, _mm512_popcnt_epi64(_mm512_loadu_si512(words + i)));
  }
  std::size_t total = lane_sum(acc);
  for (; i < n; ++i) {
    total += static_cast<std::size_t>(std::popcount(words[i]));
  }
  return total;
}

void avx512_xor_rows(std::uint64_t* dst, const std::uint64_t* a,
                     const std::uint64_t* b, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_si512(dst + i,
                        _mm512_xor_si512(_mm512_loadu_si512(a + i),
                                         _mm512_loadu_si512(b + i)));
  }
  for (; i < n; ++i) {
    dst[i] = a[i] ^ b[i];
  }
}

// Each 16-bit slice of a word is the lane mask of 16 counters: one blend
// picks +weight or -weight per lane and one add applies it, so a full word
// is four blend+add pairs.  Only AVX-512F instructions, which the dispatch
// predicate guarantees.
void avx512_accumulate(std::int32_t* counters, const std::uint64_t* words,
                       std::size_t dim, std::int32_t weight) noexcept {
  const __m512i plus = _mm512_set1_epi32(weight);
  const __m512i minus = _mm512_sub_epi32(_mm512_setzero_si512(), plus);
  const std::size_t full = dim / 64;
  for (std::size_t w = 0; w < full; ++w) {
    const std::uint64_t word = words[w];
    std::int32_t* row = counters + w * 64;
    for (std::size_t slice = 0; slice < 4; ++slice) {
      const auto set = static_cast<__mmask16>(word >> (16 * slice));
      const __m512i delta = _mm512_mask_blend_epi32(set, minus, plus);
      std::int32_t* lane = row + 16 * slice;
      const __m512i sum = _mm512_add_epi32(_mm512_loadu_si512(lane), delta);
      _mm512_storeu_si512(lane, sum);
    }
  }
  portable_accumulate(counters + 64 * full, words + full, dim - 64 * full,
                      weight);
}

// 16 output bits per compare: counter > 0, or counter == 0 where the tie
// slice has the bit (the masked compare applies the tie bits as its mask).
void avx512_threshold(const std::int32_t* counters,
                      const std::uint64_t* tie_words, std::uint64_t* out,
                      std::size_t dim) noexcept {
  const __m512i zero = _mm512_setzero_si512();
  const std::size_t full = dim / 64;
  for (std::size_t w = 0; w < full; ++w) {
    const std::uint64_t tie = tie_words[w];
    const std::int32_t* row = counters + w * 64;
    std::uint64_t word = 0;
    for (std::size_t slice = 0; slice < 4; ++slice) {
      const __m512i c = _mm512_loadu_si512(row + 16 * slice);
      const auto tie_slice = static_cast<__mmask16>(tie >> (16 * slice));
      const __mmask16 positive = _mm512_cmpgt_epi32_mask(c, zero);
      const __mmask16 tied = _mm512_mask_cmpeq_epi32_mask(tie_slice, c, zero);
      word |= static_cast<std::uint64_t>(positive | tied) << (16 * slice);
    }
    out[w] = word;
  }
  portable_threshold(counters + 64 * full, tie_words + full, out + full,
                     dim - 64 * full);
}

/// 512-bit lanes for the shared majority template: one chunk is eight
/// words, so each bit-sliced plane is one register.
struct Avx512Lanes {
  using V = __m512i;
  static constexpr std::size_t kWords = 8;
  static V zero() noexcept { return _mm512_setzero_si512(); }
  static V load(const std::uint64_t* p) noexcept {
    return _mm512_loadu_si512(p);
  }
  static void store(std::uint64_t* p, V v) noexcept {
    _mm512_storeu_si512(p, v);
  }
  /// Per lane (p[j] << bits) | (p[j - 1] >> (64 - bits)); a shift count
  /// of 64 clears the lane, so bits == 0 needs no branch.  The zero-masked
  /// forms with every lane selected are the plain shifts; GCC 12's
  /// unmasked ones pass an undefined vector and trip -Wuninitialized.
  static V funnel(const std::uint64_t* p, unsigned bits) noexcept {
    constexpr __mmask8 kAll = 0xFF;
    const __m128i left = _mm_cvtsi32_si128(static_cast<int>(bits));
    const __m128i right = _mm_cvtsi32_si128(64 - static_cast<int>(bits));
    return _mm512_or_si512(_mm512_maskz_sll_epi64(kAll, load(p), left),
                           _mm512_maskz_srl_epi64(kAll, load(p - 1), right));
  }
};

void avx512_majority(const MajorityInputs* inputs,
                     const std::uint64_t* tie_words, std::uint64_t* out,
                     std::size_t dim) noexcept {
  majority_rows<Avx512Lanes>(*inputs, tie_words, out, dim);
}

constexpr Kernels kAvx512Kernels = {
    .name = "avx512",
    .supported = cpu_has_avx512,
    .hamming = avx512_hamming,
    .nearest_hamming = avx512_nearest,
    .hamming_many = avx512_hamming_many,
    .count_ones = avx512_count_ones,
    .xor_rows = avx512_xor_rows,
    .accumulate = avx512_accumulate,
    .threshold = avx512_threshold,
    .majority = avx512_majority,
};

}  // namespace

const Kernels* avx512_variant() noexcept { return &kAvx512Kernels; }

}  // namespace hdc::bits::detail

#else  // !(__AVX512F__ && __AVX512VPOPCNTDQ__)

namespace hdc::bits::detail {

const Kernels* avx512_variant() noexcept { return nullptr; }

}  // namespace hdc::bits::detail

#endif
