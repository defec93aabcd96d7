#ifndef HDC_CORE_KERNEL_DETAIL_HPP
#define HDC_CORE_KERNEL_DETAIL_HPP

/// \file kernel_detail.hpp
/// \brief Private glue between the kernel dispatcher and the per-ISA TUs.
///
/// Not installed.  Each variant TU (bitops_scalar.cpp, bitops_avx2.cpp,
/// bitops_avx512.cpp, bitops_neon.cpp) defines one `*_kernels()` accessor
/// returning its table, or nullptr when the TU was compiled without the ISA
/// (the build probes compiler flags; a TU whose ISA macro is absent
/// compiles to the stub).  The dispatcher in kernels.cpp owns the CPU
/// predicates so that support probing never executes code from a
/// wider-ISA TU.

#include <cstddef>
#include <cstdint>

#include "hdc/core/kernels.hpp"

namespace hdc::bits::detail {

/// Variant accessors; null when not compiled in.  scalar_variant() is
/// always non-null.
const Kernels* scalar_variant() noexcept;
const Kernels* avx2_variant() noexcept;
const Kernels* avx512_variant() noexcept;
const Kernels* neon_variant() noexcept;

/// Runtime CPU predicates, defined in the baseline-ISA dispatcher TU.
bool cpu_always() noexcept;
bool cpu_has_avx2() noexcept;
bool cpu_has_avx512() noexcept;
bool cpu_has_neon() noexcept;

// Every helper below has internal linkage on purpose: each variant TU gets
// its own copy, compiled under its own ISA flags.  An inline function with
// external linkage may be merged by the linker with the copy a wider-ISA TU
// emitted (at -O0 nothing inlines them away), and the scalar variant would
// then run it.
namespace {

/// Shared row loops: every variant's nearest_hamming / hamming_many is the
/// same scan instantiated over that variant's hamming core, compiled inside
/// the variant's own TU so the core inlines under its ISA flags.
template <typename HammingFn>
inline NearestMatch nearest_rows(HammingFn hamming_fn,
                                 const std::uint64_t* query,
                                 std::size_t words,
                                 const std::uint64_t* arena,
                                 std::size_t stride,
                                 std::size_t count) noexcept {
  NearestMatch best{0, ~std::size_t{0}};
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t dist = hamming_fn(query, arena + i * stride, words);
    // Strict less-than: ties keep the lowest index.
    if (dist < best.distance) {
      best.distance = dist;
      best.index = i;
    }
  }
  return best;
}

template <typename HammingFn>
inline void hamming_rows(HammingFn hamming_fn, const std::uint64_t* query,
                         std::size_t words, const std::uint64_t* arena,
                         std::size_t stride, std::size_t count,
                         std::size_t* out) noexcept {
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = hamming_fn(query, arena + i * stride, words);
  }
}

/// Portable bundling loops over a dim-bit row, partial last word included:
/// the scalar and NEON table entries, and the tail every SIMD variant hands
/// over after its full 64-bit words.  Both are branch-free on the bit and
/// counter values.
inline void portable_accumulate(std::int32_t* counters,
                                const std::uint64_t* words, std::size_t dim,
                                std::int32_t weight) noexcept {
  // delta = -weight, plus 2 * weight where the bit is set.  The uint32 view
  // of the counters (a signed/unsigned pair may alias) wraps like the
  // vector adds instead of overflowing a signed int.
  const std::uint32_t minus = 0U - static_cast<std::uint32_t>(weight);
  const std::uint32_t twice = 2U * static_cast<std::uint32_t>(weight);
  for (std::size_t base = 0; base < dim; base += 64) {
    std::uint64_t word = words[base / 64];
    auto* row = reinterpret_cast<std::uint32_t*>(counters + base);
    const std::size_t limit = dim - base < 64 ? dim - base : 64;
    for (std::size_t b = 0; b < limit; ++b) {
      row[b] += minus + static_cast<std::uint32_t>(word & 1U) * twice;
      word >>= 1U;
    }
  }
}

inline void portable_threshold(const std::int32_t* counters,
                               const std::uint64_t* tie_words,
                               std::uint64_t* out, std::size_t dim) noexcept {
  for (std::size_t base = 0; base < dim; base += 64) {
    const std::uint64_t tie = tie_words[base / 64];
    const std::int32_t* row = counters + base;
    const std::size_t limit = dim - base < 64 ? dim - base : 64;
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < limit; ++b) {
      const auto positive = static_cast<std::uint64_t>(row[b] > 0);
      const auto zero = static_cast<std::uint64_t>(row[b] == 0);
      word |= (positive | (zero & (tie >> b))) << b;
    }
    out[base / 64] = word;
  }
}

// ---------------------------------------------------------------------------
// One-pass majority (Kernels::majority).  Each output chunk counts its bits
// over all inputs in bit-sliced planes: plane p holds bit p of every bit
// position's count, so ⌈log2(count + 1)⌉ planes hold any count.  The four
// low planes take the inputs through a Harley-Seal carry-save tree, 16
// inputs per step; its weight-16 carry ripples into the higher planes,
// which are touched once per 16 inputs.  A most-significant-first compare
// against count / 2 then yields the > and == masks.  Every variant runs
// this one template, instantiated over its own lane type in its own TU.

/// Most planes above the four carry-save ones: enough for any size_t count.
constexpr std::size_t kMaxHighPlanes = 64 - 4;

// The per-chunk body must inline into its chunk loop, so the loop-invariant
// row and shift set-up is hoisted out of it; GCC otherwise keeps it out of
// line for its size.
#if defined(__GNUC__) || defined(__clang__)
#define HDC_MAJORITY_INLINE [[gnu::always_inline]] inline
#else
#define HDC_MAJORITY_INLINE inline
#endif

/// The portable lane type: one word per chunk.
struct WordLanes {
  using V = std::uint64_t;
  static constexpr std::size_t kWords = 1;
  static V zero() noexcept { return 0; }
  static V load(const std::uint64_t* p) noexcept { return *p; }
  static void store(std::uint64_t* p, V v) noexcept { *p = v; }
  /// (p[0] << bits) | (p[-1] >> (64 - bits)) for bits in [0, 64).
  static V funnel(const std::uint64_t* p, unsigned bits) noexcept {
    // Two shifts keep bits == 0 defined: the low word then contributes 0.
    return (p[0] << bits) | ((p[-1] >> 1U) >> (63U - bits));
  }
};

/// Carry-save (full) adder: plane + a + b per bit; plane keeps the sum
/// bit and the carry (worth twice as much) is returned.
template <typename V>
inline V carry_save(V& plane, V a, V b) noexcept {
  const V u = plane ^ a;
  const V carry = (plane & a) | (u & b);
  plane = u ^ b;
  return carry;
}

/// plane += carry per bit; returns the carry out.
template <typename V>
inline V half_add(V& plane, V carry) noexcept {
  const V out = plane & carry;
  plane = plane ^ carry;
  return out;
}

/// Majority of one chunk of Lanes::kWords words starting at word \p w:
/// fetch(i, w) yields input i's chunk.
template <typename Lanes, typename Fetch>
HDC_MAJORITY_INLINE typename Lanes::V majority_chunk(
    const Fetch& fetch, std::size_t count, std::size_t high_planes,
    std::size_t w, typename Lanes::V tie) noexcept {
  using V = typename Lanes::V;
  V ones = Lanes::zero();
  V twos = Lanes::zero();
  V fours = Lanes::zero();
  V eights = Lanes::zero();
  // high[0..live) count the weight-16 carries; the planes above are zero
  // until a carry first reaches them.  They are written on first use, not
  // cleared per chunk: live says which hold a value.
  V high[kMaxHighPlanes];
  std::size_t live = 0;
  // The count never exceeds `count`, so a carry never leaves the top plane.
  const auto carry_high = [&](V carry) {
    for (std::size_t p = 0; p < live; ++p) {
      carry = half_add(high[p], carry);
    }
    if (live < high_planes) {
      high[live++] = carry;
    }
  };
  const auto ripple = [&](V carry) {
    carry = half_add(twos, carry);
    carry = half_add(fours, carry);
    carry_high(half_add(eights, carry));
  };
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    // Gathered first, so the tree below holds one copy of the fetch code.
    V in[16];
    for (std::size_t k = 0; k < 16; ++k) {
      in[k] = fetch(i + k, w);
    }
    const V twos_a = carry_save(ones, in[0], in[1]);
    const V twos_b = carry_save(ones, in[2], in[3]);
    const V fours_a = carry_save(twos, twos_a, twos_b);
    const V twos_c = carry_save(ones, in[4], in[5]);
    const V twos_d = carry_save(ones, in[6], in[7]);
    const V fours_b = carry_save(twos, twos_c, twos_d);
    const V eights_a = carry_save(fours, fours_a, fours_b);
    const V twos_e = carry_save(ones, in[8], in[9]);
    const V twos_f = carry_save(ones, in[10], in[11]);
    const V fours_c = carry_save(twos, twos_e, twos_f);
    const V twos_g = carry_save(ones, in[12], in[13]);
    const V twos_h = carry_save(ones, in[14], in[15]);
    const V fours_d = carry_save(twos, twos_g, twos_h);
    const V eights_b = carry_save(fours, fours_c, fours_d);
    carry_high(carry_save(eights, eights_a, eights_b));
  }
  for (; i + 2 <= count; i += 2) {
    ripple(carry_save(ones, fetch(i, w), fetch(i + 1, w)));
  }
  if (i < count) {
    ripple(half_add(ones, fetch(i, w)));
  }

  // count > half where some plane beats half's bit below an equal prefix;
  // count == half where every plane equals half's bit.
  const std::size_t half = count / 2;
  V greater = Lanes::zero();
  V equal = ~Lanes::zero();
  const auto compare = [&](V plane, std::size_t bit) {
    if (((half >> bit) & 1U) != 0) {
      equal = equal & plane;
    } else {
      greater = greater | (equal & plane);
      equal = equal & ~plane;
    }
  };
  for (std::size_t p = high_planes; p-- > 0;) {
    compare(p < live ? high[p] : Lanes::zero(), 4 + p);
  }
  compare(eights, 3);
  compare(fours, 2);
  compare(twos, 1);
  compare(ones, 0);
  // Odd counts cannot tie: 2 * c == count has no integer solution.
  return count % 2 == 0 ? greater | (equal & tie) : greater;
}

/// Rotation of term t: t bits, reduced modulo the dimension.
inline std::size_t term_shift(std::size_t t, std::size_t dim) noexcept {
  return t < dim ? t : t % dim;
}

/// Word \p w of `row << shift` over the row's words, before tail masking.
inline std::uint64_t shifted_left_word(const std::uint64_t* row,
                                       std::size_t w,
                                       std::size_t shift) noexcept {
  const std::size_t word_shift = shift / 64;
  const std::size_t bit_shift = shift % 64;
  if (w < word_shift) {
    return 0;
  }
  std::uint64_t value = row[w - word_shift] << bit_shift;
  if (bit_shift != 0 && w > word_shift) {
    value |= row[w - word_shift - 1] >> (64 - bit_shift);
  }
  return value;
}

/// Word \p w of `row >> shift` over \p words words.
inline std::uint64_t shifted_right_word(const std::uint64_t* row,
                                        std::size_t words, std::size_t w,
                                        std::size_t shift) noexcept {
  const std::size_t word_shift = shift / 64;
  const std::size_t bit_shift = shift % 64;
  if (w + word_shift >= words) {
    return 0;
  }
  std::uint64_t value = row[w + word_shift] >> bit_shift;
  if (bit_shift != 0 && w + word_shift + 1 < words) {
    value |= row[w + word_shift + 1] << (64 - bit_shift);
  }
  return value;
}

/// Word \p w of a dim-bit row rotated left by \p shift < dim bits:
/// (row << shift) | (row >> (dim - shift)), exact below dim because the
/// row's tail bits are zero.  Bits past dim are left for the caller to
/// mask.  The scalar helper for the words where a rotated term wraps.
inline std::uint64_t rotated_word(const std::uint64_t* row, std::size_t dim,
                                  std::size_t w, std::size_t shift) noexcept {
  const std::size_t words = (dim + 63) / 64;
  return shifted_left_word(row, w, shift) |
         shifted_right_word(row, words, w, dim - shift);
}

/// Input chunks of bound pairs (no codes, terms = 2): the key-value shape,
/// one XOR per chunk.
template <typename Lanes>
struct BoundPairs {
  const MajorityInputs& in;
  typename Lanes::V operator()(std::size_t i, std::size_t w) const noexcept {
    return Lanes::load(in.rows[2 * i] + w) ^
           Lanes::load(in.rows[2 * i + 1] + w);
  }
};

/// Input chunks of row groups (no codes): the XOR of `terms` rows.
template <typename Lanes>
struct RowGroups {
  const MajorityInputs& in;
  typename Lanes::V operator()(std::size_t i, std::size_t w) const noexcept {
    const std::uint64_t* const* group = in.rows + i * in.terms;
    typename Lanes::V v = Lanes::load(group[0] + w);
    for (std::size_t t = 1; t < in.terms; ++t) {
      v = v ^ Lanes::load(group[t] + w);
    }
    return v;
  }
};

/// Input chunks of n-gram windows away from the wrap: every word of a
/// rotated term is a funnel shift of two adjacent words of its row.
/// \pre w exceeds every term's word shift, so neither load leaves the row.
template <typename Lanes>
struct Windows {
  const MajorityInputs& in;
  std::size_t dim;
  typename Lanes::V operator()(std::size_t i, std::size_t w) const noexcept {
    const unsigned char* codes = in.codes + i;
    typename Lanes::V v = Lanes::load(in.rows[codes[0]] + w);
    for (std::size_t t = 1; t < in.terms; ++t) {
      const std::size_t shift = term_shift(t, dim);
      const std::uint64_t* row = in.rows[codes[t]] + w - shift / 64;
      v = v ^ Lanes::funnel(row, static_cast<unsigned>(shift % 64));
    }
    return v;
  }
};

/// Words of n-gram windows where a rotated term may wrap, one at a time.
struct WrappedWindows {
  const MajorityInputs& in;
  std::size_t dim;
  std::uint64_t operator()(std::size_t i, std::size_t w) const noexcept {
    const unsigned char* codes = in.codes + i;
    std::uint64_t v = in.rows[codes[0]][w];
    for (std::size_t t = 1; t < in.terms; ++t) {
      v ^= rotated_word(in.rows[codes[t]], dim, w, term_shift(t, dim));
    }
    return v;
  }
};

/// Symbol row of positional input i: looked up through the byte codes of a
/// word, or row i of a token sequence.
inline const std::uint64_t* position_row(const MajorityInputs& in,
                                         std::size_t i) noexcept {
  return in.rows[in.codes != nullptr ? in.codes[i] : i];
}

/// Input chunks of position-rotated symbols away from the wrap: input i is
/// its row rotated by i + 1 bits, so every word is a funnel shift of two
/// adjacent words of that row.
/// \pre w exceeds every input's word shift, so neither load leaves the row.
template <typename Lanes>
struct Positions {
  const MajorityInputs& in;
  std::size_t dim;
  typename Lanes::V operator()(std::size_t i, std::size_t w) const noexcept {
    const std::size_t shift = term_shift(i + 1, dim);
    return Lanes::funnel(position_row(in, i) + w - shift / 64,
                         static_cast<unsigned>(shift % 64));
  }
};

/// Words of position-rotated symbols where a rotation may wrap, one at a
/// time.
struct WrappedPositions {
  const MajorityInputs& in;
  std::size_t dim;
  std::uint64_t operator()(std::size_t i, std::size_t w) const noexcept {
    return rotated_word(position_row(in, i), dim, w, term_shift(i + 1, dim));
  }
};

/// Majority of words [begin, end) in Lanes-wide chunks; the last chunk is
/// pulled back to end at \p end and recomputes a few words with the same
/// result, so no chunk reads past a row.  \pre end - begin >= kWords.
template <typename Lanes, template <typename> class Terms, typename... Extra>
inline void majority_span(const MajorityInputs& in,
                          const std::uint64_t* tie_words, std::uint64_t* out,
                          std::size_t high_planes, std::size_t begin,
                          std::size_t end, Extra... extra) noexcept {
  const Terms<Lanes> fetch{in, extra...};
  for (std::size_t w = begin;; w += Lanes::kWords) {
    const std::size_t at = w + Lanes::kWords <= end ? w : end - Lanes::kWords;
    Lanes::store(out + at,
                 majority_chunk<Lanes>(fetch, in.count, high_planes, at,
                                       Lanes::load(tie_words + at)));
    if (at + Lanes::kWords == end) {
      return;
    }
  }
}

/// Majority of rotated inputs: the words below \p head, where a rotation
/// may wrap, one at a time through \p Wrapped; the rest in Lanes-wide
/// chunks through \p Terms.
template <typename Lanes, typename Wrapped, template <typename> class Terms>
inline void rotated_majority(const MajorityInputs& in,
                             const std::uint64_t* tie_words,
                             std::uint64_t* out, std::size_t high_planes,
                             std::size_t head, std::size_t words,
                             std::size_t dim) noexcept {
  const Wrapped wrapped{in, dim};
  for (std::size_t w = 0; w < head; ++w) {
    out[w] = majority_chunk<WordLanes>(wrapped, in.count, high_planes, w,
                                       tie_words[w]);
  }
  if (head < words) {
    majority_span<Lanes, Terms>(in, tie_words, out, high_planes, head, words,
                                dim);
  }
}

/// Kernels::majority over any lane type.
template <typename Lanes>
inline void majority_rows(const MajorityInputs& in,
                          const std::uint64_t* tie_words, std::uint64_t* out,
                          std::size_t dim) noexcept {
  const std::size_t words = (dim + 63) / 64;
  if (words == 0) {
    return;
  }
  // Words below `head` hold wrapped bits of some rotated input or term, or
  // would read before its row in a funnel shift: those go through
  // rotated_word().
  std::size_t head = 0;
  if (in.positional || in.codes != nullptr) {
    const std::size_t reach = in.positional ? in.count : in.terms - 1;
    const std::size_t max_shift = reach < dim ? reach : dim - 1;
    head = max_shift / 64 + 1 < words ? max_shift / 64 + 1 : words;
  }
  if constexpr (Lanes::kWords > 1) {
    // A row too short for one chunk past the head goes word by word.
    if (words < head + Lanes::kWords) {
      scalar_variant()->majority(&in, tie_words, out, dim);
      return;
    }
  }
  std::size_t planes = 0;
  for (std::size_t c = in.count; c != 0; c >>= 1U) {
    ++planes;
  }
  const std::size_t high_planes = planes > 4 ? planes - 4 : 0;
  if (in.positional) {
    rotated_majority<Lanes, WrappedPositions, Positions>(
        in, tie_words, out, high_planes, head, words, dim);
  } else if (in.codes == nullptr) {
    if (in.terms == 2) {
      majority_span<Lanes, BoundPairs>(in, tie_words, out, high_planes, 0,
                                       words);
    } else {
      majority_span<Lanes, RowGroups>(in, tie_words, out, high_planes, 0,
                                      words);
    }
  } else {
    rotated_majority<Lanes, WrappedWindows, Windows>(
        in, tie_words, out, high_planes, head, words, dim);
  }
  const std::size_t rem = dim % 64;
  if (rem != 0) {
    out[words - 1] &= (std::uint64_t{1} << rem) - 1;
  }
}

/// The portable table entry (scalar and NEON).
inline void portable_majority(const MajorityInputs* inputs,
                              const std::uint64_t* tie_words,
                              std::uint64_t* out, std::size_t dim) noexcept {
  majority_rows<WordLanes>(*inputs, tie_words, out, dim);
}

}  // namespace

}  // namespace hdc::bits::detail

#endif  // HDC_CORE_KERNEL_DETAIL_HPP
