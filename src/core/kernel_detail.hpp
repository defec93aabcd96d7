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

}  // namespace

}  // namespace hdc::bits::detail

#endif  // HDC_CORE_KERNEL_DETAIL_HPP
