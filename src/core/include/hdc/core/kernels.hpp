#ifndef HDC_CORE_KERNELS_HPP
#define HDC_CORE_KERNELS_HPP

/// \file kernels.hpp
/// \brief Runtime-dispatched SIMD kernel variants for the bit primitives.
///
/// Every hot path in the library — `Basis::nearest`,
/// `CentroidClassifier::predict`, the `hdc::runtime` batch engines, the
/// whole `hdc::serve` stack and every bundle — bottoms out in a handful of
/// word kernels: fused XOR+popcount sweeps, the bundling
/// accumulate/threshold pair behind `BundleAccumulator`, and the one-pass
/// `majority` behind the key-value, n-gram and sequence encoders.  This
/// header turns that kernel surface into a *selectable* API: a `Kernels`
/// table of function pointers with one entry per primitive,
/// per-ISA implementations (scalar / AVX2 / AVX-512 VPOPCNTDQ / NEON)
/// compiled into their own translation units with per-file ISA flags, and a
/// process-wide active table chosen once at first use by a CPU-feature
/// detector.
///
/// Selection order (first hit wins):
///
///  1. The `HDC_KERNELS` environment variable, read once at first use.  An
///     unknown or unsupported name is diagnosed on stderr and ignored — a
///     typo must never change results, only speed.
///  2. The best compiled-in variant the running CPU supports, probing in
///     the fixed preference order avx512 > avx2 > neon > scalar.
///
/// `select_kernels()` re-points the table at any time (tests force every
/// variant through it; `hdcgen --kernel` pins one for reproducible latency).
/// The scalar variant is always compiled in, always supported, and is the
/// bit-exactness reference every other variant is property-tested against.
///
/// The public `hdc::bits::hamming(...)`-style span functions in bitops.hpp
/// are thin shims over the active table, so call sites never name a
/// variant.  This dispatch seam is also where a future GPU/accelerator
/// backend plugs in (see docs/kernels.md).

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace hdc::bits {

/// Result of a fused nearest-candidate scan: the first index attaining the
/// minimum Hamming distance (ties keep the lowest index, matching a strict
/// less-than linear scan).
struct NearestMatch {
  std::size_t index = 0;
  std::size_t distance = 0;
};

/// The inputs of one majority bundle, described instead of materialized so
/// that a bound pair, an n-gram window or a rotated symbol never needs a
/// scratch row.  Every row holds words_for(dim) words with zero tail bits;
/// ρ^s is a left rotation by s bits over the dimension.
///
///  * positional: input i is ρ^{i+1}(S_i), the position-rotated symbol of
///    a sequence bundle, with S_i = rows[codes[i]] (rows a per-byte symbol
///    table, codes the count bytes of a word) or, without codes,
///    S_i = rows[i]; terms is ignored;
///  * otherwise, codes == nullptr: input i is the XOR of rows[i * terms + t]
///    over t < terms — key-value bindings K_i ⊕ V_i with terms = 2 over
///    {K_0, V_0, K_1, V_1, ...}, plain rows with terms = 1;
///  * otherwise input i is the n-gram window ⊕_{t < terms} ρ^t(S_{i+t}),
///    S_j = rows[codes[j]]: rows is a per-byte symbol table and codes the
///    count + terms - 1 bytes of text.
struct MajorityInputs {
  const std::uint64_t* const* rows = nullptr;
  const unsigned char* codes = nullptr;
  std::size_t count = 0;
  std::size_t terms = 1;
  bool positional = false;
};

/// One kernel variant: a name, a runtime CPU-support predicate, and the
/// primitive table.  All pointers are non-null in a registered variant; the
/// word-count convention matches the span shims in bitops.hpp (spans are
/// unpacked to pointer + length so the table stays a plain POD ABI — the
/// shape a non-C++ accelerator runtime could also provide).
struct Kernels {
  /// Stable lowercase identifier: "scalar", "avx2", "avx512", "neon".
  const char* name;

  /// True when the running CPU can execute this variant.  Defined in the
  /// baseline-ISA dispatcher TU, never in the variant's own TU, so probing
  /// support can never itself fault on an old CPU.
  bool (*supported)() noexcept;

  /// Bit count of a XOR b over words[0..words).
  std::size_t (*hamming)(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t words) noexcept;

  /// Fused nearest-neighbour scan: candidate i occupies
  /// arena[i * stride .. i * stride + words).  \pre count >= 1.
  NearestMatch (*nearest_hamming)(const std::uint64_t* query,
                                  std::size_t words,
                                  const std::uint64_t* arena,
                                  std::size_t stride,
                                  std::size_t count) noexcept;

  /// Hamming distance from query to each of count candidates, written to
  /// out[0..count).
  void (*hamming_many)(const std::uint64_t* query, std::size_t words,
                       const std::uint64_t* arena, std::size_t stride,
                       std::size_t count, std::size_t* out) noexcept;

  /// Population count over words[0..n).
  std::size_t (*count_ones)(const std::uint64_t* words, std::size_t n) noexcept;

  /// dst[i] = a[i] ^ b[i] for i in [0, n); dst may alias a or b.
  void (*xor_rows)(std::uint64_t* dst, const std::uint64_t* a,
                   const std::uint64_t* b, std::size_t n) noexcept;

  /// Bundling update: counters[i] += bit i of words ? +weight : -weight for
  /// i in [0, dim), wrapping modulo 2^32.  words holds words_for(dim) words;
  /// counters[dim..] is never touched.
  /// \pre weight != 0 and weight != INT32_MIN.
  void (*accumulate)(std::int32_t* counters, const std::uint64_t* words,
                     std::size_t dim, std::int32_t weight) noexcept;

  /// Majority threshold: bit i of out = counters[i] > 0, or tie bit i when
  /// counters[i] == 0, for i in [0, dim); the bits of the last word past
  /// dim are written as zero.  tie_words and out hold words_for(dim) words.
  void (*threshold)(const std::int32_t* counters,
                    const std::uint64_t* tie_words, std::uint64_t* out,
                    std::size_t dim) noexcept;

  /// One-pass majority bundle: with c_i the number of inputs whose bit i
  /// is set, bit i of out is set where 2 * c_i > count and takes tie bit i
  /// where 2 * c_i == count, for i in [0, dim); the bits of the last word
  /// past dim are written as zero.  This is accumulate with weight 1 per
  /// input followed by threshold, bit for bit, for any count (0 included),
  /// but the counts live in bit-sliced planes per output chunk instead of
  /// an int32 row.  tie_words and out hold words_for(dim) words; out
  /// aliases no input row.
  void (*majority)(const MajorityInputs* inputs,
                   const std::uint64_t* tie_words, std::uint64_t* out,
                   std::size_t dim) noexcept;
};

/// The process-wide active variant.  First call resolves the selection
/// (HDC_KERNELS override, then best supported); later calls are one atomic
/// load.  Thread-safe.
[[nodiscard]] const Kernels& active_kernels() noexcept;

/// The always-present scalar reference variant (4-way unrolled portable
/// XOR+popcount) — the bit-exactness oracle for tests and the microbench
/// self-check, available without going through selection.
[[nodiscard]] const Kernels& scalar_kernels() noexcept;

/// Every variant compiled into this binary, in preference order, including
/// ones the running CPU cannot execute (query `supported()` per entry —
/// `hdcgen kernels` prints exactly this split).
[[nodiscard]] std::vector<const Kernels*> compiled_kernels();

/// The compiled-in variants the running CPU supports, in preference order.
/// Never empty: scalar is always last.
[[nodiscard]] std::vector<const Kernels*> available_kernels();

/// Makes the named variant active for the whole process and returns it.
/// \throws std::invalid_argument if \p name is not a compiled-in variant or
/// the running CPU does not support it (the error message lists the
/// available names).
const Kernels& select_kernels(std::string_view name);

/// CPU feature bits the dispatcher probes, for diagnostics (`hdcgen
/// kernels`).  All false on architectures without a probe (then only
/// compile-time-implied variants run, e.g. NEON on aarch64).
struct CpuFeatures {
  bool popcnt = false;
  bool avx2 = false;
  bool avx512f = false;
  bool avx512bw = false;
  bool avx512vl = false;
  bool avx512vpopcntdq = false;
  bool neon = false;
};

[[nodiscard]] CpuFeatures cpu_features() noexcept;

}  // namespace hdc::bits

#endif  // HDC_CORE_KERNELS_HPP
