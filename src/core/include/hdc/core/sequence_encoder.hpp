#ifndef HDC_CORE_SEQUENCE_ENCODER_HPP
#define HDC_CORE_SEQUENCE_ENCODER_HPP

/// \file sequence_encoder.hpp
/// \brief Sequence and n-gram encoders over symbolic data (Section 3.1).
///
/// A word w = (a_1, ..., a_n) is encoded as  phi(w) = ⊕_{i=1..n} Pi^i(R(a_i))
/// — bundle the per-symbol random hypervectors, each permuted by its
/// position, so the location of every symbol is preserved.  The n-gram
/// encoder instead *binds* the permuted symbols of each length-n window and
/// bundles the windows; this is the classic HDC text-classification
/// encoding (Rahimi et al., 2016).
///
/// Both encoders read bytes from one dense table of the 256 one-byte
/// symbol vectors, built at construction from the `ItemMemory` derivation
/// (a symbol's vector depends only on (seed, symbol)).  Their byte entries
/// are therefore const and read nothing else, so one encoder can be shared
/// across serving threads behind a `shared_ptr<const>`.  Every bundle is
/// one `bits::majority` pass; no rotated or windowed row is materialized.

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "hdc/core/item_memory.hpp"

namespace hdc {

/// Position-aware sequence encoder.
class SequenceEncoder {
 public:
  /// \throws std::invalid_argument if dimension == 0.
  SequenceEncoder(std::size_t dimension, std::uint64_t seed);

  /// Encodes a token sequence as ⊕_i Pi^i(R(token_i)) (1-based shifts, as in
  /// the paper).  Arbitrary tokens are materialized in an `ItemMemory` on
  /// first use, so this entry is for training.
  /// \throws std::invalid_argument if tokens is empty.
  [[nodiscard]] Hypervector encode(std::span<const std::string_view> tokens);

  /// Encodes a word byte by byte: encode() over its one-byte tokens, read
  /// from the byte table.  \throws std::invalid_argument if word is empty.
  [[nodiscard]] Hypervector encode_word(std::string_view word) const;

  [[nodiscard]] std::size_t dimension() const noexcept {
    return items_.dimension();
  }
  /// The bundling tie-breaker: the bit a position-majority tie takes.
  [[nodiscard]] const Hypervector& tie_breaker() const noexcept {
    return tie_breaker_;
  }
  /// The seed this encoder was created from; (dimension, seed) reconstructs
  /// it bit-exactly, which is all a snapshot section needs to store.
  [[nodiscard]] std::uint64_t seed() const noexcept { return items_.seed(); }

 private:
  ItemMemory items_;
  std::vector<std::uint64_t> bytes_;
  Hypervector tie_breaker_;
};

/// Bound-n-gram text encoder: phi(text) = ⊕_windows ⊗_{k=0..n-1}
/// Pi^k(R(text[i+k])).
class NGramEncoder {
 public:
  /// \throws std::invalid_argument if dimension == 0 or n == 0.
  NGramEncoder(std::size_t dimension, std::size_t n, std::uint64_t seed);

  /// Encodes text; texts shorter than n are encoded as a single partial
  /// window.  \throws std::invalid_argument if text is empty.
  [[nodiscard]] Hypervector encode(std::string_view text) const;

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t dimension() const noexcept {
    return tie_breaker_.dimension();
  }
  /// The bundling tie-breaker: the bit a window-majority tie takes.
  [[nodiscard]] const Hypervector& tie_breaker() const noexcept {
    return tie_breaker_;
  }
  /// The seed this encoder was created from; (dimension, n, seed)
  /// reconstructs it bit-exactly.
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  std::size_t n_;
  std::uint64_t seed_;
  Hypervector tie_breaker_;
  std::vector<std::uint64_t> bytes_;
};

}  // namespace hdc

#endif  // HDC_CORE_SEQUENCE_ENCODER_HPP
