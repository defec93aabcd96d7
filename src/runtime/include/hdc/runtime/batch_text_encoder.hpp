#ifndef HDC_RUNTIME_BATCH_TEXT_ENCODER_HPP
#define HDC_RUNTIME_BATCH_TEXT_ENCODER_HPP

/// \file batch_text_encoder.hpp
/// \brief Parallel text-batch encoding into a VectorArena.
///
/// The text twin of `BatchEncoder`: wraps any per-sample string encoder (an
/// `NGramEncoder`, a `SequenceEncoder`'s encode_word, ...) and maps it over
/// a batch of raw text rows on the thread pool.  Each worker writes its
/// rows into disjoint arena slots, so the output is bit-identical for every
/// thread count.  The wrapped function must be const-safe, as the
/// library's text encoders' const entries are.

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "hdc/core/hypervector.hpp"
#include "hdc/runtime/arena.hpp"
#include "hdc/runtime/batch_encoder.hpp"

namespace hdc::runtime {

/// Batched text -> hypervector encoder.
class BatchTextEncoder {
 public:
  /// Per-sample encoding function; must be safe to call concurrently and a
  /// pure function of its text for the thread-count-invariance guarantee.
  using TextEncodeFn = std::function<Hypervector(std::string_view)>;

  /// \throws std::invalid_argument if dimension == 0, encode or pool is
  /// null.
  BatchTextEncoder(std::size_t dimension, TextEncodeFn encode,
                   ThreadPoolPtr pool);

  [[nodiscard]] std::size_t dimension() const noexcept { return dimension_; }
  [[nodiscard]] const ThreadPoolPtr& pool() const noexcept { return pool_; }

  /// Encodes one sample per string.
  [[nodiscard]] VectorArena encode(std::span<const std::string> rows) const;

 private:
  std::size_t dimension_;
  TextEncodeFn encode_;
  ThreadPoolPtr pool_;
};

}  // namespace hdc::runtime

#endif  // HDC_RUNTIME_BATCH_TEXT_ENCODER_HPP
