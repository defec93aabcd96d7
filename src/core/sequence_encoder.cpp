#include "hdc/core/sequence_encoder.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "hdc/base/require.hpp"
#include "hdc/core/accumulator.hpp"
#include "hdc/core/ops.hpp"

namespace hdc {

namespace {

Hypervector make_tie_breaker(std::size_t dimension, std::uint64_t seed) {
  Rng rng(derive_seed(seed, 0x71EB4EA4ULL));
  return Hypervector::random(dimension, rng);
}

void warm_all_bytes(ItemMemory& items) {
  for (unsigned b = 0; b < 256; ++b) {
    const char byte = static_cast<char>(b);
    (void)items.get(std::string_view(&byte, 1));
  }
}

const Hypervector& find_byte(const ItemMemory& items, std::string_view symbol,
                             const char* where) {
  const Hypervector* found = items.find(symbol);
  if (found == nullptr) {
    throw std::logic_error(std::string(where) +
                           ": symbol not materialized; call warm_bytes() "
                           "before const encoding");
  }
  return *found;
}

/// The bound-n-gram bundle shared by both NGramEncoder::encode overloads;
/// \p symbol maps a one-byte string_view to its item vector.  Window i
/// binds text[i + k] rotated by k bits for every k < n; the majority
/// kernel builds each window word from funnel shifts of the symbol rows as
/// it loads them, so neither a window row nor a counter row is ever built,
/// and its scratch does not grow with the text.
template <typename SymbolFn>
Hypervector bundle_ngrams(std::string_view text, std::size_t n,
                          HypervectorView tie_breaker, const SymbolFn& symbol) {
  require(!text.empty(), "NGramEncoder::encode", "text must be non-empty");
  std::array<const std::uint64_t*, 256> rows{};
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto byte = static_cast<unsigned char>(text[i]);
    if (rows[byte] == nullptr) {
      rows[byte] = symbol(text.substr(i, 1)).words().data();
    }
  }
  const std::size_t window = std::min(n, text.size());
  bits::MajorityInputs inputs;
  inputs.rows = rows.data();
  inputs.codes = reinterpret_cast<const unsigned char*>(text.data());
  inputs.count = text.size() - window + 1;
  inputs.terms = window;
  const std::size_t dimension = tie_breaker.dimension();
  Hypervector out(dimension);
  bits::majority(inputs, tie_breaker.words(), out.words(), dimension);
  return out;
}

}  // namespace

SequenceEncoder::SequenceEncoder(std::size_t dimension, std::uint64_t seed)
    : items_(dimension, seed),
      tie_breaker_(make_tie_breaker(dimension, seed)) {}

Hypervector SequenceEncoder::encode(std::span<const std::string_view> tokens) {
  require(!tokens.empty(), "SequenceEncoder::encode",
          "token sequence must be non-empty");
  BundleAccumulator acc(dimension());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    acc.add(permute(items_.get(tokens[i]), i + 1));
  }
  return acc.finalize(tie_breaker_);
}

Hypervector SequenceEncoder::encode_word(std::string_view word) {
  require(!word.empty(), "SequenceEncoder::encode_word",
          "word must be non-empty");
  BundleAccumulator acc(dimension());
  for (std::size_t i = 0; i < word.size(); ++i) {
    acc.add(permute(items_.get(std::string_view(&word[i], 1)), i + 1));
  }
  return acc.finalize(tie_breaker_);
}

void SequenceEncoder::warm_bytes() { warm_all_bytes(items_); }

Hypervector SequenceEncoder::encode_word(std::string_view word) const {
  require(!word.empty(), "SequenceEncoder::encode_word",
          "word must be non-empty");
  BundleAccumulator acc(dimension());
  for (std::size_t i = 0; i < word.size(); ++i) {
    acc.add(permute(find_byte(items_, std::string_view(&word[i], 1),
                              "SequenceEncoder::encode_word"),
                    i + 1));
  }
  return acc.finalize(tie_breaker_);
}

NGramEncoder::NGramEncoder(std::size_t dimension, std::size_t n,
                           std::uint64_t seed)
    : items_(dimension, seed), n_(n),
      tie_breaker_(make_tie_breaker(dimension, seed)) {
  require_positive(n, "NGramEncoder", "n");
}

Hypervector NGramEncoder::encode(std::string_view text) {
  const auto symbol = [this](std::string_view byte) -> const Hypervector& {
    return items_.get(byte);
  };
  return bundle_ngrams(text, n_, tie_breaker_, symbol);
}

void NGramEncoder::warm_bytes() { warm_all_bytes(items_); }

Hypervector NGramEncoder::encode(std::string_view text) const {
  const auto symbol = [this](std::string_view byte) -> const Hypervector& {
    return find_byte(items_, byte, "NGramEncoder::encode");
  };
  return bundle_ngrams(text, n_, tie_breaker_, symbol);
}

}  // namespace hdc
