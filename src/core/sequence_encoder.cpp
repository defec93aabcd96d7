#include "hdc/core/sequence_encoder.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

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
/// \p symbol maps a one-byte string_view to its item vector.  Each window
/// is built in one reused scratch row: the first symbol copied, then every
/// later symbol rotated by its offset and XORed in.
template <typename SymbolFn>
Hypervector bundle_ngrams(std::string_view text, std::size_t n,
                          HypervectorView tie_breaker, const SymbolFn& symbol) {
  require(!text.empty(), "NGramEncoder::encode", "text must be non-empty");
  const std::size_t dimension = tie_breaker.dimension();
  BundleAccumulator acc(dimension);
  std::vector<std::uint64_t> gram(bits::words_for(dimension));
  std::vector<std::uint64_t> rotated(gram.size());
  const std::size_t window = std::min(n, text.size());
  const std::size_t last_start = text.size() - window;
  for (std::size_t start = 0; start <= last_start; ++start) {
    const auto first = symbol(text.substr(start, 1)).words();
    std::copy(first.begin(), first.end(), gram.begin());
    for (std::size_t k = 1; k < window; ++k) {
      const auto next = symbol(text.substr(start + k, 1)).words();
      bits::rotate_left(next, rotated, dimension, k);
      bits::xor_into(gram, rotated);
    }
    acc.add_words(gram);
  }
  return acc.finalize(tie_breaker);
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
