#include "hdc/core/sequence_encoder.hpp"

#include <algorithm>
#include <array>

#include "hdc/base/require.hpp"

namespace hdc {

namespace {

Hypervector make_tie_breaker(std::size_t dimension, std::uint64_t seed) {
  Rng rng(derive_seed(seed, 0x71EB4EA4ULL));
  return Hypervector::random(dimension, rng);
}

/// Row b is the vector an ItemMemory of (dimension, seed) assigns to the
/// one-byte symbol b.
std::vector<std::uint64_t> make_byte_table(std::size_t dimension,
                                           std::uint64_t seed) {
  const std::size_t stride = bits::words_for(dimension);
  std::vector<std::uint64_t> table(256 * stride);
  for (unsigned b = 0; b < 256; ++b) {
    const char byte = static_cast<char>(b);
    pack_row(ItemMemory::derive(dimension, seed, std::string_view(&byte, 1)),
             table, stride, b);
  }
  return table;
}

/// The rows of a byte table, gathered per call so that an encoder holds no
/// pointer into its own storage and stays safe to copy.
std::array<const std::uint64_t*, 256> byte_rows(
    const std::vector<std::uint64_t>& table) {
  const std::size_t stride = table.size() / 256;
  std::array<const std::uint64_t*, 256> rows{};
  for (std::size_t b = 0; b < rows.size(); ++b) {
    rows[b] = table.data() + b * stride;
  }
  return rows;
}

Hypervector bundle(const bits::MajorityInputs& inputs,
                   const Hypervector& tie_breaker) {
  Hypervector out(tie_breaker.dimension());
  bits::majority(inputs, tie_breaker.words(), out.words(),
                 tie_breaker.dimension());
  return out;
}

}  // namespace

SequenceEncoder::SequenceEncoder(std::size_t dimension, std::uint64_t seed)
    : items_(dimension, seed),
      bytes_(make_byte_table(dimension, seed)),
      tie_breaker_(make_tie_breaker(dimension, seed)) {}

Hypervector SequenceEncoder::encode(std::span<const std::string_view> tokens) {
  require(!tokens.empty(), "SequenceEncoder::encode",
          "token sequence must be non-empty");
  std::vector<const std::uint64_t*> rows(tokens.size());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    rows[i] = items_.get(tokens[i]).words().data();
  }
  bits::MajorityInputs inputs;
  inputs.rows = rows.data();
  inputs.count = tokens.size();
  inputs.positional = true;
  return bundle(inputs, tie_breaker_);
}

Hypervector SequenceEncoder::encode_word(std::string_view word) const {
  require(!word.empty(), "SequenceEncoder::encode_word",
          "word must be non-empty");
  const auto rows = byte_rows(bytes_);
  bits::MajorityInputs inputs;
  inputs.rows = rows.data();
  inputs.codes = reinterpret_cast<const unsigned char*>(word.data());
  inputs.count = word.size();
  inputs.positional = true;
  return bundle(inputs, tie_breaker_);
}

NGramEncoder::NGramEncoder(std::size_t dimension, std::size_t n,
                           std::uint64_t seed)
    : n_(n), seed_(seed),
      tie_breaker_(make_tie_breaker(dimension, seed)),
      bytes_(make_byte_table(dimension, seed)) {
  require_positive(n, "NGramEncoder", "n");
}

Hypervector NGramEncoder::encode(std::string_view text) const {
  require(!text.empty(), "NGramEncoder::encode", "text must be non-empty");
  // Window i binds text[i + k] rotated by k bits for every k < n; the
  // majority kernel builds each window word from funnel shifts of the
  // symbol rows as it loads them, so neither a window row nor a counter
  // row is ever built, and its scratch does not grow with the text.
  const auto rows = byte_rows(bytes_);
  const std::size_t window = std::min(n_, text.size());
  bits::MajorityInputs inputs;
  inputs.rows = rows.data();
  inputs.codes = reinterpret_cast<const unsigned char*>(text.data());
  inputs.count = text.size() - window + 1;
  inputs.terms = window;
  return bundle(inputs, tie_breaker_);
}

}  // namespace hdc
