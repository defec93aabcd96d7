#include "hdc/core/hypervector.hpp"

#include <algorithm>

#include "hdc/base/require.hpp"

namespace hdc {

HypervectorView::HypervectorView(std::size_t dimension,
                                 std::span<const std::uint64_t> words)
    : dimension_(dimension), words_(words) {
  require(words.size() == bits::words_for(dimension), "HypervectorView",
          "word count must be words_for(dimension)");
  require(dimension == 0 || (words.back() & ~bits::tail_mask(dimension)) == 0,
          "HypervectorView", "tail bits beyond dimension must be zero");
}

bool HypervectorView::bit(std::size_t index) const {
  require_index(index, dimension_, "HypervectorView::bit");
  return bits::get_bit(words_, index);
}

Hypervector::Hypervector(std::size_t dimension)
    : dimension_(dimension), words_(bits::words_for(dimension), 0ULL) {
  require_positive(dimension, "Hypervector", "dimension");
}

Hypervector::Hypervector(HypervectorView view)
    : dimension_(view.dimension()),
      words_(view.words().begin(), view.words().end()) {
  require_positive(dimension_, "Hypervector", "dimension");
}

Hypervector Hypervector::random(std::size_t dimension, Rng& rng) {
  Hypervector hv(dimension);
  for (auto& word : hv.words_) {
    word = rng();
  }
  hv.mask_tail();
  return hv;
}

Hypervector Hypervector::from_bits(std::span<const bool> bits) {
  require(!bits.empty(), "Hypervector::from_bits", "bits must be non-empty");
  Hypervector hv(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) {
      bits::set_bit(hv.words(), i, true);
    }
  }
  return hv;
}

bool Hypervector::bit(std::size_t index) const {
  require_index(index, dimension_, "Hypervector::bit");
  return bits::get_bit(words_, index);
}

void Hypervector::set_bit(std::size_t index, bool value) {
  require_index(index, dimension_, "Hypervector::set_bit");
  bits::set_bit(words_, index, value);
}

void Hypervector::flip_bit(std::size_t index) {
  require_index(index, dimension_, "Hypervector::flip_bit");
  bits::flip_bit(words_, index);
}

void Hypervector::mask_tail() noexcept {
  if (!words_.empty()) {
    words_.back() &= bits::tail_mask(dimension_);
  }
}

Hypervector& Hypervector::operator^=(HypervectorView other) {
  require(dimension_ == other.dimension(), "Hypervector::operator^=",
          "dimension mismatch");
  bits::xor_rows(words_, words_, other.words());
  return *this;
}

Hypervector operator^(HypervectorView a, HypervectorView b) {
  require(!a.empty(), "operator^", "operands must be non-empty");
  Hypervector out(a);
  out ^= b;
  return out;
}

void pack_row(HypervectorView hv, std::span<std::uint64_t> arena,
              std::size_t stride, std::size_t row) {
  const auto words = hv.words();
  std::copy(words.begin(), words.end(), arena.begin() +
                                            static_cast<std::ptrdiff_t>(
                                                row * stride));
}

std::vector<std::uint64_t> pack_words(std::span<const Hypervector> vectors) {
  const std::size_t stride = bits::words_for(vectors.front().dimension());
  std::vector<std::uint64_t> arena(stride * vectors.size());
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    pack_row(vectors[i], arena, stride, i);
  }
  return arena;
}

}  // namespace hdc
