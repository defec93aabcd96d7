#include "hdc/core/basis.hpp"

#include <algorithm>

#include "hdc/base/require.hpp"
#include "hdc/core/ops.hpp"

namespace hdc {

const char* to_string(BasisKind kind) noexcept {
  switch (kind) {
    case BasisKind::Random:
      return "random";
    case BasisKind::Level:
      return "level";
    case BasisKind::Circular:
      return "circular";
    case BasisKind::Scatter:
      return "scatter";
  }
  return "unknown";
}

const char* to_string(LevelMethod method) noexcept {
  switch (method) {
    case LevelMethod::ExactFlip:
      return "exact-flip";
    case LevelMethod::Interpolation:
      return "interpolation";
  }
  return "unknown";
}

Basis::Basis(BasisInfo info, std::vector<Hypervector> vectors) : info_(info) {
  require(!vectors.empty(), "Basis", "vector set must be non-empty");
  require(info_.size == vectors.size(), "Basis",
          "info.size must match the number of vectors");
  for (const Hypervector& hv : vectors) {
    require(hv.dimension() == info_.dimension, "Basis",
            "all vectors must have info.dimension dimensions");
  }
  words_per_vector_ = bits::words_for(info_.dimension);
  packed_ = pack_words(vectors);
  packed_.shrink_to_fit();
}

Basis::Basis(BasisInfo info, std::vector<std::uint64_t> packed_words)
    : Basis(info, WordStorage(std::move(packed_words))) {}

Basis::Basis(BasisInfo info, std::span<const std::uint64_t> packed_words,
             borrow_t)
    : Basis(info, WordStorage(packed_words, borrowed)) {}

Basis::Basis(BasisInfo info, WordStorage storage)
    : info_(info),
      packed_(std::move(storage)),
      words_per_vector_(bits::words_for(info.dimension)) {
  // An owning arena a caller grew incrementally can carry up to 2x slack
  // capacity; drop it so resident_bytes() reflects the data.
  packed_.shrink_to_fit();
  require(info_.size > 0, "Basis", "info.size must be positive");
  require_positive(info_.dimension, "Basis", "info.dimension");
  const auto words = packed_.words();
  // Division form so a crafted info.size cannot overflow the multiply and
  // slip an undersized arena past validation.
  require(words.size() % words_per_vector_ == 0 &&
              words.size() / words_per_vector_ == info_.size,
          "Basis",
          "packed word count must be info.size * words_for(info.dimension)");
  const std::uint64_t tail = bits::tail_mask(info_.dimension);
  for (std::size_t i = 0; i < info_.size; ++i) {
    require((words[(i + 1) * words_per_vector_ - 1] & ~tail) == 0, "Basis",
            "arena row has set bits beyond the dimension");
  }
}

HypervectorView Basis::at(std::size_t i) const {
  require_index(i, info_.size, "Basis::at");
  return (*this)[i];
}

std::size_t Basis::nearest(HypervectorView query) const {
  require(query.dimension() == info_.dimension, "Basis::nearest",
          "query dimension mismatch");
  return nearest_words(query.words());
}

std::size_t Basis::nearest_words(
    std::span<const std::uint64_t> query_words) const {
  require(query_words.size() == words_per_vector_, "Basis::nearest_words",
          "query word count must equal words_per_vector()");
  return bits::nearest_hamming(query_words, packed_.words(), words_per_vector_,
                               info_.size)
      .index;
}

std::vector<std::vector<double>> Basis::pairwise_distances() const {
  const std::size_t m = info_.size;
  const auto d = static_cast<double>(info_.dimension);
  std::vector<std::vector<double>> out(m, std::vector<double>(m, 0.0));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      const double dist =
          static_cast<double>(
              bits::hamming((*this)[i].words(), (*this)[j].words())) /
          d;
      out[i][j] = dist;
      out[j][i] = dist;
    }
  }
  return out;
}

std::vector<std::vector<double>> Basis::pairwise_similarities() const {
  std::vector<std::vector<double>> out = pairwise_distances();
  for (auto& row : out) {
    for (double& value : row) {
      value = 1.0 - value;
    }
  }
  return out;
}

}  // namespace hdc
