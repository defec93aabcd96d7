#include "hdc/runtime/batch_regressor.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "hdc/base/require.hpp"
#include "hdc/core/bitops.hpp"

namespace hdc::runtime {

BatchRegressor::BatchRegressor(ScalarEncoderPtr labels, std::uint64_t seed,
                               ThreadPoolPtr pool)
    : model_(std::move(labels), seed), pool_(std::move(pool)) {
  require(pool_ != nullptr, "BatchRegressor", "pool must not be null");
}

BatchRegressor::BatchRegressor(HDRegressor model, ThreadPoolPtr pool)
    : model_(std::move(model)), pool_(std::move(pool)) {
  require(pool_ != nullptr, "BatchRegressor", "pool must not be null");
  require(model_.finalized(), "BatchRegressor",
          "adopted model must be finalized");
}

void BatchRegressor::fit(const VectorArena& inputs,
                         std::span<const double> labels) {
  require(inputs.size() == labels.size(), "BatchRegressor::fit",
          "one label per input required");
  require(inputs.dimension() == dimension(), "BatchRegressor::fit",
          "input dimension mismatch");
  if (inputs.empty()) {
    return;
  }

  const std::size_t chunks = pool_->num_chunks(inputs.size());
  std::vector<BundleAccumulator> partials;
  partials.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    partials.emplace_back(dimension());
  }

  const ScalarEncoder& label_encoder = model_.labels();
  pool_->for_chunks(inputs.size(), [&](std::size_t begin, std::size_t end,
                                       std::size_t chunk) {
    BundleAccumulator& mine = partials[chunk];
    // Per-chunk scratch: phi(x_i) ⊗ phi_l(y_i) is rebuilt in place per row,
    // so the hot loop never allocates.
    Hypervector bound(dimension());
    const auto scratch = bound.words();
    for (std::size_t i = begin; i < end; ++i) {
      const auto input = inputs.words(i);
      const auto label_words = label_encoder.encode(labels[i]).words();
      for (std::size_t w = 0; w < scratch.size(); ++w) {
        scratch[w] = input[w] ^ label_words[w];
      }
      mine.add_words(scratch);
    }
  });

  for (const BundleAccumulator& partial : partials) {
    model_.absorb(partial);
  }
}

void BatchRegressor::fit_finalize(const VectorArena& inputs,
                                  std::span<const double> labels) {
  fit(inputs, labels);
  model_.finalize();
}

std::vector<double> BatchRegressor::predict(const VectorArena& queries) const {
  if (!model_.finalized()) {
    throw std::logic_error(
        "BatchRegressor::predict: call model().finalize() before inference");
  }
  require(queries.dimension() == dimension(), "BatchRegressor::predict",
          "query dimension mismatch");
  std::vector<double> out(queries.size());
  pool_->for_chunks(queries.size(), [&](std::size_t begin, std::size_t end,
                                        std::size_t /*chunk*/) {
    // Per-chunk scratch: M ⊗ query is rebuilt in place for each row.
    std::vector<std::uint64_t> bound(bits::words_for(dimension()));
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = model_.predict(queries.words(i), bound);
    }
  });
  return out;
}

std::vector<Band> BatchRegressor::predict_band(
    const VectorArena& queries) const {
  if (!model_.finalized()) {
    throw std::logic_error(
        "BatchRegressor::predict_band: call model().finalize() before "
        "inference");
  }
  require(queries.dimension() == dimension(), "BatchRegressor::predict_band",
          "query dimension mismatch");
  std::vector<Band> out(queries.size());
  pool_->for_chunks(queries.size(), [&](std::size_t begin, std::size_t end,
                                        std::size_t /*chunk*/) {
    // Per-chunk scratch (bound query + distance profile) reused across
    // rows so the hot loop never allocates.
    std::vector<std::uint64_t> bound(bits::words_for(dimension()));
    std::vector<std::size_t> distances(model_.labels().size());
    for (std::size_t i = begin; i < end; ++i) {
      out[i] =
          model_.predict_with_band(queries.words(i), bound, distances).band;
    }
  });
  return out;
}

std::vector<double> BatchRegressor::predict_integer(
    const VectorArena& queries) const {
  require(queries.dimension() == dimension(),
          "BatchRegressor::predict_integer", "query dimension mismatch");
  std::vector<double> out(queries.size());
  pool_->for_chunks(queries.size(), [&](std::size_t begin, std::size_t end,
                                        std::size_t /*chunk*/) {
    // Per-chunk scratch reused across rows so the hot loop never allocates.
    Hypervector scratch(dimension());
    const auto scratch_words = scratch.words();
    for (std::size_t i = begin; i < end; ++i) {
      const auto row = queries.words(i);
      std::copy(row.begin(), row.end(), scratch_words.begin());
      out[i] = model_.predict_integer(scratch);
    }
  });
  return out;
}

}  // namespace hdc::runtime
