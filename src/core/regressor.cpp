#include "hdc/core/regressor.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "hdc/base/require.hpp"
#include "hdc/core/ops.hpp"

namespace hdc {

namespace {

std::size_t checked_dimension(const ScalarEncoderPtr& labels) {
  require(labels != nullptr, "HDRegressor", "labels encoder must not be null");
  return labels->dimension();
}

}  // namespace

HDRegressor::HDRegressor(ScalarEncoderPtr labels, std::uint64_t seed)
    : labels_(labels), accumulator_(checked_dimension(labels)) {
  Rng rng(derive_seed(seed, 0x4E64ULL));
  tie_breaker_ = Hypervector::random(dimension(), rng);
}

HDRegressor::HDRegressor(ScalarEncoderPtr labels, restore_t)
    : labels_(std::move(labels)), accumulator_(1) {}

HDRegressor HDRegressor::from_model(ScalarEncoderPtr labels,
                                    Hypervector model) {
  require(labels != nullptr, "HDRegressor::from_model",
          "labels encoder must not be null");
  HDRegressor restored(std::move(labels), restore_t{});
  require(model.dimension() == restored.dimension(), "HDRegressor::from_model",
          "model dimension must match the label encoder");
  restored.model_ = std::move(model);
  restored.finalized_ = true;
  restored.inference_only_ = true;
  return restored;
}

void HDRegressor::require_trainable(const char* where) const {
  if (inference_only_) {
    throw std::logic_error(
        std::string(where) +
        ": model restored from its quantized hypervector is inference-only "
        "(trainable() == false)");
  }
}

void HDRegressor::add_sample(HypervectorView encoded_input, double label) {
  require_trainable("HDRegressor::add_sample");
  require(encoded_input.dimension() == dimension(), "HDRegressor::add_sample",
          "input dimension mismatch");
  accumulator_.add(encoded_input ^ labels_->encode(label));
  finalized_ = false;
}

void HDRegressor::absorb(const BundleAccumulator& partial) {
  require_trainable("HDRegressor::absorb");
  accumulator_.merge(partial);
  finalized_ = false;
}

void HDRegressor::finalize() {
  require_trainable("HDRegressor::finalize");
  model_ = accumulator_.finalize(tie_breaker_);
  finalized_ = true;
}

double HDRegressor::adapt(HypervectorView encoded_input, double target) {
  require_trainable("HDRegressor::adapt");
  if (!finalized_) {
    throw std::logic_error("HDRegressor::adapt: call finalize() first");
  }
  require(encoded_input.dimension() == dimension(), "HDRegressor::adapt",
          "input dimension mismatch");
  const double predicted = predict(encoded_input);
  // Mistakes are judged on the label grid: predicted is already a grid value
  // and any target is quantized by phi_l before it can influence the model.
  if (labels_->index_of(target) != labels_->index_of(predicted)) {
    accumulator_.add(encoded_input ^ labels_->encode(target));
    accumulator_.subtract(encoded_input ^ labels_->encode(predicted));
    model_ = accumulator_.finalize(tie_breaker_);
  }
  return predicted;
}

double HDRegressor::predict(HypervectorView encoded_input) const {
  if (!finalized_) {
    throw std::logic_error("HDRegressor::predict: call finalize() first");
  }
  require(encoded_input.dimension() == dimension(), "HDRegressor::predict",
          "input dimension mismatch");
  // M ⊗ phi(x̂) ≈ phi_l(y); the label encoder's decode() is the cleanup +
  // inverse mapping.
  return labels_->decode(model_ ^ encoded_input);
}

double HDRegressor::predict(std::span<const std::uint64_t> encoded_words,
                            std::span<std::uint64_t> bound) const {
  unbind(encoded_words, bound, "HDRegressor::predict");
  return labels_->decode(row_view(bound, dimension(), bound.size(), 0));
}

BandedValue HDRegressor::predict_with_band(
    std::span<const std::uint64_t> encoded_words,
    std::span<std::uint64_t> bound, std::span<std::size_t> distances) const {
  unbind(encoded_words, bound, "HDRegressor::predict_with_band");
  const Basis& basis = labels_->basis();
  require(distances.size() >= basis.size(), "HDRegressor::predict_with_band",
          "distances must hold one entry per label grid point");
  const std::span<std::size_t> profile = distances.first(basis.size());
  bits::hamming_many(bound, basis.packed_words(), basis.words_per_vector(),
                     basis.size(), profile);
  // The first minimum is the lowest-index argmin decode()'s cleanup picks.
  const double value =
      labels_->decodes_on_basis()
          ? labels_->value_of(static_cast<std::size_t>(
                std::min_element(profile.begin(), profile.end()) -
                profile.begin()))
          : labels_->decode(row_view(bound, dimension(), bound.size(), 0));
  return {value, band_from_distances(profile, *labels_, dimension())};
}

Band HDRegressor::predict_band(HypervectorView encoded_input) const {
  require(encoded_input.dimension() == dimension(),
          "HDRegressor::predict_band", "input dimension mismatch");
  std::vector<std::uint64_t> bound(bits::words_for(dimension()));
  std::vector<std::size_t> distances(labels_->size());
  return predict_with_band(encoded_input.words(), bound, distances).band;
}

void HDRegressor::unbind(std::span<const std::uint64_t> encoded_words,
                         std::span<std::uint64_t> bound,
                         const char* where) const {
  if (!finalized_) {
    throw std::logic_error(std::string(where) + ": call finalize() first");
  }
  const std::size_t words = bits::words_for(dimension());
  require(encoded_words.size() == words && bound.size() == words, where,
          "word spans must hold words_for(dimension()) words");
  bits::xor_rows(bound, model_.words(), encoded_words);
}

double HDRegressor::predict_integer(HypervectorView encoded_input) const {
  require_trainable("HDRegressor::predict_integer");
  require(encoded_input.dimension() == dimension(),
          "HDRegressor::predict_integer", "input dimension mismatch");
  const Basis& basis = labels_->basis();
  std::size_t best_index = 0;
  std::int64_t best_score = std::numeric_limits<std::int64_t>::min();
  // phi(x̂) ⊗ L_l is XORed into one scratch row per label, so the scoring
  // loop never allocates.
  std::vector<std::uint64_t> scratch(bits::words_for(dimension()));
  const auto input = encoded_input.words();
  for (std::size_t l = 0; l < basis.size(); ++l) {
    bits::xor_rows(scratch, input, basis[l].words());
    const std::int64_t score = accumulator_.signed_projection(
        HypervectorView(dimension(), scratch));
    if (score > best_score) {
      best_score = score;
      best_index = l;
    }
  }
  return labels_->value_of(best_index);
}

const Hypervector& HDRegressor::model() const {
  if (!finalized_) {
    throw std::logic_error("HDRegressor::model: call finalize() first");
  }
  return model_;
}

}  // namespace hdc
