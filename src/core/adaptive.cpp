#include "hdc/core/adaptive.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "hdc/base/require.hpp"

namespace hdc {

namespace {

// Tie-breaker salts, disjoint from the trainable models' 0xC1A55 / 0x4E64 so
// an adapted model never correlates with its base's training-time tie
// vector.
constexpr std::uint64_t kAdaptiveClassifierSalt = 0xADC1A55ULL;
constexpr std::uint64_t kAdaptiveRegressorSalt = 0xAD4E64ULL;

}  // namespace

std::size_t checked_class_label(double target, std::size_t num_classes) {
  // `target == floor(target)` also rejects nan; the >= 0 comparison is
  // written to reject -0.5 without tripping on -0.0.
  if (!(target >= 0.0) || target != std::floor(target) ||
      target >= static_cast<double>(num_classes)) {
    throw std::invalid_argument(
        "adapt: classifier target must be an integral class label in [0, " +
        std::to_string(num_classes) + ")");
  }
  return static_cast<std::size_t>(target);
}

AdaptiveClassifier::AdaptiveClassifier(
    std::shared_ptr<const CentroidClassifier> base, std::uint64_t seed)
    : base_(std::move(base)), model_(base_) {
  require(base_ != nullptr, "AdaptiveClassifier",
          "base model must not be null");
  if (!base_->finalized()) {
    throw std::logic_error(
        "AdaptiveClassifier: base model must be finalized before adapting");
  }
  Rng rng(derive_seed(seed, kAdaptiveClassifierSalt));
  tie_breaker_ = Hypervector::random(base_->dimension(), rng);
}

BundleAccumulator& AdaptiveClassifier::accumulator(std::size_t label) {
  const auto [it, fresh] = accumulators_.try_emplace(label, dimension());
  if (fresh) {
    // One majority vote for the snapshot state: counter = bit ? +1 : -1.
    // The original training counters are not serialized, so the finalized
    // row itself is the prior each feedback sample then shifts.
    it->second.add(row_view(base_->packed_class_words(), dimension(),
                            base_->words_per_class(), label));
  }
  return it->second;
}

std::size_t AdaptiveClassifier::adapt(std::size_t label,
                                      HypervectorView encoded) {
  require(label < num_classes(), "AdaptiveClassifier::adapt",
          "label out of range");
  require(encoded.dimension() == dimension(), "AdaptiveClassifier::adapt",
          "sample dimension mismatch");
  const std::size_t predicted = model_->predict(encoded);
  ++seen_;
  if (predicted != label) {
    accumulator(label).add(encoded);
    accumulator(predicted).subtract(encoded);
    // Publish: a copy of the current section with both rows re-thresholded.
    // Readers holding the previous model keep it unchanged.
    const auto current = model_->packed_class_words();
    std::vector<std::uint64_t> arena(current.begin(), current.end());
    for (const std::size_t row : {label, predicted}) {
      pack_row(accumulators_.at(row).finalize(tie_breaker_), arena,
               base_->words_per_class(), row);
    }
    // pack_row(finalize(...)) keeps the tail invariant; skip the re-scan.
    model_ = std::make_shared<const CentroidClassifier>(
        CentroidClassifier::from_packed_class_words(
            num_classes(), dimension(), WordStorage(std::move(arena)),
            unchecked));
    ++updates_;
  }
  return predicted;
}

std::map<std::size_t, std::vector<std::uint64_t>>
AdaptiveClassifier::changed_rows() const {
  const std::size_t stride = model_->words_per_class();
  std::map<std::size_t, std::vector<std::uint64_t>> rows;
  for (const auto& entry : accumulators_) {
    const auto row =
        model_->packed_class_words().subspan(entry.first * stride, stride);
    rows.emplace(entry.first,
                 std::vector<std::uint64_t>(row.begin(), row.end()));
  }
  return rows;
}

void AdaptiveClassifier::reset() noexcept {
  model_ = base_;
  accumulators_.clear();
  seen_ = 0;
  updates_ = 0;
}

AdaptiveRegressor::AdaptiveRegressor(std::shared_ptr<const HDRegressor> base,
                                     std::uint64_t seed)
    : base_(std::move(base)), model_(base_) {
  require(base_ != nullptr, "AdaptiveRegressor", "base model must not be null");
  if (!base_->finalized()) {
    throw std::logic_error(
        "AdaptiveRegressor: base model must be finalized before adapting");
  }
  Rng rng(derive_seed(seed, kAdaptiveRegressorSalt));
  tie_breaker_ = Hypervector::random(base_->dimension(), rng);
}

double AdaptiveRegressor::adapt(HypervectorView encoded_input, double target) {
  require(encoded_input.dimension() == dimension(), "AdaptiveRegressor::adapt",
          "input dimension mismatch");
  const double predicted = model_->predict(encoded_input);
  ++seen_;
  const ScalarEncoder& labels = base_->labels();
  // Compare on the label grid: predicted is already a grid value, and any
  // target is first quantized by phi_l anyway.
  if (labels.index_of(target) != labels.index_of(predicted)) {
    if (!accumulator_.has_value()) {
      accumulator_.emplace(dimension());
      accumulator_->add(base_->model());  // Majority-vote prior, as above.
    }
    accumulator_->add(encoded_input ^ labels.encode(target));
    accumulator_->subtract(encoded_input ^ labels.encode(predicted));
    model_ = std::make_shared<const HDRegressor>(HDRegressor::from_model(
        base_->labels_ptr(), accumulator_->finalize(tie_breaker_)));
    ++updates_;
  }
  return predicted;
}

std::map<std::size_t, std::vector<std::uint64_t>>
AdaptiveRegressor::changed_rows() const {
  std::map<std::size_t, std::vector<std::uint64_t>> rows;
  if (accumulator_.has_value()) {
    const auto words = model_->model().words();
    rows.emplace(0, std::vector<std::uint64_t>(words.begin(), words.end()));
  }
  return rows;
}

void AdaptiveRegressor::reset() noexcept {
  model_ = base_;
  accumulator_.reset();
  seen_ = 0;
  updates_ = 0;
}

}  // namespace hdc
