#ifndef HDC_CORE_REGRESSOR_HPP
#define HDC_CORE_REGRESSOR_HPP

/// \file regressor.hpp
/// \brief The HDC regression framework (Section 2.3).
///
/// Training memorizes samples in a single hypervector
///   M = ⊕_i phi(x_i) ⊗ phi_l(y_i),
/// where phi_l is an *invertible* label encoder over a level basis.
/// Inference exploits the self-inverse binding:  M ⊗ phi(x̂) ≈ phi_l(y), so
/// the predicted label is the decoded nearest label-basis vector.
///
/// Two inference paths are provided:
///  * `predict()` — the paper-faithful path: M is the majority-quantized
///    binary model;
///  * `predict_integer()` — extension: skips quantization and scores each
///    label vector by the signed projection of the integer accumulator,
///    which preserves per-sample magnitudes.

#include <cstdint>
#include <span>

#include "hdc/core/accumulator.hpp"
#include "hdc/core/confidence.hpp"
#include "hdc/core/scalar_encoder.hpp"

namespace hdc {

/// A point prediction and its band, read from one label-grid sweep.
struct BandedValue {
  double value = 0.0;
  Band band{};
};

/// Single-hypervector HDC regressor.
class HDRegressor {
 public:
  /// \param labels  Invertible label encoder phi_l (shared, non-null).
  /// \throws std::invalid_argument if labels is null.
  HDRegressor(ScalarEncoderPtr labels, std::uint64_t seed);

  /// Restores an inference-only regressor from its quantized model
  /// hypervector (the serialization/snapshot path).  The result predicts
  /// immediately; training updates (add_sample/absorb) and the
  /// integer-accumulator path (predict_integer) throw std::logic_error
  /// because the accumulator is not part of the serialized state — query
  /// `trainable()` first instead of relying on the throw.
  /// \throws std::invalid_argument if labels is null or the model dimension
  /// does not match the label encoder.
  [[nodiscard]] static HDRegressor from_model(ScalarEncoderPtr labels,
                                              Hypervector model);

  /// False for models restored by from_model(): every mutator and the
  /// accumulator-backed predict_integer() would throw std::logic_error.
  [[nodiscard]] bool trainable() const noexcept { return !inference_only_; }

  /// True for models restored by from_model().
  [[nodiscard]] bool inference_only() const noexcept { return inference_only_; }

  [[nodiscard]] std::size_t dimension() const noexcept {
    return labels_->dimension();
  }
  [[nodiscard]] std::size_t sample_count() const noexcept {
    return accumulator_.count();
  }
  [[nodiscard]] const ScalarEncoder& labels() const noexcept { return *labels_; }

  /// The shared label encoder itself, for adapters/serializers that must
  /// keep phi_l alive beyond this object (e.g. AdaptiveRegressor,
  /// from_model() round trips).
  [[nodiscard]] const ScalarEncoderPtr& labels_ptr() const noexcept {
    return labels_;
  }

  /// Accumulates one training pair (phi(x) given encoded, label y).
  /// \throws std::invalid_argument on dimension mismatch; std::logic_error
  /// on inference-only models.
  void add_sample(HypervectorView encoded_input, double label);

  /// Merges a partial accumulation of already label-bound samples
  /// (phi(x_i) ⊗ phi_l(y_i)), e.g. one worker's share of a batch; absorbing
  /// per-worker accumulators in any order equals the sequential add_sample
  /// stream.  \throws std::invalid_argument on dimension mismatch.
  void absorb(const BundleAccumulator& partial);

  /// Quantizes the accumulated model.  Must be called before predict().
  /// \throws std::logic_error on inference-only models.
  void finalize();

  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

  /// Extension: one mistake-driven update, the regression counterpart of
  /// CentroidClassifier::adapt().  Predicts \p encoded_input; when the
  /// decoded grid point differs from \p target's, adds
  /// phi(x̂) ⊗ phi_l(target), subtracts phi(x̂) ⊗ phi_l(predicted), and
  /// re-quantizes the model, so it stays finalized and queryable-consistent
  /// after every call.  Returns the (pre-update) prediction.
  /// \throws std::logic_error if not finalized or inference-only;
  /// std::invalid_argument on dimension mismatch.
  double adapt(HypervectorView encoded_input, double target);

  /// Paper-faithful prediction: decode(M ⊗ phi(x̂)) via the label basis.
  /// \throws std::logic_error if not finalized; std::invalid_argument on
  /// dimension mismatch.
  [[nodiscard]] double predict(HypervectorView encoded_input) const;

  /// predict() on raw words and caller scratch, allocating nothing:
  /// M ⊗ phi(x̂) is unbound into \p bound, then decoded.  Both spans hold
  /// words_for(dimension()) words; \p encoded_words has zero tail bits.
  /// \throws as predict(), or std::invalid_argument on a span size
  /// mismatch.
  [[nodiscard]] double predict(std::span<const std::uint64_t> encoded_words,
                               std::span<std::uint64_t> bound) const;

  /// predict() and predict_band() from one label-grid sweep on caller
  /// scratch: the unbound query goes to \p bound (as in the overload
  /// above), its distance to each label-basis vector to
  /// distances[0..labels().size()), and the band is read from that
  /// profile.  The value is the profile's lowest-index argmin when the
  /// label encoder decodes on its basis (every encoder a snapshot
  /// restores); otherwise decode() runs on the unbound query.  Either way
  /// it equals predict().  \throws as the overload above, or
  /// std::invalid_argument if \p distances is too short.
  [[nodiscard]] BandedValue predict_with_band(
      std::span<const std::uint64_t> encoded_words,
      std::span<std::uint64_t> bound, std::span<std::size_t> distances) const;

  /// Distributional prediction: the p10/p50/p90 weighted-quantile band of
  /// the label grid under the similarity profile of M ⊗ phi(x̂)
  /// (band_from_distances()), from predict_with_band()'s sweep.  Same
  /// preconditions as predict().
  [[nodiscard]] Band predict_band(HypervectorView encoded_input) const;

  /// Extension: integer-accumulator prediction.  For each label vector L_l,
  /// scores the signed projection of the accumulator onto phi(x̂) ⊗ L_l and
  /// returns the value of the best-scoring label.  Does not require
  /// finalize().  \throws std::invalid_argument on dimension mismatch;
  /// std::logic_error on inference-only models (no accumulator state).
  [[nodiscard]] double predict_integer(HypervectorView encoded_input) const;

  /// The quantized model hypervector M.
  /// \throws std::logic_error if not finalized.
  [[nodiscard]] const Hypervector& model() const;

 private:
  /// Restore-path shell: skips the O(dimension) accumulator and tie-breaker
  /// state an inference-only model can never reach (cold-starting a mapped
  /// snapshot must not pay for training machinery).
  struct restore_t {};
  HDRegressor(ScalarEncoderPtr labels, restore_t);

  void require_trainable(const char* where) const;
  /// bound = M ⊗ encoded, after the finalized and span-size checks of the
  /// scratch readouts (\p where names the caller in the error).
  void unbind(std::span<const std::uint64_t> encoded_words,
              std::span<std::uint64_t> bound, const char* where) const;

  ScalarEncoderPtr labels_;
  /// 1-slot placeholder on inference-only models (see restore_t).
  BundleAccumulator accumulator_;
  Hypervector model_;
  Hypervector tie_breaker_;  ///< Empty on inference-only models.
  bool finalized_ = false;
  bool inference_only_ = false;
};

}  // namespace hdc

#endif  // HDC_CORE_REGRESSOR_HPP
