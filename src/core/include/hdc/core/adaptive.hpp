#ifndef HDC_CORE_ADAPTIVE_HPP
#define HDC_CORE_ADAPTIVE_HPP

/// \file adaptive.hpp
/// \brief Online adaptation over restored (borrowed) models, published as
/// immutable models.
///
/// Restored models are inference-only by design: their integer accumulators
/// are not part of the serialized state, and a snapshot-backed arena is a
/// read-only mapping that must never be written.  Production models drift
/// anyway, so serving needs the OnlineHD-style mistake-driven refinement
/// *without* giving up the zero-copy base.  The classes here provide
/// exactly that:
///
///  * the base model (typically borrowed straight off an
///    `hdc::io::MappedSnapshot`) stays untouched and keeps serving;
///  * the first `adapt()` that touches a row seeds an accumulator from the
///    row's bits (counter = bit ? +1 : -1 — one majority vote for the
///    snapshot state), so accumulators exist only for *touched* rows;
///  * every update that changes the model publishes a new immutable owning
///    model: a copy of the model section with the re-thresholded rows
///    patched in, the same bytes `hdc::io::apply_delta` produces.  `model()`
///    hands it out, and readers serve it like any other model.  A published
///    model never changes, so an untouched adapter serves the base itself.
///
/// The touched rows are exactly the payload of an HDCS v4 delta section
/// (`hdc::io::SnapshotWriter::add_delta`): an adapted model ships as base +
/// small patch instead of a full snapshot.
///
/// Determinism: two adapters built with the same seed over the same base
/// and fed the same feedback stream publish bit-identical models — the
/// property the cluster layer relies on when broadcasting `!adapt` feedback
/// to every rank.
///
/// Thread safety: const members are safe to call concurrently; `adapt()` and
/// `reset()` are not (callers serialize, e.g. `hdc::serve::AdaptiveState`).
/// A model handed out by `model()` stays valid for as long as its holder
/// keeps it.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "hdc/core/accumulator.hpp"
#include "hdc/core/classifier.hpp"
#include "hdc/core/hypervector.hpp"
#include "hdc/core/regressor.hpp"

namespace hdc {

/// Default adaptation seed shared by every serving layer.  Replicas fed the
/// same feedback stream must publish bit-identical models (the cluster
/// broadcast correctness condition), so they must also agree on the
/// tie-breaker derivation — one well-known seed, overridable only when a
/// caller owns determinism end to end.
inline constexpr std::uint64_t kDefaultAdaptSeed = 0xADA57A7EULL;

/// Validates a feedback target for an N-class classifier: must be an
/// integral value in [0, num_classes).  Returns it as a class label.
/// \throws std::invalid_argument otherwise (the wire carries targets as
/// doubles, so "2.5" or "-1" must fail here, not truncate silently).
[[nodiscard]] std::size_t checked_class_label(double target,
                                              std::size_t num_classes);

/// Mistake-driven classifier adaptation over a shared, finalized (usually
/// snapshot-backed) `CentroidClassifier`.
class AdaptiveClassifier {
 public:
  /// \param base  Finalized base model; shared, because model() hands it
  /// out until the first effective update.
  /// \param seed  Derives the deterministic majority tie-breaker.
  /// \throws std::invalid_argument if base is null;
  /// std::logic_error if base is not finalized.
  AdaptiveClassifier(std::shared_ptr<const CentroidClassifier> base,
                     std::uint64_t seed);

  [[nodiscard]] std::size_t num_classes() const noexcept {
    return base_->num_classes();
  }
  [[nodiscard]] std::size_t dimension() const noexcept {
    return base_->dimension();
  }
  [[nodiscard]] const CentroidClassifier& base() const noexcept {
    return *base_;
  }

  /// The model to serve: the base until the first effective adapt(), then
  /// the model the latest one published.  Never null.
  [[nodiscard]] const std::shared_ptr<const CentroidClassifier>& model()
      const noexcept {
    return model_;
  }

  /// One mistake-driven update: predicts \p encoded over model(); on a miss
  /// adds the sample to the true class's accumulator, subtracts it from the
  /// predicted one's (each seeded from its row on first touch), and
  /// publishes a new model with both rows re-thresholded.  There is no
  /// finalize() step to forget.  Returns the pre-update prediction.
  /// \throws std::invalid_argument on bad label or dimension mismatch.
  std::size_t adapt(std::size_t label, HypervectorView encoded);

  /// The touched rows of model(), keyed by class index in ascending order —
  /// exactly the per-class changed-row patches of an HDCS delta section.
  [[nodiscard]] std::map<std::size_t, std::vector<std::uint64_t>>
  changed_rows() const;

  /// Number of classes with an accumulator.
  [[nodiscard]] std::size_t touched_classes() const noexcept {
    return accumulators_.size();
  }
  /// Feedback rows seen / rows that actually updated the model.
  [[nodiscard]] std::uint64_t feedback_rows() const noexcept { return seen_; }
  [[nodiscard]] std::uint64_t updates() const noexcept { return updates_; }

  /// Drops every accumulator: the model is the base again.
  void reset() noexcept;

 private:
  /// Class \p label's accumulator, seeded from its base row on first touch.
  BundleAccumulator& accumulator(std::size_t label);

  std::shared_ptr<const CentroidClassifier> base_;
  std::shared_ptr<const CentroidClassifier> model_;
  std::map<std::size_t, BundleAccumulator> accumulators_;
  Hypervector tie_breaker_;
  std::uint64_t seen_ = 0;
  std::uint64_t updates_ = 0;
};

/// Mistake-driven regressor adaptation over a shared, finalized (usually
/// snapshot-backed) `HDRegressor`.
class AdaptiveRegressor {
 public:
  /// \throws std::invalid_argument if base is null; std::logic_error if
  /// base is not finalized.
  AdaptiveRegressor(std::shared_ptr<const HDRegressor> base,
                    std::uint64_t seed);

  [[nodiscard]] std::size_t dimension() const noexcept {
    return base_->dimension();
  }
  [[nodiscard]] const HDRegressor& base() const noexcept { return *base_; }

  /// The model to serve, as AdaptiveClassifier::model(); it shares the
  /// base's label encoder.  Never null.
  [[nodiscard]] const std::shared_ptr<const HDRegressor>& model()
      const noexcept {
    return model_;
  }

  /// One mistake-driven update, mirroring `HDRegressor::adapt`: on a decoded
  /// value that differs from \p target, adds phi(x̂) ⊗ phi_l(target),
  /// subtracts phi(x̂) ⊗ phi_l(predicted), and publishes the re-thresholded
  /// model row (the accumulator is seeded from the base row on first
  /// touch).  Returns the pre-update prediction.
  /// \throws std::invalid_argument on dimension mismatch.
  double adapt(HypervectorView encoded_input, double target);

  /// True once adapt() has touched the model row.
  [[nodiscard]] bool touched() const noexcept {
    return accumulator_.has_value();
  }
  [[nodiscard]] std::uint64_t feedback_rows() const noexcept { return seen_; }
  [[nodiscard]] std::uint64_t updates() const noexcept { return updates_; }

  /// The changed rows in delta-patch form: empty when untouched, else the
  /// single model row at index 0.
  [[nodiscard]] std::map<std::size_t, std::vector<std::uint64_t>>
  changed_rows() const;

  /// Drops the accumulator: the model is the base again.
  void reset() noexcept;

 private:
  std::shared_ptr<const HDRegressor> base_;
  std::shared_ptr<const HDRegressor> model_;
  std::optional<BundleAccumulator> accumulator_;
  Hypervector tie_breaker_;
  std::uint64_t seen_ = 0;
  std::uint64_t updates_ = 0;
};

}  // namespace hdc

#endif  // HDC_CORE_ADAPTIVE_HPP
