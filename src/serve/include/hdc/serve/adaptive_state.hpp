#ifndef HDC_SERVE_ADAPTIVE_STATE_HPP
#define HDC_SERVE_ADAPTIVE_STATE_HPP

/// \file adaptive_state.hpp
/// \brief Online adaptation behind `!adapt`, published as serving states.
///
/// A `ServingState` is immutable by design — that is what makes the RCU
/// hot swap safe.  Online feedback therefore cannot touch it; instead an
/// `AdaptiveState` pins one serving generation and publishes adapted
/// states next to it (hdc/core/adaptive.hpp):
///
///  * `adapt()` takes one `(features, target)` feedback row, encodes it
///    over the pinned pipeline and applies the mistake-driven update.  An
///    update that changes the model publishes a new `ServingState`: the
///    base's encoders and mapping with a copy of the model section whose
///    touched rows are re-thresholded.  The mmapped base keeps serving
///    untouched, so base and adapted models are A/B-servable from one
///    process (`!use base|adapted`);
///  * `published()` hands out the latest adapted state; the planes serve
///    it like any other generation, and the predict entry points
///    below answer one row over it;
///  * `export_delta()` writes the adapted-vs-base difference as an HDCS v4
///    delta file — every row is compared against the base snapshot *file*,
///    so rows inherited from an earlier delta reload stay in the patch and
///    adapted rows that drifted back to the base drop out.
///
/// One internal mutex serializes the updates and guards the published
/// pointer; readers take it only to copy that pointer, so no lock is held
/// across an encode or a search.  The pinned `ServingStatePtr` keeps the
/// snapshot mapping alive even after a hot swap replaces the active state;
/// the server drops the whole `AdaptiveState` when its generation is no
/// longer the active one (feedback against a retired model is meaningless).

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hdc/core/adaptive.hpp"
#include "hdc/core/confidence.hpp"
#include "hdc/serve/swap_state.hpp"

namespace hdc::serve {

/// What one feedback row did — the `!adapt` reply fields, identical for
/// the local plane and the cluster broadcast (PredictionPlane::adapt).
struct AdaptOutcome {
  double predicted = 0.0;  ///< Pre-update prediction for the feedback row.
  bool updated = false;    ///< Whether the row actually changed the model.
  std::uint64_t feedback_rows = 0;  ///< Feedback rows seen since the pin.
  std::uint64_t updates = 0;        ///< Rows that changed the model.
  std::uint64_t overlay_rows = 0;   ///< Distinct model rows touched so far.
};

/// Adaptation over one pinned serving generation, published as immutable
/// serving states.
class AdaptiveState {
 public:
  /// Pins \p base (which must hold a finalized model); published() is
  /// \p base itself until the first effective adapt().
  /// \throws std::invalid_argument if base is null.
  explicit AdaptiveState(ServingStatePtr base,
                         std::uint64_t seed = kDefaultAdaptSeed);

  /// The pinned generation (compare against the active state to detect
  /// that a reload retired this adaptation).
  [[nodiscard]] const ServingStatePtr& base_state() const noexcept {
    return base_;
  }
  [[nodiscard]] bool classifies() const noexcept {
    return classifier_ != nullptr;
  }

  /// The adapted side of the A/B: the state the latest effective update
  /// published, with the base's generation and source path.  Never null;
  /// a state once handed out never changes.
  [[nodiscard]] ServingStatePtr published() const;

  /// One feedback row: encodes \p features over the pinned pipeline and
  /// applies the mistake-driven update.  Classifier targets must be
  /// integral labels in range (hdc::checked_class_label).
  /// \throws std::invalid_argument on arity, dimension or target errors;
  /// std::logic_error on a text pipeline (use adapt_text).
  AdaptOutcome adapt(std::span<const double> features, double target);

  /// The text twin of adapt(): one raw-text feedback sample.
  /// \throws std::logic_error on a numeric pipeline.
  AdaptOutcome adapt_text(std::string_view text, double target);

  /// adapt() past the encode: one feedback sample already encoded over
  /// the pinned pipeline (the cluster worker decodes and encodes its own
  /// frames).  \throws as adapt().
  AdaptOutcome adapt_encoded(const Hypervector& encoded, double target);

  /// One-row prediction over published() (class index as double for
  /// classifiers) — the "adapted" side of the `!use` A/B.
  /// \throws std::invalid_argument on arity mismatch.
  [[nodiscard]] double predict(std::span<const double> features) const;
  [[nodiscard]] double predict_text(std::string_view text) const;

  /// Head-carrying one-row predictions over published(), the values the
  /// planes' heads give (hdc/core/confidence.hpp).  top2 variants
  /// \throws std::logic_error on regressors, band variants on classifiers;
  /// _text variants on numeric pipelines and the numeric ones on text
  /// pipelines.
  [[nodiscard]] Top2 predict_top2(std::span<const double> features) const;
  [[nodiscard]] Top2 predict_top2_text(std::string_view text) const;
  [[nodiscard]] Band predict_band(std::span<const double> features) const;
  [[nodiscard]] Band predict_band_text(std::string_view text) const;

  /// Counters, as in the adaptation classes.
  [[nodiscard]] std::uint64_t overlay_rows() const;
  [[nodiscard]] std::uint64_t feedback_rows() const;
  [[nodiscard]] std::uint64_t updates() const;

  /// The touched rows in delta form (class index -> packed words).
  [[nodiscard]] std::map<std::size_t, std::vector<std::uint64_t>>
  changed_rows() const;

  /// The rows of published() that differ from model section \p section of
  /// \p base (io::diff_rows): the payload of a delta against that file.
  /// \throws io::SnapshotError when the section's shape disagrees with the
  /// serving model.
  [[nodiscard]] std::map<std::size_t, std::vector<std::uint64_t>> diff_rows(
      const io::MappedSnapshot& base, std::size_t section) const;

  /// Writes the adapted-vs-base difference as a standalone HDCS delta file
  /// at \p out_path and returns the changed-row count.  \p base_path must
  /// be the full snapshot the server tracks as its delta base; the patch
  /// pins its content hash, so `!reload out_path` on any replica of that
  /// base restores a model bit-identical to published().
  /// \throws io::SnapshotError on shape disagreement or write failure;
  /// std::runtime_error when nothing differs from the base.
  std::size_t export_delta(const std::string& base_path,
                           const std::string& out_path) const;

  /// Drops every update; the adapted side is the base again.
  void reset();

 private:
  /// The counter fields of an AdaptOutcome; the caller holds the mutex.
  [[nodiscard]] AdaptOutcome counters() const;

  mutable std::mutex mutex_;
  ServingStatePtr base_;
  ServingStatePtr published_;  ///< Guarded by mutex_.
  std::unique_ptr<AdaptiveClassifier> classifier_;
  std::unique_ptr<AdaptiveRegressor> regressor_;
};

using AdaptiveStatePtr = std::shared_ptr<AdaptiveState>;

}  // namespace hdc::serve

#endif  // HDC_SERVE_ADAPTIVE_STATE_HPP
