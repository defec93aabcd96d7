#ifndef HDC_SERVE_ADAPTIVE_STATE_HPP
#define HDC_SERVE_ADAPTIVE_STATE_HPP

/// \file adaptive_state.hpp
/// \brief The serving-side online-adaptation overlay behind `!adapt`.
///
/// A `ServingState` is immutable by design — that is what makes the RCU
/// hot swap safe.  Online feedback therefore cannot touch it; instead an
/// `AdaptiveState` pins one serving generation and grows a copy-on-write
/// overlay (hdc/core/adaptive.hpp) next to it:
///
///  * `adapt()` takes one `(features, target)` feedback row, encodes it
///    over the pinned pipeline and applies the mistake-driven update —
///    only the touched class rows are cloned; the mmapped base keeps
///    serving untouched, so base and adapted generations are A/B-servable
///    from one process (`!use base|adapted`);
///  * `predict()` answers over the overlay (the "adapted" side of the A/B);
///  * `export_delta()` writes the adapted-vs-base difference as an HDCS v4
///    delta file — every row is compared against the base snapshot *file*,
///    so rows inherited from an earlier delta reload stay in the patch and
///    overlay rows that drifted back to the base drop out.
///
/// All methods serialize on one internal mutex: feedback is a low-rate
/// control-plane stream, and `AdaptiveClassifier::adapt` requires external
/// serialization.  The pinned `ServingStatePtr` keeps the snapshot mapping
/// alive even after a hot swap replaces the active state; the server drops
/// the whole `AdaptiveState` when its generation is no longer the active
/// one (feedback against a retired model is meaningless).

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
/// the local overlay and the cluster broadcast (PredictionPlane::adapt).
struct AdaptOutcome {
  double predicted = 0.0;  ///< Pre-update prediction for the feedback row.
  bool updated = false;    ///< Whether the row actually changed the model.
  std::uint64_t feedback_rows = 0;  ///< Feedback rows seen on this overlay.
  std::uint64_t updates = 0;        ///< Rows that changed the model.
  std::uint64_t overlay_rows = 0;   ///< Distinct model rows now overlaid.
};

/// Mutex-guarded adaptation overlay over one pinned serving generation.
class AdaptiveState {
 public:
  /// Pins \p base (which must hold a finalized model) and starts with an
  /// empty overlay: predictions are bit-identical to the base until the
  /// first effective adapt().  \throws std::invalid_argument if base is
  /// null.
  explicit AdaptiveState(ServingStatePtr base,
                         std::uint64_t seed = kDefaultAdaptSeed);

  /// The pinned generation (compare against the active state to detect
  /// that a reload retired this overlay).
  [[nodiscard]] const ServingStatePtr& base_state() const noexcept {
    return base_;
  }
  [[nodiscard]] bool classifies() const noexcept {
    return classifier_ != nullptr;
  }

  /// One feedback row: encodes \p features over the pinned pipeline and
  /// applies the mistake-driven update.  Classifier targets must be
  /// integral labels in range (hdc::checked_class_label).
  /// \throws std::invalid_argument on arity, dimension or target errors;
  /// std::logic_error on a text pipeline (use adapt_text).
  AdaptOutcome adapt(std::span<const double> features, double target);

  /// The text twin of adapt(): one raw-text feedback sample.
  /// \throws std::logic_error on a numeric pipeline.
  AdaptOutcome adapt_text(std::string_view text, double target);

  /// Prediction over the overlay (class index as double for classifiers) —
  /// the "adapted" side of the `!use` A/B switch.
  /// \throws std::invalid_argument on arity mismatch.
  [[nodiscard]] double predict(std::span<const double> features) const;
  [[nodiscard]] double predict_text(std::string_view text) const;

  /// Head-carrying predictions over the overlay, mirroring the batch
  /// engines' heads (hdc/core/confidence.hpp) for the adapted side of the
  /// A/B.  top2 variants \throws std::logic_error on regressor overlays,
  /// band variants on classifier overlays; _text variants on numeric
  /// pipelines and the numeric ones on text pipelines.
  [[nodiscard]] Top2 predict_top2(std::span<const double> features) const;
  [[nodiscard]] Top2 predict_top2_text(std::string_view text) const;
  [[nodiscard]] Band predict_band(std::span<const double> features) const;
  [[nodiscard]] Band predict_band_text(std::string_view text) const;

  /// Counters, as in the overlay classes.
  [[nodiscard]] std::uint64_t overlay_rows() const;
  [[nodiscard]] std::uint64_t feedback_rows() const;
  [[nodiscard]] std::uint64_t updates() const;

  /// The touched rows in delta form (class index -> packed words).
  [[nodiscard]] std::map<std::size_t, std::vector<std::uint64_t>>
  changed_rows() const;

  /// Writes the adapted-vs-base difference as a standalone HDCS delta file
  /// at \p out_path and returns the changed-row count.  \p base_path must
  /// be the full snapshot the server tracks as its delta base; the patch
  /// pins its content hash, so `!reload out_path` on any replica of that
  /// base restores a model bit-identical to this overlay.
  /// \throws io::SnapshotError on shape disagreement or write failure;
  /// std::runtime_error when nothing differs from the base.
  std::size_t export_delta(const std::string& base_path,
                           const std::string& out_path) const;

  /// Drops the overlay; the adapted side is the base again.
  void reset();

 private:
  /// Locked update/readout over an already-encoded feedback row (the
  /// numeric and text entry points share everything past encoding).
  AdaptOutcome adapt_encoded(const Hypervector& encoded, double target);
  [[nodiscard]] double predict_encoded(const Hypervector& encoded) const;
  [[nodiscard]] Top2 top2_encoded(const Hypervector& encoded) const;
  [[nodiscard]] Band band_encoded(const Hypervector& encoded) const;

  mutable std::mutex mutex_;
  ServingStatePtr base_;
  std::unique_ptr<AdaptiveClassifier> classifier_;
  std::unique_ptr<AdaptiveRegressor> regressor_;
};

using AdaptiveStatePtr = std::shared_ptr<AdaptiveState>;

}  // namespace hdc::serve

#endif  // HDC_SERVE_ADAPTIVE_STATE_HPP
