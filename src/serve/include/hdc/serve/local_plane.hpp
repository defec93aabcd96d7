#ifndef HDC_SERVE_LOCAL_PLANE_HPP
#define HDC_SERVE_LOCAL_PLANE_HPP

/// \file local_plane.hpp
/// \brief The in-process prediction plane: one pass per batch over a
/// hot-swappable snapshot.
///
/// `LocalPlane` is what a single-process server predicts with:
///
///  * `reload()` maps and fully validates a replacement off to the side
///    (`io::load_pipeline_or_delta` + `io::ensure_swappable`), then flips
///    the active `ServingState`; batches already predicting finish on
///    theirs.  A delta file patches the last *full* snapshot loaded;
///  * a batch takes the served state and the worker pool (created on the
///    first batch, so a control-only server never pays for one and a bad
///    thread count fails that batch) under the mutex, then answers in one
///    fork-join round: each chunk encodes its rows through the served
///    `io::Pipeline` and answers each one at once with `predict_row()` on
///    its own scratch, writing straight into the batch's `Predictions`.
///    There is no per-batch arena and no engine to build per generation;
///  * `!adapt` feedback lands in an `AdaptiveState` pinned to the active
///    generation, which publishes each adapted model as a `ServingState`;
///    `adapted` predictions (the `!use adapted` side of the A/B) serve the
///    latest one the same way.
///
/// No lock is held across a predict; the batch holds its state, so a
/// reload cannot unmap it mid-batch.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "hdc/io/snapshot.hpp"
#include "hdc/runtime/batch_encoder.hpp"
#include "hdc/serve/adaptive_state.hpp"
#include "hdc/serve/prediction_plane.hpp"
#include "hdc/serve/swap_state.hpp"

namespace hdc::serve {

class LocalPlane final : public PredictionPlane {
 public:
  /// Serves \p initial, which is also the first delta base; reloads number
  /// their generations on from it.  The worker pool is \p pool, or one of
  /// \p num_threads threads (0 = hardware concurrency) created on the first
  /// predict; \p mapping applies to reloaded snapshots, which are always
  /// checksum-verified.  \throws std::invalid_argument if \p initial is
  /// null.
  explicit LocalPlane(ServingStatePtr initial, std::size_t num_threads = 0,
                      io::MappingOptions mapping = {},
                      runtime::ThreadPoolPtr pool = nullptr);

  [[nodiscard]] std::size_t dimension() const override {
    return active()->pipeline().dimension();
  }
  void predict(const RowBatch& batch, HeadMode head, bool adapted,
               Predictions& out) override;
  AdaptOutcome adapt(double target, const RowBatch& sample) override;
  std::uint64_t reload(const std::string& path) override;
  std::uint64_t export_delta(const std::string& out_path) override;
  [[nodiscard]] std::uint64_t generation() const override {
    return active()->generation();
  }
  [[nodiscard]] std::string source_path() const override {
    return active()->source_path();
  }
  [[nodiscard]] bool has_adapted_side() const override { return true; }

 private:
  /// The active generation (never null).
  [[nodiscard]] ServingStatePtr active() const;
  /// What one batch serves: the active generation, or with \p adapted the
  /// latest published adapted state; and the pool, created on first use.
  [[nodiscard]] std::pair<ServingStatePtr, runtime::ThreadPoolPtr> serving(
      bool adapted);
  /// The adaptation pinned to the active generation, created on first use
  /// and replaced (feedback discarded, by design: it targeted a retired
  /// model) whenever a reload has swapped the active state since.
  [[nodiscard]] AdaptiveStatePtr adaptive_state();
  [[nodiscard]] std::string base_path() const;

  std::size_t num_threads_;
  io::MappingOptions mapping_;
  mutable std::mutex mutex_;  ///< Guards the members below, briefly.
  ServingStatePtr active_;
  runtime::ThreadPoolPtr pool_;
  AdaptiveStatePtr adaptive_;
  std::string base_path_;  ///< What delta reloads and `!delta` diff against.
};

}  // namespace hdc::serve

#endif  // HDC_SERVE_LOCAL_PLANE_HPP
