#ifndef HDC_SERVE_LOCAL_PLANE_HPP
#define HDC_SERVE_LOCAL_PLANE_HPP

/// \file local_plane.hpp
/// \brief The in-process prediction plane: shared batch engines over a
/// hot-swappable snapshot.
///
/// `LocalPlane` is what a single-process server predicts with:
///
///  * `reload()` maps and fully validates a replacement off to the side
///    (`io::load_pipeline_or_delta` + `io::ensure_swappable`), then flips
///    the active `ServingState`; batches already predicting finish on
///    theirs.  A delta file patches the last *full* snapshot loaded;
///  * the batch engines and the worker pool are built on the first batch
///    after each swap and shared by every caller, so a control-only server
///    never pays for a pool and a bad thread count fails the first batch;
///  * `!adapt` feedback lands in an `AdaptiveState` pinned to the active
///    generation, which publishes each adapted model as a `ServingState`;
///    `adapted` predictions (the `!use adapted` side of the A/B) serve the
///    latest one through the same batch engines, built once per published
///    model.
///
/// No lock is held across a predict.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

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
  struct Engines;

  /// The active generation (never null).
  [[nodiscard]] ServingStatePtr active() const;
  /// The engines of the active generation, or with \p adapted of the
  /// latest published adapted state, built (with the pool) on first use
  /// after each swap or publish.
  [[nodiscard]] std::shared_ptr<const Engines> engines(bool adapted);
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
  std::shared_ptr<const Engines> engines_;
  std::shared_ptr<const Engines> adapted_engines_;
  AdaptiveStatePtr adaptive_;
  std::string base_path_;  ///< What delta reloads and `!delta` diff against.
};

}  // namespace hdc::serve

#endif  // HDC_SERVE_LOCAL_PLANE_HPP
