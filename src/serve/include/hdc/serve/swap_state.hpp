#ifndef HDC_SERVE_SWAP_STATE_HPP
#define HDC_SERVE_SWAP_STATE_HPP

/// \file swap_state.hpp
/// \brief One immutable generation of a serving replica's model.
///
/// A long-lived server cannot re-open its snapshot per request, and it
/// cannot drop the mapping while a batch encoded over it is still in
/// flight.  The protocol here is the classic RCU-by-shared_ptr shape:
///
///  * `ServingState` is an immutable bundle — the mmapped snapshot and the
///    pipeline restored over it — refcounted by `shared_ptr`.
///  * `LocalPlane` holds the *active* state.  Every micro-batch copies the
///    pointer and keeps it for the duration of the batch; a reload builds
///    and validates a complete replacement off to the side and flips the
///    pointer in one step.
///  * `!adapt` feedback publishes the same way: `AdaptiveState` wraps each
///    adapted model in a `ServingState` over the base's encoders and
///    mapping, and `!use adapted` batches copy that pointer instead.
///
/// In-flight batches therefore always finish on the mapping they started
/// on, new batches pick up the replacement immediately, and the old
/// mapping is unmapped exactly when its last in-flight holder releases it
/// — no lock is ever held across a predict.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "hdc/io/reload.hpp"

namespace hdc::serve {

/// One immutable generation of the serving model: the snapshot mapping and
/// the pipeline borrowing it, tagged with the generation counter and the
/// path it was loaded from (SIGHUP re-reads that path).
class ServingState {
 public:
  ServingState(io::LoadedPipeline loaded, std::uint64_t generation,
               std::string source_path)
      : snapshot_(std::move(loaded.snapshot)),
        pipeline_(std::move(loaded.pipeline)),
        generation_(generation),
        source_path_(std::move(source_path)) {}

  /// A generation over a pipeline whose snapshot mapping the caller keeps
  /// open for as long as the state lives (the stdin Server's pipeline).
  ServingState(io::Pipeline borrowed, std::uint64_t generation,
               std::string source_path)
      : pipeline_(std::move(borrowed)),
        generation_(generation),
        source_path_(std::move(source_path)) {}

  /// The adapted twin of \p base: \p adapted is base's pipeline with an
  /// adapted model swapped in (io::Pipeline::with_model).  It keeps \p base,
  /// and so its mapping, alive, and carries base's generation and source
  /// path: adaptation publishes a model, not a generation.
  ServingState(std::shared_ptr<const ServingState> base, io::Pipeline adapted)
      : base_(std::move(base)),
        pipeline_(std::move(adapted)),
        generation_(base_->generation()),
        source_path_(base_->source_path()) {}

  [[nodiscard]] const io::Pipeline& pipeline() const noexcept {
    return pipeline_;
  }
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }
  [[nodiscard]] const std::string& source_path() const noexcept {
    return source_path_;
  }

 private:
  /// Declared before the pipeline, which borrows them and so must die
  /// first.  base_ is set only on an adapted state and snapshot_ only on a
  /// loaded one; the mapping never relocates on a move.
  std::shared_ptr<const ServingState> base_;
  std::optional<io::MappedSnapshot> snapshot_;
  io::Pipeline pipeline_;
  std::uint64_t generation_;
  std::string source_path_;
};

using ServingStatePtr = std::shared_ptr<const ServingState>;

}  // namespace hdc::serve

#endif  // HDC_SERVE_SWAP_STATE_HPP
