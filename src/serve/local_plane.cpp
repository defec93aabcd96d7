#include "hdc/serve/local_plane.hpp"

#include <stdexcept>
#include <utility>

#include "hdc/core/hypervector.hpp"
#include "hdc/io/delta.hpp"

namespace hdc::serve {

LocalPlane::LocalPlane(ServingStatePtr initial, std::size_t num_threads,
                       io::MappingOptions mapping,
                       runtime::ThreadPoolPtr pool)
    : num_threads_(num_threads),
      mapping_(mapping),
      active_(std::move(initial)),
      pool_(std::move(pool)) {
  if (active_ == nullptr) {
    throw std::invalid_argument("LocalPlane: initial state must not be null");
  }
  set_shape(active_->pipeline());
  base_path_ = active_->source_path();
}

ServingStatePtr LocalPlane::active() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return active_;
}

std::string LocalPlane::base_path() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return base_path_;
}

std::pair<ServingStatePtr, runtime::ThreadPoolPtr> LocalPlane::serving(
    bool adapted) {
  // The adapted side serves whatever the adaptation last published.
  ServingStatePtr state = adapted ? adaptive_state()->published() : nullptr;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (pool_ == nullptr) {
    pool_ = std::make_shared<runtime::ThreadPool>(num_threads_);
  }
  return {adapted ? std::move(state) : active_, pool_};
}

AdaptiveStatePtr LocalPlane::adaptive_state() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!adaptive_ || adaptive_->base_state() != active_) {
    adaptive_ = std::make_shared<AdaptiveState>(active_);
  }
  return adaptive_;
}

void LocalPlane::predict(const RowBatch& batch, HeadMode head, bool adapted,
                         Predictions& out) {
  const bool text = input() == io::PipelineInput::Text;
  if (text ? !batch.rows.empty() : !batch.text_rows.empty()) {
    throw std::logic_error(
        "LocalPlane::predict: the rows disagree with the pipeline's input "
        "mode");
  }
  const std::size_t count = text ? batch.text_rows.size() : batch.rows.size();
  const bool classifies = kind() == io::PipelineKind::Classifier;
  const bool confidence = classifies && head == HeadMode::Confidence;
  const bool band = !classifies && head == HeadMode::Band;
  out.values.assign(count, 0.0);
  out.confidences.assign(confidence ? count : 0, 0.0);
  out.bands.assign(band ? count : 0, Band{});
  if (count == 0) {
    return;
  }
  // Held until the batch is answered, so a reload cannot unmap it.
  const auto [state, pool] = serving(adapted);
  const io::Pipeline& pipeline = state->pipeline();
  pool->for_chunks(count, [&](std::size_t begin, std::size_t end,
                              std::size_t /*chunk*/) {
    RowScratch scratch(pipeline);
    for (std::size_t i = begin; i < end; ++i) {
      const Hypervector encoded = text
                                      ? pipeline.encode_text(batch.text_rows[i])
                                      : pipeline.encode(batch.rows[i]);
      const RowAnswer answer =
          predict_row(pipeline, encoded.words(), head, scratch);
      out.values[i] = answer.value;
      if (confidence) {
        out.confidences[i] = answer.confidence;
      } else if (band) {
        out.bands[i] = answer.band;
      }
    }
  });
}

AdaptOutcome LocalPlane::adapt(double target, const RowBatch& sample) {
  const AdaptiveStatePtr state = adaptive_state();
  return input() == io::PipelineInput::Text
             ? state->adapt_text(sample.text_rows.front(), target)
             : state->adapt(sample.rows.front(), target);
}

std::uint64_t LocalPlane::reload(const std::string& path) {
  const std::string resolved = path.empty() ? source_path() : path;
  // A delta file is applied in memory against the tracked base; a full
  // snapshot loads as before and *becomes* the tracked base.  The check
  // runs before the load so base tracking and loading agree on what the
  // file was even if it changes on disk mid-reload (the loaded bytes are
  // authoritative either way: validation rejects torn files).
  const bool is_delta = io::snapshot_is_delta(resolved);
  io::LoadedPipeline fresh = io::load_pipeline_or_delta(
      resolved, base_path(), io::SnapshotIntegrity::Checksum, mapping_);
  const std::lock_guard<std::mutex> lock(mutex_);
  // Same kind and arity, or the incumbent keeps serving untouched.
  io::ensure_swappable(fresh.pipeline, active_->pipeline());
  active_ = std::make_shared<const ServingState>(
      std::move(fresh), active_->generation() + 1, resolved);
  if (!is_delta) {
    base_path_ = resolved;
  }
  return active_->generation();
}

std::uint64_t LocalPlane::export_delta(const std::string& out_path) {
  return adaptive_state()->export_delta(base_path(), out_path);
}

}  // namespace hdc::serve
