#include "hdc/serve/local_plane.hpp"

#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "hdc/io/delta.hpp"
#include "hdc/runtime/batch_classifier.hpp"
#include "hdc/runtime/batch_regressor.hpp"
#include "hdc/runtime/batch_text_encoder.hpp"

namespace hdc::serve {

/// Everything one generation's batches need, bundled so a hot swap replaces
/// it wholesale.  `state` is declared first: members are destroyed in
/// reverse order, so the engines borrowing the mapping die before the
/// bundle that may hold its last reference.
struct LocalPlane::Engines {
  ServingStatePtr state;
  std::optional<runtime::BatchEncoder> encoder;
  std::optional<runtime::BatchTextEncoder> text_encoder;
  std::optional<runtime::BatchClassifier> classifier;
  std::optional<runtime::BatchRegressor> regressor;
};

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

std::shared_ptr<const LocalPlane::Engines> LocalPlane::engines(bool adapted) {
  // The adapted side serves whatever the adaptation last published.
  const ServingStatePtr published =
      adapted ? adaptive_state()->published() : nullptr;
  const std::lock_guard<std::mutex> lock(mutex_);
  const ServingStatePtr& state = adapted ? published : active_;
  std::shared_ptr<const Engines>& slot = adapted ? adapted_engines_ : engines_;
  if (slot == nullptr || slot->state != state) {
    if (pool_ == nullptr) {
      pool_ = std::make_shared<runtime::ThreadPool>(num_threads_);
    }
    auto fresh = std::make_shared<Engines>();
    fresh->state = state;
    const io::Pipeline& pipeline = state->pipeline();
    if (pipeline.input() == io::PipelineInput::Text) {
      fresh->text_encoder.emplace(pipeline.batch_text_encoder(pool_));
    } else {
      fresh->encoder.emplace(pipeline.batch_encoder(pool_));
    }
    if (pipeline.kind() == io::PipelineKind::Classifier) {
      fresh->classifier.emplace(pipeline.batch_classifier(pool_));
    } else {
      fresh->regressor.emplace(pipeline.batch_regressor(pool_));
    }
    slot = std::move(fresh);
  }
  return slot;
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
  out.values.clear();
  out.confidences.clear();
  out.bands.clear();
  const bool text = input() == io::PipelineInput::Text;
  if (text ? !batch.rows.empty() : !batch.text_rows.empty()) {
    throw std::logic_error(
        "LocalPlane::predict: the rows disagree with the pipeline's input "
        "mode");
  }
  if (batch.rows.empty() && batch.text_rows.empty()) {
    return;
  }
  const std::shared_ptr<const Engines> e = engines(adapted);
  const runtime::VectorArena encoded =
      text ? e->text_encoder->encode(batch.text_rows)
           : e->encoder->encode(batch.rows);
  if (e->classifier && head == HeadMode::Confidence) {
    for (const Top2& top : e->classifier->predict_top2(encoded)) {
      out.values.push_back(static_cast<double>(top.best.index));
      out.confidences.push_back(margin_confidence(top));
    }
  } else if (e->classifier) {
    const std::vector<std::size_t> labels = e->classifier->predict(encoded);
    out.values.assign(labels.begin(), labels.end());
  } else {
    out.values = e->regressor->predict(encoded);
    if (head == HeadMode::Band) {
      out.bands = e->regressor->predict_band(encoded);
    }
  }
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
