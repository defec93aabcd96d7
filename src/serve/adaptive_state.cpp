#include "hdc/serve/adaptive_state.hpp"

#include <stdexcept>
#include <utility>

#include "hdc/io/delta.hpp"

namespace hdc::serve {

AdaptiveState::AdaptiveState(ServingStatePtr base, std::uint64_t seed)
    : base_(std::move(base)), published_(base_) {
  if (base_ == nullptr) {
    throw std::invalid_argument("AdaptiveState: base state must not be null");
  }
  if (base_->pipeline().kind() == io::PipelineKind::Classifier) {
    classifier_ = std::make_unique<AdaptiveClassifier>(
        base_->pipeline().classifier_ptr(), seed);
  } else {
    regressor_ = std::make_unique<AdaptiveRegressor>(
        base_->pipeline().regressor_ptr(), seed);
  }
}

ServingStatePtr AdaptiveState::published() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return published_;
}

AdaptOutcome AdaptiveState::counters() const {
  AdaptOutcome out;
  if (classifier_ != nullptr) {
    out.feedback_rows = classifier_->feedback_rows();
    out.updates = classifier_->updates();
    out.overlay_rows = classifier_->touched_classes();
  } else {
    out.feedback_rows = regressor_->feedback_rows();
    out.updates = regressor_->updates();
    out.overlay_rows = regressor_->touched() ? 1 : 0;
  }
  return out;
}

AdaptOutcome AdaptiveState::adapt_encoded(const Hypervector& encoded,
                                          double target) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t before = counters().updates;
  double predicted = 0.0;
  if (classifier_ != nullptr) {
    const std::size_t label =
        checked_class_label(target, classifier_->num_classes());
    predicted = static_cast<double>(classifier_->adapt(label, encoded));
  } else {
    predicted = regressor_->adapt(encoded, target);
  }
  AdaptOutcome out = counters();
  out.predicted = predicted;
  out.updated = out.updates != before;
  if (out.updated) {
    // Publish: the base's encoders over the model the update produced.
    const io::Pipeline& base = base_->pipeline();
    io::Pipeline adapted =
        classifier_ != nullptr ? base.with_model(classifier_->model())
                               : base.with_model(regressor_->model());
    published_ =
        std::make_shared<const ServingState>(base_, std::move(adapted));
  }
  return out;
}

AdaptOutcome AdaptiveState::adapt(std::span<const double> features,
                                  double target) {
  // Encoding is const over shared encoder state; only the update itself
  // needs the lock.
  return adapt_encoded(base_->pipeline().encode(features), target);
}

AdaptOutcome AdaptiveState::adapt_text(std::string_view text, double target) {
  return adapt_encoded(base_->pipeline().encode_text(text), target);
}

double AdaptiveState::predict(std::span<const double> features) const {
  const ServingStatePtr state = published();
  const io::Pipeline& p = state->pipeline();
  return classifies() ? static_cast<double>(p.classify(features))
                      : p.regress(features);
}

double AdaptiveState::predict_text(std::string_view text) const {
  const ServingStatePtr state = published();
  const io::Pipeline& p = state->pipeline();
  return classifies() ? static_cast<double>(p.classify_text(text))
                      : p.regress_text(text);
}

Top2 AdaptiveState::predict_top2(std::span<const double> features) const {
  const ServingStatePtr state = published();
  const io::Pipeline& p = state->pipeline();
  return p.classifier().predict_top2(p.encode(features));
}

Top2 AdaptiveState::predict_top2_text(std::string_view text) const {
  const ServingStatePtr state = published();
  const io::Pipeline& p = state->pipeline();
  return p.classifier().predict_top2(p.encode_text(text));
}

Band AdaptiveState::predict_band(std::span<const double> features) const {
  const ServingStatePtr state = published();
  const io::Pipeline& p = state->pipeline();
  return p.regressor().predict_band(p.encode(features));
}

Band AdaptiveState::predict_band_text(std::string_view text) const {
  const ServingStatePtr state = published();
  const io::Pipeline& p = state->pipeline();
  return p.regressor().predict_band(p.encode_text(text));
}

std::uint64_t AdaptiveState::overlay_rows() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters().overlay_rows;
}

std::uint64_t AdaptiveState::feedback_rows() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters().feedback_rows;
}

std::uint64_t AdaptiveState::updates() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters().updates;
}

std::map<std::size_t, std::vector<std::uint64_t>> AdaptiveState::changed_rows()
    const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return classifier_ != nullptr ? classifier_->changed_rows()
                                : regressor_->changed_rows();
}

std::map<std::size_t, std::vector<std::uint64_t>> AdaptiveState::diff_rows(
    const io::MappedSnapshot& base, std::size_t section) const {
  const ServingStatePtr state = published();
  const io::Pipeline& p = state->pipeline();
  const io::SectionRecord& record = base.section(section);
  const std::size_t model_rows =
      classifies() ? p.classifier().num_classes() : 1;
  if (record.count != model_rows || record.dimension != p.dimension()) {
    throw io::SnapshotError(
        "delta export: the base snapshot's model shape disagrees with the "
        "serving model");
  }
  return io::diff_rows(base, section, [&p](std::size_t i) {
    if (p.kind() == io::PipelineKind::Regressor) {
      return p.regressor().model().words();
    }
    const CentroidClassifier& model = p.classifier();
    return model.packed_class_words().subspan(i * model.words_per_class(),
                                              model.words_per_class());
  });
}

std::size_t AdaptiveState::export_delta(const std::string& base_path,
                                        const std::string& out_path) const {
  const io::MappedSnapshot base = io::MappedSnapshot::open(base_path);
  const std::size_t section = io::find_model_section(base);
  const auto rows = diff_rows(base, section);
  if (rows.empty()) {
    throw std::runtime_error(
        "delta export: the adapted model does not differ from " + base_path);
  }
  io::write_delta_file(
      io::make_delta(base, io::snapshot_file_hash(base_path), section, rows),
      out_path);
  return rows.size();
}

void AdaptiveState::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (classifier_ != nullptr) {
    classifier_->reset();
  } else {
    regressor_->reset();
  }
  published_ = base_;
}

}  // namespace hdc::serve
