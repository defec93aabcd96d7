#include "hdc/io/pipeline.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "hdc/base/require.hpp"

namespace hdc::io {

const char* to_string(PipelineKind kind) noexcept {
  return kind == PipelineKind::Classifier ? "classifier" : "regressor";
}

const char* to_string(PipelineInput input) noexcept {
  return input == PipelineInput::Text ? "text" : "numeric";
}

Pipeline Pipeline::restore(const MappedSnapshot& snapshot) {
  std::size_t head_index = 0;
  std::size_t heads = 0;
  for (std::size_t i = 0; i < snapshot.section_count(); ++i) {
    if (snapshot.section(i).type == SectionType::PipelineHead) {
      head_index = i;
      ++heads;
    }
  }
  if (heads == 0) {
    throw SnapshotError(
        "Pipeline::restore: snapshot carries no pipeline head section");
  }
  if (heads > 1) {
    throw SnapshotError(
        "Pipeline::restore: snapshot carries " + std::to_string(heads) +
        " pipeline heads; pass an explicit head section index");
  }
  return restore(snapshot, head_index);
}

Pipeline Pipeline::restore(const MappedSnapshot& snapshot,
                           std::size_t head_index) {
  const SectionRecord& head = snapshot.section(head_index);
  if (head.type != SectionType::PipelineHead) {
    throw SnapshotError("Pipeline::restore: section " +
                        std::to_string(head_index) +
                        " is not a pipeline head");
  }
  Pipeline pipeline;
  pipeline.dimension_ = static_cast<std::size_t>(head.dimension);

  const auto encoder_index = static_cast<std::size_t>(head.aux_section);
  switch (snapshot.section(encoder_index).type) {
    case SectionType::FeatureEncoderConfig:
      pipeline.features_ = std::make_shared<KeyValueEncoder>(
          snapshot.feature_encoder(encoder_index));
      break;
    case SectionType::ComposedEncoderConfig:
      pipeline.composed_ = std::make_shared<ComposedEncoder>(
          snapshot.composed_encoder(encoder_index));
      break;
    case SectionType::SequenceEncoderConfig:
      if (snapshot.section(encoder_index).kind == 0) {
        pipeline.sequence_ = std::make_shared<SequenceEncoder>(
            snapshot.sequence_encoder(encoder_index));
      } else {
        pipeline.ngram_ = std::make_shared<NGramEncoder>(
            snapshot.ngram_encoder(encoder_index));
      }
      break;
    default:
      pipeline.scalar_ = snapshot.scalar_encoder(encoder_index);
      break;
  }

  const auto model_index = static_cast<std::size_t>(head.aux_section_b);
  if (snapshot.section(model_index).type ==
      SectionType::ClassifierClassVectors) {
    pipeline.kind_ = PipelineKind::Classifier;
    pipeline.classifier_ = std::make_shared<CentroidClassifier>(
        snapshot.classifier(model_index));
  } else {
    pipeline.kind_ = PipelineKind::Regressor;
    pipeline.regressor_ =
        std::make_shared<HDRegressor>(snapshot.regressor(model_index));
  }
  return pipeline;
}

std::size_t Pipeline::num_features() const noexcept {
  if (features_) {
    return features_->num_features();
  }
  if (sequence_ || ngram_) {
    return 0;
  }
  return composed_ ? composed_->num_features() : 1;
}

Hypervector Pipeline::encode(std::span<const double> features) const {
  if (features_) {
    return features_->encode(features);
  }
  if (composed_) {
    return composed_->encode(features);
  }
  if (sequence_ || ngram_) {
    throw std::logic_error(
        "Pipeline::encode: text pipelines take raw rows via encode_text()");
  }
  if (features.size() != 1) {
    throw std::invalid_argument(
        "Pipeline::encode: scalar-encoder pipelines take exactly one "
        "feature");
  }
  return Hypervector(scalar_->encode(features[0]));
}

std::size_t Pipeline::classify(std::span<const double> features) const {
  return classifier().predict(encode(features));
}

double Pipeline::regress(std::span<const double> features) const {
  return regressor().predict(encode(features));
}

Hypervector Pipeline::encode_text(std::string_view text) const {
  if (sequence_) {
    return sequence_->encode_word(text);
  }
  if (ngram_) {
    return ngram_->encode(text);
  }
  throw std::logic_error(
      "Pipeline::encode_text: this is a numeric pipeline; use encode()");
}

std::size_t Pipeline::classify_text(std::string_view text) const {
  return classifier().predict(encode_text(text));
}

double Pipeline::regress_text(std::string_view text) const {
  return regressor().predict(encode_text(text));
}

const CentroidClassifier& Pipeline::classifier() const {
  if (!classifier_) {
    throw std::logic_error(
        "Pipeline::classifier: this is a regressor pipeline");
  }
  return *classifier_;
}

const HDRegressor& Pipeline::regressor() const {
  if (!regressor_) {
    throw std::logic_error(
        "Pipeline::regressor: this is a classifier pipeline");
  }
  return *regressor_;
}

std::shared_ptr<const CentroidClassifier> Pipeline::classifier_ptr() const {
  if (!classifier_) {
    throw std::logic_error(
        "Pipeline::classifier_ptr: this is a regressor pipeline");
  }
  return classifier_;
}

std::shared_ptr<const HDRegressor> Pipeline::regressor_ptr() const {
  if (!regressor_) {
    throw std::logic_error(
        "Pipeline::regressor_ptr: this is a classifier pipeline");
  }
  return regressor_;
}

Pipeline Pipeline::with_model(
    std::shared_ptr<const CentroidClassifier> model) const {
  (void)classifier();  // Kind check.
  require(model != nullptr && model->dimension() == dimension_,
          "Pipeline::with_model", "model must match the pipeline dimension");
  Pipeline swapped = *this;
  swapped.classifier_ = std::move(model);
  return swapped;
}

Pipeline Pipeline::with_model(std::shared_ptr<const HDRegressor> model) const {
  (void)regressor();  // Kind check.
  require(model != nullptr && model->dimension() == dimension_,
          "Pipeline::with_model", "model must match the pipeline dimension");
  Pipeline swapped = *this;
  swapped.regressor_ = std::move(model);
  return swapped;
}

runtime::BatchEncoder Pipeline::batch_encoder(
    runtime::ThreadPoolPtr pool) const {
  // Every branch captures the shared encoder state, not this Pipeline
  // object; the engine stays valid as long as the snapshot mapping does.
  if (sequence_ || ngram_) {
    throw std::logic_error(
        "Pipeline::batch_encoder: text pipelines batch via "
        "batch_text_encoder()");
  }
  runtime::BatchEncoder::EncodeFn encode;
  if (features_) {
    encode = [encoder = features_](std::span<const double> row) {
      return encoder->encode(row);
    };
  } else if (composed_) {
    encode = [encoder = composed_](std::span<const double> row) {
      return encoder->encode(row);
    };
  } else {
    encode = [encoder = scalar_](std::span<const double> row) {
      if (row.size() != 1) {
        throw std::invalid_argument(
            "Pipeline batch encoder: scalar-encoder pipelines take exactly "
            "one feature per row");
      }
      return Hypervector(encoder->encode(row[0]));
    };
  }
  return runtime::BatchEncoder(dimension_, std::move(encode), std::move(pool));
}

runtime::BatchTextEncoder Pipeline::batch_text_encoder(
    runtime::ThreadPoolPtr pool) const {
  // Capture the shared encoder handle, not this Pipeline object, so the
  // engine stays valid as long as the snapshot mapping does.
  runtime::BatchTextEncoder::TextEncodeFn encode;
  if (sequence_) {
    encode = [encoder = sequence_](std::string_view text) {
      return encoder->encode_word(text);
    };
  } else if (ngram_) {
    encode = [encoder = ngram_](std::string_view text) {
      return encoder->encode(text);
    };
  } else {
    throw std::logic_error(
        "Pipeline::batch_text_encoder: this is a numeric pipeline; use "
        "batch_encoder()");
  }
  return runtime::BatchTextEncoder(dimension_, std::move(encode),
                                   std::move(pool));
}

runtime::BatchClassifier Pipeline::batch_classifier(
    runtime::ThreadPoolPtr pool) const {
  // The engine reads the model's class arena in place, owning or mapped,
  // so a published (adapted) model is never copied again per engine.
  const CentroidClassifier& model = classifier();
  require(model.finalized(), "Pipeline::batch_classifier",
          "model must be finalized");
  return {CentroidClassifier::from_packed_class_words(
              model.num_classes(), model.dimension(),
              WordStorage(model.packed_class_words(), borrowed), unchecked),
          std::move(pool)};
}

runtime::BatchRegressor Pipeline::batch_regressor(
    runtime::ThreadPoolPtr pool) const {
  return {HDRegressor(regressor()), std::move(pool)};
}

}  // namespace hdc::io
