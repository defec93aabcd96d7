#ifndef HDC_IO_PIPELINE_HPP
#define HDC_IO_PIPELINE_HPP

/// \file pipeline.hpp
/// \brief One-file cold-start: restore a complete encode->predict pipeline.
///
/// PR 3's snapshots restored bases, classifiers and regressors, but a
/// serving replica still had to reconstruct the *encoding* side (which
/// feature encoder, which scale set, which r) out of band.  A PipelineHead
/// section closes that gap: `SnapshotWriter::add_pipeline` writes encoder
/// configuration and model into one artifact, and `Pipeline::restore` hands
/// back a ready-to-serve object — features in, prediction out — from a
/// single `MappedSnapshot` (borrowed, zero-copy storage end to end,
/// `SnapshotIntegrity::Trust` fast path included) or from `load_snapshot`.
///
/// A restored Pipeline borrows its basis arenas from the snapshot and must
/// not outlive it.  All prediction paths are const and safe to call
/// concurrently; the `batch_*` bridges fan a pipeline out over the
/// hdc::runtime thread pool.

#include <cstddef>
#include <memory>
#include <span>
#include <string_view>

#include "hdc/core/classifier.hpp"
#include "hdc/core/composed_encoder.hpp"
#include "hdc/core/feature_encoder.hpp"
#include "hdc/core/hypervector.hpp"
#include "hdc/core/regressor.hpp"
#include "hdc/core/scalar_encoder.hpp"
#include "hdc/core/sequence_encoder.hpp"
#include "hdc/io/snapshot.hpp"
#include "hdc/runtime/batch_classifier.hpp"
#include "hdc/runtime/batch_encoder.hpp"
#include "hdc/runtime/batch_regressor.hpp"
#include "hdc/runtime/batch_text_encoder.hpp"

namespace hdc::io {

/// What a restored pipeline predicts.
enum class PipelineKind : std::uint8_t {
  Classifier = 0,
  Regressor = 1,
};

/// Human-readable kind name ("classifier" / "regressor").
[[nodiscard]] const char* to_string(PipelineKind kind) noexcept;

/// What a restored pipeline consumes: numeric feature rows (every scalar /
/// feature / composed encoder) or raw text (sequence / n-gram encoders).
/// The two input modes have disjoint entry points — encode()/classify()/
/// regress() for Numeric, encode_text()/classify_text()/regress_text() for
/// Text — and crossing them throws std::logic_error.
enum class PipelineInput : std::uint8_t {
  Numeric = 0,
  Text = 1,
};

/// Human-readable input-mode name ("numeric" / "text").
[[nodiscard]] const char* to_string(PipelineInput input) noexcept;

/// A ready-to-serve encode->predict pipeline restored from a snapshot.
///
/// Copyable (copies share the immutable encoder/model state); every model
/// and basis inside may borrow the snapshot mapping, so the pipeline — and
/// anything built from it — is valid only while the snapshot stays open.
class Pipeline {
 public:
  /// Restores the snapshot's single pipeline.  \throws SnapshotError if the
  /// snapshot holds no PipelineHead section or more than one (pass the
  /// explicit head index then).
  [[nodiscard]] static Pipeline restore(const MappedSnapshot& snapshot);

  /// Restores the pipeline rooted at head section \p head_index.
  /// \throws SnapshotError if the section is not a PipelineHead or any
  /// referenced section fails its checksum; std::out_of_range if out of
  /// range.
  [[nodiscard]] static Pipeline restore(const MappedSnapshot& snapshot,
                                        std::size_t head_index);

  [[nodiscard]] PipelineKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::size_t dimension() const noexcept { return dimension_; }

  /// Input mode: Text for sequence/n-gram-encoder pipelines, else Numeric.
  [[nodiscard]] PipelineInput input() const noexcept {
    return sequence_ || ngram_ ? PipelineInput::Text : PipelineInput::Numeric;
  }

  /// Features per sample: the key count of a feature-encoder pipeline, the
  /// sub-encoder count of a composed-encoder pipeline, 1 for a
  /// scalar-encoder pipeline, 0 for a text pipeline (rows are strings, not
  /// feature vectors — check input() first).
  [[nodiscard]] std::size_t num_features() const noexcept;

  /// Encodes one feature row exactly as the written pipeline did.
  /// \throws std::invalid_argument if features.size() != num_features().
  [[nodiscard]] Hypervector encode(std::span<const double> features) const;

  /// encode() + nearest-class prediction.  \throws std::logic_error on a
  /// regressor pipeline; std::invalid_argument as encode().
  [[nodiscard]] std::size_t classify(std::span<const double> features) const;

  /// encode() + paper-faithful regression readout.  \throws
  /// std::logic_error on a classifier pipeline; std::invalid_argument as
  /// encode().
  [[nodiscard]] double regress(std::span<const double> features) const;

  /// Encodes one raw text row exactly as the written pipeline did (the
  /// encoder's const byte-table path — safe to call concurrently).  \throws
  /// std::logic_error on a numeric pipeline; std::invalid_argument if text
  /// is empty.
  [[nodiscard]] Hypervector encode_text(std::string_view text) const;

  /// encode_text() + nearest-class prediction.  \throws std::logic_error on
  /// a regressor or numeric pipeline.
  [[nodiscard]] std::size_t classify_text(std::string_view text) const;

  /// encode_text() + regression readout.  \throws std::logic_error on a
  /// classifier or numeric pipeline.
  [[nodiscard]] double regress_text(std::string_view text) const;

  /// The restored model.  \throws std::logic_error when the pipeline is not
  /// of that kind — query kind() first.
  [[nodiscard]] const CentroidClassifier& classifier() const;
  [[nodiscard]] const HDRegressor& regressor() const;

  /// The restored model as its shared handle, for adaptation
  /// (hdc::AdaptiveClassifier / AdaptiveRegressor) that must keep the model
  /// alive independently of this Pipeline object.  \throws std::logic_error
  /// when the pipeline is not of that kind.
  [[nodiscard]] std::shared_ptr<const CentroidClassifier> classifier_ptr()
      const;
  [[nodiscard]] std::shared_ptr<const HDRegressor> regressor_ptr() const;

  /// This pipeline with \p model in place of its model: the same (shared)
  /// encoders, so an adapted model serves without re-restoring them.
  /// \throws std::logic_error when the pipeline is not of that kind;
  /// std::invalid_argument if \p model is null or of another dimension.
  [[nodiscard]] Pipeline with_model(
      std::shared_ptr<const CentroidClassifier> model) const;
  [[nodiscard]] Pipeline with_model(
      std::shared_ptr<const HDRegressor> model) const;

  /// The restored encoder: exactly one of these is non-null.
  [[nodiscard]] const KeyValueEncoder* feature_encoder() const noexcept {
    return features_.get();
  }
  [[nodiscard]] const ScalarEncoder* scalar_encoder() const noexcept {
    return scalar_.get();
  }
  [[nodiscard]] const ComposedEncoder* composed_encoder() const noexcept {
    return composed_.get();
  }
  [[nodiscard]] const SequenceEncoder* sequence_encoder() const noexcept {
    return sequence_.get();
  }
  [[nodiscard]] const NGramEncoder* ngram_encoder() const noexcept {
    return ngram_.get();
  }

  /// hdc::runtime bridge: a BatchEncoder wrapping this pipeline's encode().
  /// The encoder lambda shares the pipeline's encoder state, so the engine
  /// outlives this Pipeline object — but never the snapshot it borrows
  /// from.  \throws std::invalid_argument if pool is null; std::logic_error
  /// on a text pipeline.
  [[nodiscard]] runtime::BatchEncoder batch_encoder(
      runtime::ThreadPoolPtr pool) const;

  /// A BatchClassifier over a borrowed view of this pipeline's class arena:
  /// no model words are copied, whether the model is mapped or owned (a
  /// published adapted model, with_model()).  The engine must not outlive
  /// this Pipeline — nor any copy of it that keeps the model alive.
  /// \throws std::invalid_argument if pool is null or the model is not
  /// finalized; std::logic_error on a regressor pipeline.
  [[nodiscard]] runtime::BatchClassifier batch_classifier(
      runtime::ThreadPoolPtr pool) const;

  /// A BatchRegressor over this pipeline's regressor: it shares the label
  /// encoder (and so may borrow its mapped basis) and copies the single
  /// d-bit model row.  Like batch_classifier(), the engine must not outlive
  /// this Pipeline.  \throws std::invalid_argument if pool is null or the
  /// model is not finalized; std::logic_error on a classifier pipeline.
  [[nodiscard]] runtime::BatchRegressor batch_regressor(
      runtime::ThreadPoolPtr pool) const;

  /// The text twin of batch_encoder(): a BatchTextEncoder wrapping this
  /// pipeline's encode_text().  \throws std::logic_error on a numeric
  /// pipeline; std::invalid_argument if pool is null.
  [[nodiscard]] runtime::BatchTextEncoder batch_text_encoder(
      runtime::ThreadPoolPtr pool) const;

 private:
  Pipeline() = default;

  PipelineKind kind_ = PipelineKind::Classifier;
  std::size_t dimension_ = 0;
  /// Exactly one encoder and one model slot is set, per kind_.
  std::shared_ptr<const KeyValueEncoder> features_;
  ScalarEncoderPtr scalar_;
  std::shared_ptr<const ComposedEncoder> composed_;
  std::shared_ptr<const SequenceEncoder> sequence_;
  std::shared_ptr<const NGramEncoder> ngram_;
  std::shared_ptr<const CentroidClassifier> classifier_;
  std::shared_ptr<const HDRegressor> regressor_;
};

}  // namespace hdc::io

#endif  // HDC_IO_PIPELINE_HPP
