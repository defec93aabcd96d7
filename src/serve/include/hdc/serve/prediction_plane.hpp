#ifndef HDC_SERVE_PREDICTION_PLANE_HPP
#define HDC_SERVE_PREDICTION_PLANE_HPP

/// \file prediction_plane.hpp
/// \brief The one model interface every serving front end drives.
///
/// Front ends (`Server`, `NetServer`) own I/O and batching; everything they
/// ask of the model — answer a batch, `!adapt`, `!reload`, `!delta`, the
/// generation and `!stats` — goes through one thread-safe plane, called
/// once per batch.  `LocalPlane` serves in process; `ShardedServer`
/// scatters over worker ranks.

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "hdc/core/confidence.hpp"
#include "hdc/io/pipeline.hpp"
#include "hdc/serve/adaptive_state.hpp"
#include "hdc/serve/prediction_writer.hpp"

namespace hdc::serve {

/// One micro-batch: numeric feature rows, or raw-text rows for text
/// pipelines (the other span stays empty).
struct RowBatch {
  std::span<const std::vector<double>> rows;
  std::span<const std::string> text_rows;
};

/// One batch's answers in row order: values[i] answers row i (classifier
/// labels as doubles); confidences[i] (HeadMode::Confidence) or bands[i]
/// (HeadMode::Band) carry its head and stay empty otherwise.
struct Predictions {
  std::vector<double> values;
  std::vector<double> confidences;
  std::vector<Band> bands;
};

/// A plane could not answer a batch at all: a dead or diverged cluster
/// rank, a torn generation.  The stdin front end appends its input position
/// with append() and rethrows the same object, so callers still catch the
/// concrete type (hdc::cluster::ClusterError derives from this).
class PlaneError : public std::runtime_error {
 public:
  explicit PlaneError(const std::string& message)
      : std::runtime_error(message), message_(message) {}
  [[nodiscard]] const char* what() const noexcept override {
    return message_.c_str();
  }
  void append(const std::string& context) { message_ += context; }

 private:
  std::string message_;
};

/// The model behind a front end (see the file comment).  Every method is
/// safe to call from several threads at once.
class PredictionPlane {
 public:
  PredictionPlane() = default;
  PredictionPlane(const PredictionPlane&) = delete;
  PredictionPlane& operator=(const PredictionPlane&) = delete;
  virtual ~PredictionPlane() = default;

  /// The served pipeline's shape.  Kind, input mode and arity never change
  /// across reloads (io::ensure_swappable); the dimension may.
  [[nodiscard]] io::PipelineKind kind() const noexcept { return kind_; }
  [[nodiscard]] io::PipelineInput input() const noexcept { return input_; }
  [[nodiscard]] std::size_t num_features() const noexcept {
    return num_features_;
  }
  [[nodiscard]] virtual std::size_t dimension() const = 0;

  /// Answers \p batch on one model generation into \p out, bit-identical to
  /// per-row Pipeline calls.  \p head must suit kind() (Confidence for
  /// classifiers, Band for regressors); \p adapted selects the `!use
  /// adapted` side on planes that have one (has_adapted_side()).
  /// \throws PlaneError when the batch cannot be answered;
  /// std::invalid_argument or std::logic_error on rows the pipeline cannot
  /// take.
  virtual void predict(const RowBatch& batch, HeadMode head, bool adapted,
                       Predictions& out) = 0;

  /// One `!adapt` feedback row (\p sample holds exactly one row): the
  /// update every later adapted prediction sees.
  virtual AdaptOutcome adapt(double target, const RowBatch& sample) = 0;

  /// Hot-swaps to the validated snapshot at \p path ("" re-reads
  /// source_path(); an HDCS delta file patches the last full snapshot
  /// loaded) and returns the new generation.  \throws and leaves the
  /// incumbent serving on rejection.
  virtual std::uint64_t reload(const std::string& path) = 0;

  /// `!delta PATH`: writes the adapted-vs-base difference as an HDCS delta
  /// file at \p out_path; returns the changed-row count.
  virtual std::uint64_t export_delta(const std::string& out_path) = 0;

  /// The generation serving now, and the path it was loaded from.
  [[nodiscard]] virtual std::uint64_t generation() const = 0;
  [[nodiscard]] virtual std::string source_path() const = 0;

  /// Extra `!stats` fields, appended verbatim to the reply.
  [[nodiscard]] virtual std::string stats_suffix() { return {}; }

  /// Whether `!use adapted` has a separate adapted side to select.  Cluster
  /// ranks serve feedback as soon as it lands, so they have none.
  [[nodiscard]] virtual bool has_adapted_side() const { return false; }

 protected:
  /// Records the shape of the first pipeline served.
  void set_shape(const io::Pipeline& pipeline) noexcept {
    kind_ = pipeline.kind();
    input_ = pipeline.input();
    num_features_ = pipeline.num_features();
  }

 private:
  io::PipelineKind kind_ = io::PipelineKind::Classifier;
  io::PipelineInput input_ = io::PipelineInput::Numeric;
  std::size_t num_features_ = 0;
};

}  // namespace hdc::serve

#endif  // HDC_SERVE_PREDICTION_PLANE_HPP
