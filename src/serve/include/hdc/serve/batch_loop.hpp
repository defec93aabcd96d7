#ifndef HDC_SERVE_BATCH_LOOP_HPP
#define HDC_SERVE_BATCH_LOOP_HPP

/// \file batch_loop.hpp
/// \brief The one micro-batching loop every front end drives.
///
/// A `BatchLoop` admits rows parsed by a `RowReader`, answers each
/// micro-batch with one `PredictionPlane` call, and writes every prediction
/// (any head mode, with its admission-to-write latency) in admission order
/// through a `PredictionWriter`.  A malformed line drains first: every row
/// admitted before it is answered and flushed before the RowError
/// propagates.  Front ends keep only their I/O and flush policy.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hdc/serve/prediction_plane.hpp"
#include "hdc/serve/prediction_writer.hpp"
#include "hdc/serve/row_reader.hpp"

namespace hdc::serve {

/// Rows and batches served, shared by every loop of one server (the
/// totals `!stats` reports across connections).
struct ServeCounters {
  std::atomic<std::uint64_t> rows{0};
  std::atomic<std::uint64_t> batches{0};
};

/// Checks that rows in \p format with \p arity fields, written with \p head,
/// fit \p plane: text rows for text pipelines, the pipeline's arity,
/// Confidence heads from classifiers and Band heads from regressors.
/// \throws std::invalid_argument, prefixed with \p who, otherwise.
void check_plane_fit(const PredictionPlane& plane, RowFormat format,
                     std::size_t arity, HeadMode head, const std::string& who);

class BatchLoop {
 public:
  using clock = std::chrono::steady_clock;

  /// The references must outlive the loop; \p counters accumulates what
  /// flush() serves.  \throws std::invalid_argument when the reader or the
  /// writer does not fit the plane (check_plane_fit).
  BatchLoop(PredictionPlane& plane, RowReader& reader,
            PredictionWriter& writer, std::size_t batch_size,
            ServeCounters& counters);

  /// Reads the next row off the reader's stream and admits it; false at
  /// end of stream.  \throws RowError after draining the admitted rows.
  bool read_next() { return admit(nullptr); }

  /// Admits one line the front end read itself; false when it is blank.
  /// \throws RowError after draining the admitted rows.
  bool admit_line(const std::string& line) { return admit(&line); }

  /// Answers the pending rows with one plane call, writes them in
  /// admission order and flushes the writer.  \throws whatever the plane
  /// or the writer throws.
  void flush();

  [[nodiscard]] bool pending() const noexcept { return !admitted_.empty(); }

  /// Admission time of the oldest pending row; only valid while pending().
  [[nodiscard]] clock::time_point oldest() const noexcept {
    return admitted_.front();
  }

  /// Rows this loop has written so far.
  [[nodiscard]] std::size_t rows() const noexcept { return next_row_; }

  /// `!use base|adapted`: which side of the plane later batches read.
  void use_adapted(bool adapted) noexcept { adapted_ = adapted; }

 private:
  /// Parses \p line (or, when null, the reader's next stream line) into the
  /// next free row slot and flushes a full batch.
  bool admit(const std::string* line);

  PredictionPlane& plane_;
  RowReader& reader_;
  PredictionWriter& writer_;
  std::size_t batch_size_;
  ServeCounters& counters_;
  bool text_;
  bool classifies_;
  bool adapted_ = false;
  /// Pending rows occupy slots [0, admitted_.size()) of the buffer the
  /// input mode uses; slots are reused batch after batch.
  std::vector<std::vector<double>> rows_;
  std::vector<std::string> text_rows_;
  std::vector<clock::time_point> admitted_;
  Predictions out_;
  std::size_t next_row_ = 0;
};

}  // namespace hdc::serve

#endif  // HDC_SERVE_BATCH_LOOP_HPP
