#ifndef HDC_SERVE_SERVER_HPP
#define HDC_SERVE_SERVER_HPP

/// \file server.hpp
/// \brief Micro-batching prediction server over a restored pipeline.
///
/// A replica cold-starts from one mmapped snapshot, then streams rows in
/// micro-batches (full batch, flush interval or end of stream) through a
/// prediction plane and writes them out in admission order.  Predictions
/// are bit-identical to per-row `Pipeline::classify`/`regress` calls for
/// any batch size and thread count; serve_e2e diffs the CLI output against
/// committed goldens to pin exactly that.

#include <chrono>
#include <cstddef>
#include <memory>

#include "hdc/io/pipeline.hpp"
#include "hdc/serve/prediction_plane.hpp"
#include "hdc/serve/prediction_writer.hpp"
#include "hdc/serve/row_reader.hpp"

namespace hdc::serve {

/// Micro-batching policy.
struct ServerOptions {
  /// Rows per micro-batch (> 0).  Small batches bound per-row latency,
  /// large batches amortize the fork-join fan-out.
  std::size_t batch_size = 64;
  /// Flush a partial batch once this much time has passed since its first
  /// row was admitted; zero disables the timer (flush on full/EOF only).
  /// Rows are read with blocking stream I/O, so the interval is enforced
  /// as a *bounded-staleness* guarantee: the deadline is checked before
  /// every read, and a partial batch is additionally flushed whenever the
  /// stream has nothing buffered and the next read could therefore stall —
  /// admitted rows never wait on a paused producer.  (`NetServer` goes
  /// further and turns the deadline into a poll timeout.)
  std::chrono::microseconds flush_interval{0};
  /// Worker threads for the internally created pool when none is passed
  /// (0 = hardware concurrency).
  std::size_t num_threads = 0;
};

/// The stdin front end: one blocking stream through the BatchLoop, over a
/// LocalPlane of one restored pipeline (which must not outlive the
/// `MappedSnapshot` it borrows) or over any plane, such as the cluster
/// coordinator.  `run()` is not re-entrant; Servers may share a pool.
class Server {
 public:
  /// Serves \p pipeline through an owned LocalPlane whose worker pool is
  /// \p pool, or one of options.num_threads threads created on first use.
  /// \throws std::invalid_argument if options.batch_size == 0.
  explicit Server(io::Pipeline pipeline, ServerOptions options = {},
                  runtime::ThreadPoolPtr pool = nullptr);

  /// Serves \p plane, which must outlive the Server; options.num_threads is
  /// unused (the plane owns its workers).
  /// \throws std::invalid_argument if options.batch_size == 0.
  explicit Server(PredictionPlane& plane, ServerOptions options = {});

  /// The plane every batch goes through.
  [[nodiscard]] PredictionPlane& plane() const noexcept { return *plane_; }
  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }

  /// Serving-loop outcome.
  struct Stats {
    std::size_t rows = 0;
    std::size_t batches = 0;
    double seconds = 0.0;
  };

  /// Reads rows until end of stream, predicting in micro-batches and
  /// writing every prediction (with its admission-to-write latency) in
  /// input order.  The reader's format must match the pipeline's input
  /// mode (Text readers for text pipelines) and the writer's head mode its
  /// kind (Confidence heads come from classifiers, Band heads from
  /// regressors).  \throws RowError on malformed input — every row that
  /// parsed before the bad one is predicted, written and flushed first;
  /// PlaneError (rethrown with the input line and the rows already
  /// answered appended) when the plane fails a batch;
  /// std::invalid_argument if the reader's format/arity or the writer's
  /// head disagrees with the pipeline.
  Stats run(RowReader& reader, PredictionWriter& writer) const;

 private:
  /// Serves \p plane, or \p owned when \p plane is null.
  Server(std::unique_ptr<PredictionPlane> owned, PredictionPlane* plane,
         ServerOptions options);

  std::unique_ptr<PredictionPlane> owned_;
  PredictionPlane* plane_;
  ServerOptions options_;
};

}  // namespace hdc::serve

#endif  // HDC_SERVE_SERVER_HPP
