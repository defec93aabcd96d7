#ifndef HDC_CLUSTER_SHARDED_SERVER_HPP
#define HDC_CLUSTER_SHARDED_SERVER_HPP

/// \file sharded_server.hpp
/// \brief The coordinator: sharded prediction bit-identical to one process.
///
/// `ShardedServer` owns a `Comm` and turns batches of feature rows into
/// predictions by scattering work across ranks and reducing the gathered
/// responses.  Its contract — enforced by the tests/cluster equivalence
/// matrix — is that for any {replicas, scheme, backend, batch size, kernel
/// variant} the prediction stream is **bit-identical** to calling the
/// single-process pipeline row by row:
///
///  * `Rows`    — rank r predicts rows [shard_begin, shard_end) of the
///    batch; slices concatenate in rank order.  Exact because each row is
///    predicted by the same code over the same snapshot bytes.
///  * `Classes` — every rank scans its slice of the class-vector (or
///    label-basis) arena and reports per-row `(distance, global index)`
///    minima; the coordinator takes the lexicographic minimum across ranks.
///    Exact because rank slices are disjoint ascending index ranges, so the
///    lexicographic reduce reproduces argmin-with-lowest-index-tie-break.
///
/// Batches are generation-atomic: `predict()` and `reload()` serialize on
/// one mutex, every predict response carries the worker's generation, and a
/// mismatch inside one batch is a hard `ClusterError` — a batch is computed
/// entirely on one model generation or not answered at all.  The same
/// serialization makes `reload()` a cluster-wide barrier: rank 0 validates
/// the replacement first (load + `ensure_swappable`), so a bad snapshot is
/// rejected before any rank has flipped.
///
/// Worker failure surfaces as `ClusterError` from the faulting call.  As a
/// `serve::PredictionPlane`, the coordinator runs under the same `Server`
/// and `NetServer` loops as one process; the stdin loop rethrows a
/// `ClusterError` with the input line, every earlier batch already flushed.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hdc/cluster/comm.hpp"
#include "hdc/cluster/shard.hpp"
#include "hdc/core/confidence.hpp"
#include "hdc/io/pipeline.hpp"
#include "hdc/io/snapshot.hpp"
#include "hdc/serve/adaptive_state.hpp"
#include "hdc/serve/prediction_plane.hpp"

namespace hdc::cluster {

struct ClusterOptions {
  std::size_t replicas = 1;
  ShardScheme scheme = ShardScheme::Rows;
  CommBackend backend = CommBackend::Loopback;
  io::SnapshotIntegrity integrity = io::SnapshotIntegrity::Checksum;
  io::MappingOptions mapping{};
};

/// One rank's counters, as reported by `!stats` and the stats() exchange.
struct RankStats {
  std::size_t rank = 0;
  std::uint64_t generation = 0;
  std::uint64_t rows = 0;
  std::uint64_t batches = 0;
};

/// Coordinator over N worker ranks; thread-safe (exchanges serialize).
class ShardedServer final : public serve::PredictionPlane {
 public:
  /// Builds the comm (forking before any thread pool exists — construct
  /// this before `NetServer` or other pool owners) and barriers once so a
  /// worker that failed to initialize fails construction, not traffic.
  /// \throws ClusterError / io::SnapshotError / std::invalid_argument.
  ShardedServer(std::string snapshot_path, ClusterOptions options);

  [[nodiscard]] std::size_t dimension() const noexcept override;
  [[nodiscard]] std::size_t replicas() const noexcept { return comm_->size(); }
  [[nodiscard]] ShardScheme scheme() const noexcept { return options_.scheme; }
  [[nodiscard]] const char* backend() const noexcept {
    return comm_->backend();
  }
  [[nodiscard]] std::vector<pid_t> worker_pids() const {
    return comm_->worker_pids();
  }

  /// One generation-atomic batch: predictions[i] answers rows[i] (labels as
  /// doubles for classifier pipelines, exactly like serve::Server).
  /// \throws ClusterError on worker failure or torn generation;
  /// std::invalid_argument if a row's arity is wrong.
  struct BatchResult {
    std::vector<double> predictions;
    std::uint64_t generation = 0;
  };
  [[nodiscard]] BatchResult predict(
      std::span<const std::vector<double>> rows);

  /// The text twin of predict(): one generation-atomic batch of raw-text
  /// rows for a sequence/n-gram pipeline, with the same bit-identity
  /// contract against per-row classify_text()/regress_text().
  /// \throws ClusterError as predict(); std::invalid_argument when the
  /// pipeline takes numeric rows.
  [[nodiscard]] BatchResult predict_text(std::span<const std::string> rows);

  /// One head-carrying batch: values[i] answers rows[i] and either
  /// confidences[i] (classifier pipelines) or bands[i] (regressor
  /// pipelines) carries its head.  Heads reduce exactly as predictions do —
  /// classifier ranks report slice top-2 candidates merged with
  /// merge_top2(), regressor ranks report slice distance profiles that
  /// concatenate into the full label grid — so every head is bit-identical
  /// to the single-process plane.
  struct HeadBatchResult {
    std::vector<double> values;
    std::vector<double> confidences;  ///< One per row for classifiers.
    std::vector<Band> bands;          ///< One per row for regressors.
    std::uint64_t generation = 0;
  };
  [[nodiscard]] HeadBatchResult predict_head(
      std::span<const std::vector<double>> rows);
  [[nodiscard]] HeadBatchResult predict_text_head(
      std::span<const std::string> rows);

  /// The plane entry the serving front ends call: one of the four batch
  /// calls above, per the input mode and \p head.  \p adapted is ignored,
  /// since ranks serve feedback as soon as it lands.
  void predict(const serve::RowBatch& batch, serve::HeadMode head,
               bool adapted, serve::Predictions& out) override;

  /// Hot-swaps every rank to \p path ("" reloads the active source; an
  /// HDCS delta file patches the tracked base).  Validates on rank 0
  /// first; on rejection no rank has changed.  Returns the new cluster
  /// generation.
  /// \throws io::SnapshotError on rejection; ClusterError if a rank failed
  /// after validation (the cluster is then inconsistent and unusable).
  std::uint64_t reload(const std::string& path) override;

  /// One `!adapt` feedback sample, broadcast to every rank: each applies
  /// it to its deterministic rank-local adaptation and serves the model it
  /// publishes from the next batch on.  The full response payload must be
  /// byte-identical on every rank — divergence is a hard ClusterError.
  /// \throws ClusterError on worker failure or divergence;
  /// std::invalid_argument on arity mismatch (validated rank-side too).
  serve::AdaptOutcome adapt(double target, std::span<const double> features);

  /// The text twin of adapt(): one raw-text feedback sample broadcast to
  /// every rank.  \throws as adapt(); std::invalid_argument when the
  /// pipeline takes numeric rows.
  serve::AdaptOutcome adapt_text(double target, std::string_view text);

  /// The plane's `!adapt`: adapt() or adapt_text() of the one row in
  /// \p sample, per the input mode.
  serve::AdaptOutcome adapt(double target,
                            const serve::RowBatch& sample) override;

  /// Writes the cluster's adapted-vs-base difference (gathered as
  /// per-rank changed-row sets, verified byte-identical) as an HDCS delta
  /// file at \p out_path; returns the changed-row count.
  /// \throws ClusterError on divergence; std::runtime_error when nothing
  /// differs from the base; io::SnapshotError on write failure.
  std::uint64_t export_delta(const std::string& out_path) override;

  /// The last *full* snapshot the cluster loaded (delta reloads keep it).
  [[nodiscard]] std::string base_path() const;

  /// Last generation every rank agreed on.
  [[nodiscard]] std::uint64_t generation() const override;

  /// Path serving the current generation.
  [[nodiscard]] std::string source_path() const override;

  /// Per-rank counters, gathered live.  \throws ClusterError as predict().
  [[nodiscard]] std::vector<RankStats> stats();

  /// The `!stats` suffix: ` rankR=rows:N,batches:B,gen:G` for every rank,
  /// from stats().
  [[nodiscard]] std::string stats_suffix() override;

 private:
  /// One locked exchange: scatter, generation check, scheme reduce.
  template <typename Rows>
  [[nodiscard]] HeadBatchResult run_batch(Rows rows, bool head);
  /// Scatter builders for the two input modes; Rows-scheme requests carry
  /// each rank's row slice, Classes-scheme requests broadcast the batch.
  [[nodiscard]] std::vector<std::string> build_requests(
      std::span<const std::vector<double>> rows, bool head);
  [[nodiscard]] std::vector<std::string> build_requests(
      std::span<const std::string> rows, bool head);
  /// Generation check + the scheme reduce over gathered predict responses
  /// (heads left empty when \p head is false).
  [[nodiscard]] HeadBatchResult gather(
      const std::vector<std::string>& responses, std::size_t nrows,
      bool head);
  [[nodiscard]] std::uint64_t checked_generation(
      const std::vector<std::string>& responses) const;
  /// Broadcast + divergence check + outcome parse shared by both adapt
  /// entry points.
  [[nodiscard]] serve::AdaptOutcome adapt_exchange(std::string request);
  [[nodiscard]] std::vector<std::string> checked_exchange(
      std::vector<std::string> requests, const char* what);

  ClusterOptions options_;
  std::unique_ptr<Comm> comm_;
  mutable std::mutex mutex_;
  std::uint64_t generation_ = 1;
  std::string source_path_;
  std::string base_path_;
};

}  // namespace hdc::cluster

#endif  // HDC_CLUSTER_SHARDED_SERVER_HPP
