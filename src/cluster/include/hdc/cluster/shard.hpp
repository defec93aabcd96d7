#ifndef HDC_CLUSTER_SHARD_HPP
#define HDC_CLUSTER_SHARD_HPP

/// \file shard.hpp
/// \brief Rank ownership math and the shared cluster vocabulary.
///
/// Every sharding decision in hdc::cluster reduces to the same question:
/// which contiguous slice of N items does rank r of P own?  The answer is
/// the classic `varstart`/`varend` balanced partition — the first (N % P)
/// ranks own one extra item, boundaries depend only on (N, P), and the
/// slices concatenated in rank order reproduce the original sequence.  Both
/// sharding schemes are built on it:
///
///  * `Rows`    — each rank predicts its row slice; the coordinator
///                concatenates the slices in rank order.
///  * `Classes` — every rank sees every row but scans only its slice of the
///                class-vector (or label-basis) arena; the coordinator
///                reduces per-rank `(distance, global index)` minima
///                lexicographically, which is bit-identical to the
///                single-process argmin with lowest-index tie-breaking
///                because rank slices are disjoint ascending index ranges.
///
/// `ClusterError` is the one failure type the coordinator raises for
/// transport and worker faults (a worker died, a frame was torn, ranks
/// disagree on the model generation); its message always names the rank.

#include <cstddef>
#include <cstdint>
#include <string>

#include "hdc/serve/prediction_plane.hpp"

namespace hdc::cluster {

/// Raised by the coordinator on worker/transport failure; the message names
/// the failing rank (and pid + exit cause for fork workers).  A plane
/// failure to the serving front ends: the stdin loop rethrows it with the
/// input position appended.
class ClusterError : public serve::PlaneError {
 public:
  using serve::PlaneError::PlaneError;
};

/// First item of rank \p rank's slice of \p count items over \p size ranks
/// (the `varstart` of the ownership scheme).  \pre rank < size, size >= 1.
[[nodiscard]] constexpr std::size_t shard_begin(std::size_t rank,
                                                std::size_t size,
                                                std::size_t count) noexcept {
  const std::size_t base = count / size;
  const std::size_t extra = count % size;
  return rank * base + (rank < extra ? rank : extra);
}

/// One past the last item of rank \p rank's slice (the `varend`).
[[nodiscard]] constexpr std::size_t shard_end(std::size_t rank,
                                              std::size_t size,
                                              std::size_t count) noexcept {
  const std::size_t base = count / size;
  const std::size_t extra = count % size;
  return shard_begin(rank, size, count) + base + (rank < extra ? 1 : 0);
}

/// How work is partitioned across ranks.
enum class ShardScheme : std::uint8_t {
  /// Each rank owns a slice of the batch's rows (throughput scaling).
  Rows = 0,
  /// Each rank owns a slice of the class-vector / label-basis arena
  /// (memory-bandwidth scaling for very large models).
  Classes = 1,
};

/// Parses "rows" / "classes".  \throws std::invalid_argument otherwise.
[[nodiscard]] ShardScheme parse_shard_scheme(const std::string& name);

/// "rows" / "classes".
[[nodiscard]] const char* to_string(ShardScheme scheme) noexcept;

/// Which transport hosts the workers.
enum class CommBackend : std::uint8_t {
  /// All ranks in-process, exchanged serially: the correctness oracle and
  /// the portable fallback.
  Loopback = 0,
  /// Rank 0 in-process; ranks 1..P-1 are forked children re-mapping the
  /// same snapshot (page-cache shared), framed over socketpairs.
  Fork = 1,
};

/// Parses "loopback" / "fork".  \throws std::invalid_argument otherwise.
[[nodiscard]] CommBackend parse_comm_backend(const std::string& name);

/// "loopback" / "fork".
[[nodiscard]] const char* to_string(CommBackend backend) noexcept;

}  // namespace hdc::cluster

#endif  // HDC_CLUSTER_SHARD_HPP
