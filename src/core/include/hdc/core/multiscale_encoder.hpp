#ifndef HDC_CORE_MULTISCALE_ENCODER_HPP
#define HDC_CORE_MULTISCALE_ENCODER_HPP

/// \file multiscale_encoder.hpp
/// \brief Extension: multi-resolution circular encoding.
///
/// A single circular basis has a triangular similarity kernel whose support
/// spans the entire ring — similarity only reaches zero at the antipode, so
/// a bundled regression model smooths over half the circle (see the Table 2
/// analysis in EXPERIMENTS.md).  Binding encodings of the *same* value at
/// several resolutions multiplies their correlation kernels
/// (corr(a ⊗ b, a' ⊗ b') = corr(a, a') * corr(b, b') for independent pairs),
/// which sharpens the kernel while preserving the wrap topology.  This is a
/// natural extension of the paper's circular-hypervectors; the
/// `ablation_multiscale` bench quantifies the effect on both regression
/// tasks.

#include <cstdint>
#include <span>
#include <vector>

#include "hdc/core/basis_circular.hpp"
#include "hdc/core/scalar_encoder.hpp"
#include "hdc/core/word_storage.hpp"

namespace hdc {

/// Encodes a periodic value as the binding of circular encodings at several
/// grid resolutions.  The public grid (index_of/value_of/decode) is the
/// finest of the configured scales.
///
/// All bound vectors are packed into one arena at construction; the encoder
/// is immutable afterwards and safe to share across threads (the contract
/// the hdc::runtime batch engines rely on), and encode() serves zero-copy
/// views out of that arena.
class MultiScaleCircularEncoder final : public ScalarEncoder {
 public:
  /// Configuration.
  struct Config {
    std::size_t dimension = default_dimension;
    /// Ring sizes of the bound scales, e.g. {16, 64}; at least one, each
    /// >= 2.  The largest becomes the public grid.
    std::vector<std::size_t> scales;
    double period = 1.0;  ///< Domain period, must be > 0.
    std::uint64_t seed = 1;
  };

  /// \throws std::invalid_argument on an invalid configuration.
  explicit MultiScaleCircularEncoder(const Config& config);

  /// Restores an encoder from its serialized state (the hdc::io snapshot
  /// path): the finest-scale basis, the sorted scale list, and the bound
  /// arena are adopted without regeneration, so a restored encoder is
  /// bit-identical to the one that was written.  \p bound_arena is borrowed
  /// — typically a span straight over a read-only snapshot mapping — and
  /// must outlive the encoder.  Validates the scale list, the arena word
  /// count and the per-row tail-bits-zero invariant.
  /// \throws std::invalid_argument on any inconsistency.
  MultiScaleCircularEncoder(Basis finest, std::vector<std::size_t> scales,
                            double period, std::uint64_t seed,
                            std::span<const std::uint64_t> bound_arena,
                            borrow_t);

  /// Borrowing restore that skips the per-row tail scan (touching every row
  /// would page in the whole arena and defeat size-independent cold-start).
  /// Only for arenas the caller already trusts to be writer-produced — e.g.
  /// a snapshot from an authenticated artifact store
  /// (`SnapshotIntegrity::Trust`).  A matching checksum alone does NOT
  /// prove the invariants (it authenticates whatever bytes were hashed,
  /// valid or not) — use the validating overload there.  \pre same
  /// invariants as the validating overload; violating them is undefined
  /// behaviour.
  MultiScaleCircularEncoder(Basis finest, std::vector<std::size_t> scales,
                            double period, std::uint64_t seed,
                            std::span<const std::uint64_t> bound_arena,
                            borrow_t, unchecked_t);

  [[nodiscard]] HypervectorView encode(double value) const override;
  [[nodiscard]] std::size_t index_of(double value) const override;
  [[nodiscard]] double value_of(std::size_t index) const override;
  [[nodiscard]] double decode(HypervectorView query) const override;
  /// False: decode() sweeps the bound arena, not basis().
  [[nodiscard]] bool decodes_on_basis() const noexcept override {
    return false;
  }

  /// The finest-scale basis (defines the public grid).  On a restored
  /// encoder this is the only materialized basis; the coarser scales live
  /// pre-bound inside the arena.
  [[nodiscard]] const Basis& basis() const noexcept override {
    return bases_.back();
  }

  [[nodiscard]] double period() const noexcept { return period_; }
  [[nodiscard]] std::size_t num_scales() const noexcept {
    return scales_.size();
  }
  /// Ring sizes of the bound scales, sorted coarse -> fine; the last entry
  /// is the public grid size.
  [[nodiscard]] const std::vector<std::size_t>& scales() const noexcept {
    return scales_;
  }
  /// The seed this encoder was created from (provenance).
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  /// The bound-vector arena (one row per finest-grid index) — the encoder's
  /// whole functional state, and what hdc::io snapshots persist.
  [[nodiscard]] std::span<const std::uint64_t> packed_words() const noexcept {
    return packed_.words();
  }
  /// Arena stride in 64-bit words.
  [[nodiscard]] std::size_t words_per_vector() const noexcept {
    return words_per_vector_;
  }
  /// True when the bound arena lives on this object's heap; false for
  /// borrowed (snapshot-backed) storage.
  [[nodiscard]] bool owns_storage() const noexcept { return packed_.owning(); }

 private:
  /// Shared state-adopting path behind the two borrowing restore ctors.
  MultiScaleCircularEncoder(Basis finest, std::vector<std::size_t> scales,
                            double period, std::uint64_t seed,
                            WordStorage bound_arena);

  std::vector<Basis> bases_;  ///< Sorted coarse -> fine; finest only when restored.
  std::vector<std::size_t> scales_;  ///< Ring sizes, sorted coarse -> fine.
  double period_;
  std::uint64_t seed_ = 0;
  /// Bound vectors, one per finest-grid index, bit-packed into the single
  /// arena both encode() views and the fused decode sweep read from.
  WordStorage packed_;
  std::size_t words_per_vector_ = 0;
};

}  // namespace hdc

#endif  // HDC_CORE_MULTISCALE_ENCODER_HPP
