#ifndef HDC_IO_DELTA_HPP
#define HDC_IO_DELTA_HPP

/// \file delta.hpp
/// \brief HDCS v4 delta snapshots: ship an adapted model as base + patch.
///
/// Online adaptation (hdc/core/adaptive.hpp) changes a handful of class
/// rows in a model that may be gigabytes on disk.  A *delta file* is an
/// ordinary HDCS snapshot whose single section is a `DeltaPatch`: the base
/// file's content hash, the patched model section's index in the base, and
/// the changed rows (strictly increasing row indices + packed row words).
///
/// The core guarantee is byte-exactness: `apply_delta` takes the raw bytes
/// of the base file and returns bytes identical to a full snapshot of the
/// adapted model — it patches the changed rows into the model payload,
/// recomputes that section's payload checksum and the table checksum, and
/// re-validates the result.  `diff_snapshots` is the inverse: given base
/// and adapted full snapshots that differ only in the model payload, it
/// recovers the patch.  Round trip:
///
///     apply_delta(base_bytes, diff_snapshots(base, adapted)) == adapted
///
/// `load_pipeline_or_delta` is the serving entry point: it accepts either a
/// full snapshot (mapped zero-copy, exactly `load_pipeline`) or a delta
/// file, which is applied in memory against the tracked base path and
/// restored heap-backed — so `!reload` takes base or patch transparently.
///
/// Every reader path validates before any model can escape: the base hash
/// must match (`seed` field), indices must be strictly increasing and in
/// range, and patched rows must keep the tail-bits-zero invariant.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "hdc/io/reload.hpp"
#include "hdc/io/snapshot.hpp"

namespace hdc::io {

/// A decoded changed-row patch against one model section of a base
/// snapshot file.
struct DeltaPatch {
  /// What the patch targets: ClassifierClassVectors or RegressorModel.
  SectionType target_type = SectionType::ClassifierClassVectors;
  /// Index of the patched model section *in the base file*.
  std::uint64_t base_section = 0;
  /// XXH64 over the entire base snapshot file; apply refuses any other base.
  std::uint64_t base_hash = 0;
  /// Total rows of the base model section (>= changed_rows()).
  std::uint64_t base_rows = 0;
  std::uint64_t dimension = 0;
  /// The payload words: changed_rows() strictly increasing u64 row indices,
  /// then changed_rows() packed rows of bits::words_for(dimension) words.
  std::vector<std::uint64_t> words;

  [[nodiscard]] std::uint64_t words_per_row() const noexcept {
    return (dimension + 63) / 64;
  }
  [[nodiscard]] std::uint64_t changed_rows() const noexcept {
    return dimension == 0 ? 0 : words.size() / (1 + words_per_row());
  }
  /// The i-th changed row's global index / packed words.
  [[nodiscard]] std::uint64_t row_index(std::uint64_t i) const {
    return words.at(i);
  }
  [[nodiscard]] std::span<const std::uint64_t> row_words(
      std::uint64_t i) const {
    return std::span<const std::uint64_t>(words).subspan(
        changed_rows() + i * words_per_row(), words_per_row());
  }
};

/// XXH64 content hash of an entire file — the identity `DeltaPatch` pins
/// its base with.  \throws SnapshotError if the file cannot be read.
[[nodiscard]] std::uint64_t snapshot_file_hash(const std::string& path);

/// Index of the model section (ClassifierClassVectors or RegressorModel)
/// the snapshot's single PipelineHead references; for head-less snapshots,
/// the single model section.  \throws SnapshotError when there is no such
/// section or more than one candidate.
[[nodiscard]] std::size_t find_model_section(const MappedSnapshot& snapshot);

/// Builds a patch from explicit changed rows (row index -> packed words,
/// e.g. AdaptiveClassifier::changed_rows()) against an open base snapshot.
/// \throws SnapshotError if \p rows is empty, an index is out of range, a
/// row has the wrong word count or nonzero tail bits, or \p model_section
/// is not a model section.
[[nodiscard]] DeltaPatch make_delta(
    const MappedSnapshot& base, std::uint64_t base_hash,
    std::size_t model_section,
    const std::map<std::size_t, std::vector<std::uint64_t>>& rows);

/// Rows of the base snapshot's model section whose packed words differ from
/// `current_row(i)` — the changed-row set a live adaptation exports.
/// `current_row` is called once per row with i in [0, section rows) and must
/// return that row of the *adapted* model; comparing against the file (not
/// an in-memory base) keeps rows changed by an earlier delta reload in the
/// patch and drops adapted rows that ended up identical to the base.
/// \throws SnapshotError if \p model_section is not a model section or a
/// returned row has the wrong word count.
[[nodiscard]] std::map<std::size_t, std::vector<std::uint64_t>> diff_rows(
    const MappedSnapshot& base, std::size_t model_section,
    const std::function<std::span<const std::uint64_t>(std::size_t)>&
        current_row);

/// Recovers the patch between two full snapshots that are byte-identical
/// except in the model payload (the pair an adapt pass produces).
/// \throws SnapshotError if the files differ anywhere else, their layouts
/// disagree, or no row differs.
[[nodiscard]] DeltaPatch diff_snapshots(const std::string& base_path,
                                        const std::string& adapted_path);

/// Writes \p patch as a standalone single-section HDCS delta file.
/// \throws SnapshotError if the patch has no changed rows or on write
/// failure.
void write_delta_file(const DeltaPatch& patch, const std::string& path);

/// Reads a delta file back into a `DeltaPatch` (with full structural +
/// payload-level validation).  \throws SnapshotError if \p path is not a
/// single-section delta snapshot.
[[nodiscard]] DeltaPatch read_delta_file(
    const std::string& path,
    SnapshotIntegrity integrity = SnapshotIntegrity::Checksum);

/// True when \p path parses as an HDCS snapshot whose single section is a
/// DeltaPatch; false for full snapshots.  \throws SnapshotError only on
/// open/parse failure (a corrupt file is neither).
[[nodiscard]] bool snapshot_is_delta(const std::string& path);

/// Applies \p patch to the raw bytes of its base snapshot and returns the
/// adapted full snapshot, byte-identical to independently writing the
/// adapted model (same layout, patched rows, refreshed checksums).  The
/// result is re-validated before it is returned.  \throws SnapshotError on
/// a base-hash mismatch ("patch was made against a different base") or any
/// inconsistency between patch and base.
[[nodiscard]] std::vector<std::byte> apply_delta(
    std::span<const std::byte> base_file, const DeltaPatch& patch);

/// File-level apply: reads \p base_path and \p delta_path, applies, and
/// writes the adapted full snapshot to \p out_path (`hdcgen patch`).
void apply_delta_file(const std::string& base_path,
                      const std::string& delta_path,
                      const std::string& out_path);

/// `load_pipeline` that accepts either a full snapshot or a delta file at
/// \p path.  A full snapshot loads exactly as `load_pipeline(path, ...)`;
/// a delta is applied in memory to the bytes of \p base_path and the
/// result restored heap-backed (MappingOptions do not apply to it).
/// \throws SnapshotError as load_pipeline/apply_delta; a delta with an
/// empty \p base_path reports that no base is tracked.
[[nodiscard]] LoadedPipeline load_pipeline_or_delta(
    const std::string& path, const std::string& base_path,
    SnapshotIntegrity integrity = SnapshotIntegrity::Checksum,
    MappingOptions mapping = MappingOptions{});

}  // namespace hdc::io

#endif  // HDC_IO_DELTA_HPP
