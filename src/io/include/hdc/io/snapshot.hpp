#ifndef HDC_IO_SNAPSHOT_HPP
#define HDC_IO_SNAPSHOT_HPP

/// \file snapshot.hpp
/// \brief Mmap-able model snapshots: write, map, and load HDCS files.
///
/// Three entry points (see docs/snapshot_format.md for the byte layout):
///
///  * `SnapshotWriter` streams finalized models — `Basis` arenas,
///    `CentroidClassifier` class-vectors, `HDRegressor` models with their
///    label bases, encoder configurations, and whole encode->predict
///    pipelines (`add_pipeline`; restored by `hdc::io::Pipeline`) — into one
///    snapshot file whose payload bytes are the runtime arena layout.
///  * `MappedSnapshot` maps a snapshot read-only (POSIX mmap; a transparent
///    heap fallback elsewhere) and hands out models whose storage is a
///    borrowed span straight over the mapping: zero payload copies, so
///    cold-start latency is independent of model size.  Models borrow from
///    the snapshot and are valid only while it stays open.
///  * `load_snapshot` is the portable heap-backed fallback: it reads the
///    whole file (or any std::istream) into memory and serves the same API
///    with the snapshot owning the buffer.
///
/// Integrity: every reader fully validates the header and section table
/// (including the table checksum) before anything else, so a corrupt file
/// can never yield a partial model.  Payload checksums are verified eagerly
/// by `load_snapshot`, and on first access per section by `MappedSnapshot`
/// — pass `SnapshotIntegrity::Trust` to skip the payload hash for
/// content-addressed artifact stores whose bytes are already authenticated;
/// only then is section access O(1) in the payload size.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hdc/core/basis.hpp"
#include "hdc/core/classifier.hpp"
#include "hdc/core/composed_encoder.hpp"
#include "hdc/core/feature_encoder.hpp"
#include "hdc/core/multiscale_encoder.hpp"
#include "hdc/core/regressor.hpp"
#include "hdc/core/scalar_encoder.hpp"
#include "hdc/core/sequence_encoder.hpp"
#include "hdc/io/format.hpp"

namespace hdc::io {

struct DeltaPatch;

/// Streams finalized models into one HDCS snapshot.
///
/// `add_*` records a *reference* to the model's packed words (no copy); the
/// model must stay alive and unmodified until `write()`/`write_file()`.
class SnapshotWriter {
 public:
  /// \param payload_alignment  Boundary every payload section starts on; a
  /// power of two in [64, 1 MiB].  The 4096 default keeps sections
  /// page-aligned for mmap serving; tests use smaller alignments to keep
  /// golden files compact.
  /// \throws SnapshotError on an invalid alignment.
  explicit SnapshotWriter(
      std::size_t payload_alignment = snapshot_default_alignment);

  /// Adds a basis arena section; returns its section index.
  std::size_t add_basis(const Basis& basis);

  /// Adds a finalized classifier's class-vector arena; returns its section
  /// index.  \throws SnapshotError if the model is not finalized.
  std::size_t add_classifier(const CentroidClassifier& model);

  /// Adds a finalized regressor as *two* sections — its label basis, then
  /// the quantized model hypervector referencing it — and returns the index
  /// of the model section.  \throws SnapshotError if the model is not
  /// finalized or its label encoder is not a LinearScalarEncoder /
  /// CircularScalarEncoder.
  std::size_t add_regressor(const HDRegressor& model);

  /// Adds a scalar encoder and returns the index of its *config* section.
  /// A LinearScalarEncoder / CircularScalarEncoder becomes its basis
  /// section plus a payload-less ScalarEncoderConfig; a
  /// MultiScaleCircularEncoder becomes its finest-scale basis plus a
  /// MultiScaleEncoderConfig whose payload is the bound-vector arena.
  /// \throws SnapshotError on any other encoder type, or on a multiscale
  /// encoder with duplicate scales or more than `snapshot_max_scales`.
  std::size_t add_scalar_encoder(const ScalarEncoder& encoder);

  /// Adds a KeyValueEncoder — its value encoder (as add_scalar_encoder),
  /// its key basis, then a FeatureEncoderConfig whose payload is the
  /// bundling tie-breaker — and returns the index of the config section.
  /// \throws SnapshotError as add_scalar_encoder.
  std::size_t add_feature_encoder(const KeyValueEncoder& encoder);

  /// Adds a ComposedEncoder — each sub-encoder via add_scalar_encoder, then
  /// a payload-less ComposedEncoderConfig referencing them all — and
  /// returns the index of the config section.  \throws SnapshotError if the
  /// encoder has more than `snapshot_max_composed` sub-encoders, or as
  /// add_scalar_encoder for each part.
  std::size_t add_composed_encoder(const ComposedEncoder& encoder);

  /// Adds a sequence / n-gram encoder as one payload-less config section
  /// (both are fully determined by dimension, seed and n) and returns its
  /// index.  \throws SnapshotError if an n-gram n exceeds 65535.
  std::size_t add_sequence_encoder(const SequenceEncoder& encoder);
  std::size_t add_sequence_encoder(const NGramEncoder& encoder);

  /// Adds a complete encode->predict pipeline — the encoder's sections, the
  /// model's sections, and a PipelineHead tying them together — in one
  /// call, and returns the index of the head section.  The restored
  /// counterpart is `Pipeline::restore` (hdc/io/pipeline.hpp).
  /// \throws SnapshotError if the encoder and model dimensions disagree, or
  /// as the underlying add_* calls.
  std::size_t add_pipeline(const ScalarEncoder& encoder,
                           const CentroidClassifier& model);
  std::size_t add_pipeline(const ScalarEncoder& encoder,
                           const HDRegressor& model);
  std::size_t add_pipeline(const KeyValueEncoder& encoder,
                           const CentroidClassifier& model);
  std::size_t add_pipeline(const KeyValueEncoder& encoder,
                           const HDRegressor& model);
  std::size_t add_pipeline(const ComposedEncoder& encoder,
                           const CentroidClassifier& model);
  std::size_t add_pipeline(const ComposedEncoder& encoder,
                           const HDRegressor& model);
  std::size_t add_pipeline(const SequenceEncoder& encoder,
                           const CentroidClassifier& model);
  std::size_t add_pipeline(const SequenceEncoder& encoder,
                           const HDRegressor& model);
  std::size_t add_pipeline(const NGramEncoder& encoder,
                           const CentroidClassifier& model);
  std::size_t add_pipeline(const NGramEncoder& encoder,
                           const HDRegressor& model);

  /// Adds a version-4 delta section (hdc/io/delta.hpp): the changed rows of
  /// an adapted model against a hashed base snapshot.  Like every add_*,
  /// records a reference — \p patch must outlive write()/write_file().
  /// Returns the section index.  \throws SnapshotError if the patch has no
  /// changed rows or fails its payload invariants.
  std::size_t add_delta(const DeltaPatch& patch);

  [[nodiscard]] std::size_t section_count() const noexcept {
    return sections_.size();
  }

  /// Writes the snapshot: header, checksummed section table, aligned
  /// payloads.  Deterministic — the same models and alignment produce
  /// byte-identical output (the golden-file guarantee).
  /// \throws SnapshotError if no sections were added or on write failure.
  void write(std::ostream& out) const;

  /// write() into a fresh binary file at \p path.
  /// \throws SnapshotError if the file cannot be created.
  void write_file(const std::string& path) const;

 private:
  struct Pending {
    SectionRecord record;
    std::span<const std::uint64_t> payload;
  };

  /// Appends the payload-less PipelineHead section tying an already-added
  /// encoder config to an already-added model section.
  std::size_t add_pipeline_head(std::size_t encoder_section,
                                std::size_t model_section,
                                std::size_t dimension);

  std::size_t alignment_;
  std::vector<Pending> sections_;
};

/// Residency options for the mapped file (POSIX mmap backend only; a
/// documented no-op on the heap fallback and on non-POSIX platforms, where
/// the pages are ordinary owned memory anyway).  The mapping is always
/// madvise(MADV_WILLNEED)-prefetched right after mmap, so the first serving
/// request touches warm pages instead of paying cold-start major faults
/// one 4 KiB page at a time.
struct MappingOptions {
  /// Pin the mapping with mlock(2) so a payload access can never major-
  /// fault once serving has started (tail-latency insurance for
  /// `hdcgen serve --mlock`).  Needs RLIMIT_MEMLOCK headroom for the
  /// whole file; a failed mlock throws SnapshotError rather than serving
  /// with a silently unpinned mapping.
  bool lock_memory = false;
};

/// Payload-integrity policy for snapshot readers.
enum class SnapshotIntegrity {
  /// Verify each section's XXH64 payload checksum before handing out a
  /// model over it (default; `load_snapshot` verifies eagerly at load).
  Checksum,
  /// Skip payload hashing; structural validation only.  Section access is
  /// then O(1) in payload size.  Only for stores whose bytes are already
  /// authenticated (content-addressed artifacts, verified-once replicas).
  Trust,
};

/// A read-only snapshot serving models with zero payload copies.
///
/// Move-only.  Every model handed out borrows its storage from this object
/// and must not outlive it; use `Basis::detach()` /
/// `CentroidClassifier::detach()` to break the tie.  Const accessors are
/// safe to call from multiple threads concurrently.
class MappedSnapshot {
 public:
  /// Maps \p path read-only and validates the header and section table.
  /// On platforms without mmap the file is read into a heap buffer instead
  /// (`zero_copy()` reports which) and \p mapping is ignored.  \throws
  /// SnapshotError on any open, map, validation, or mlock failure.
  [[nodiscard]] static MappedSnapshot open(
      const std::string& path,
      SnapshotIntegrity integrity = SnapshotIntegrity::Checksum,
      MappingOptions mapping = MappingOptions{});

  /// Heap-backed snapshot over a copy of \p bytes (the in-memory entry
  /// point; `load_snapshot` builds on it).  With `Checksum`, every payload
  /// is verified here, eagerly.  \throws SnapshotError on validation
  /// failure.
  [[nodiscard]] static MappedSnapshot from_bytes(
      std::span<const std::byte> bytes,
      SnapshotIntegrity integrity = SnapshotIntegrity::Checksum);

  MappedSnapshot(MappedSnapshot&&) noexcept;
  MappedSnapshot& operator=(MappedSnapshot&&) noexcept;
  MappedSnapshot(const MappedSnapshot&) = delete;
  MappedSnapshot& operator=(const MappedSnapshot&) = delete;
  ~MappedSnapshot();

  [[nodiscard]] std::size_t section_count() const noexcept;

  /// Decoded table entry \p i. \throws std::out_of_range if out of range.
  [[nodiscard]] const SectionRecord& section(std::size_t i) const;

  /// True when the payload bytes are served straight off an mmap; false for
  /// the heap-backed fallback.
  [[nodiscard]] bool zero_copy() const noexcept;

  /// True when the mapping is pinned in memory
  /// (`MappingOptions::lock_memory` on an mmap-backed snapshot).
  [[nodiscard]] bool locked() const noexcept;

  [[nodiscard]] std::uint64_t file_bytes() const noexcept;

  /// Verifies every section's payload checksum now (idempotent; sections
  /// already verified are skipped).  Hashes even on a Trust-integrity
  /// snapshot — an explicit call asks for it by name.
  /// \throws SnapshotError on mismatch.
  void verify() const;

  /// Section \p i's payload as packed words over the snapshot storage —
  /// the raw material for borrowed arenas (runtime::VectorArena::borrow).
  /// Verifies the payload checksum first under `Checksum` integrity.
  /// \throws std::out_of_range / SnapshotError.
  [[nodiscard]] std::span<const std::uint64_t> section_words(
      std::size_t i) const;

  /// Basis section \p i as a borrowed, zero-copy `Basis`.
  /// \throws SnapshotError if the section is not a BasisArena or fails its
  /// checksum; std::out_of_range if out of range.
  [[nodiscard]] Basis basis(std::size_t i) const;

  /// Classifier section \p i as a borrowed, inference-only
  /// `CentroidClassifier`.  \throws as basis().
  [[nodiscard]] CentroidClassifier classifier(std::size_t i) const;

  /// Regressor section \p i as an inference-only `HDRegressor` whose label
  /// basis borrows from the snapshot.  \throws as basis().
  [[nodiscard]] HDRegressor regressor(std::size_t i) const;

  /// Scalar-encoder config section \p i (ScalarEncoderConfig or
  /// MultiScaleEncoderConfig) as a shared encoder whose basis — and, for
  /// multiscale, bound arena — borrows from the snapshot.  \throws as
  /// basis().
  [[nodiscard]] ScalarEncoderPtr scalar_encoder(std::size_t i) const;

  /// Feature-encoder config section \p i as a restored `KeyValueEncoder`
  /// (key basis and value encoder borrow from the snapshot).  \throws as
  /// basis().
  [[nodiscard]] KeyValueEncoder feature_encoder(std::size_t i) const;

  /// Composed-encoder config section \p i as a restored `ComposedEncoder`
  /// (every sub-encoder's basis borrows from the snapshot).  \throws as
  /// basis().
  [[nodiscard]] ComposedEncoder composed_encoder(std::size_t i) const;

  /// Sequence-encoder config section \p i as a `SequenceEncoder` /
  /// `NGramEncoder`, rebuilt bit-exactly from (dimension, seed[, n]).
  /// \throws SnapshotError if the section is not a SequenceEncoderConfig of
  /// the matching kind; std::out_of_range if out of range.
  [[nodiscard]] SequenceEncoder sequence_encoder(std::size_t i) const;
  [[nodiscard]] NGramEncoder ngram_encoder(std::size_t i) const;

 private:
  struct Impl;
  explicit MappedSnapshot(std::unique_ptr<Impl> impl) noexcept;

  /// The heap loader constructs Impl directly to avoid an extra buffer copy.
  friend MappedSnapshot load_snapshot(std::istream& in,
                                      SnapshotIntegrity integrity);

  std::unique_ptr<Impl> impl_;
};

/// Heap-backed fallback loader: reads the whole snapshot into memory
/// through portable stream I/O and returns it with all payload checksums
/// verified (unless `Trust`).  \throws SnapshotError on any failure.
[[nodiscard]] MappedSnapshot load_snapshot(
    std::istream& in,
    SnapshotIntegrity integrity = SnapshotIntegrity::Checksum);

/// load_snapshot() over a file path.
[[nodiscard]] MappedSnapshot load_snapshot(
    const std::string& path,
    SnapshotIntegrity integrity = SnapshotIntegrity::Checksum);

}  // namespace hdc::io

#endif  // HDC_IO_SNAPSHOT_HPP
