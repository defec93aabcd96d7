#ifndef HDC_IO_FORMAT_HPP
#define HDC_IO_FORMAT_HPP

/// \file format.hpp
/// \brief The HDCS snapshot on-disk format: constants, records, parsing.
///
/// An HDCS snapshot is a versioned, little-endian container whose payload
/// bytes *are* the runtime arena layout, so a reader can serve models
/// straight over a read-only mmap with zero deserialization copies:
///
///     [ file header            | 64 bytes, "HDCS" magic              ]
///     [ section table          | section_count x 128-byte entries    ]
///     [ ...zero padding to the payload alignment...                  ]
///     [ payload section 0      | packed little-endian 64-bit words   ]
///     [ ...zero padding...                                           ]
///     [ payload section 1      | ...                                 ]
///
/// Every payload section starts on a `payload_alignment` boundary (4096 by
/// default, so sections are page-aligned for mmap serving; the format
/// permits any power of two >= 64) and carries an XXH64 checksum in its
/// table entry; the table itself is covered by a checksum in the header.
/// All multi-byte fields are little-endian.  Full field-by-field layout:
/// docs/snapshot_format.md.
///
/// `parse_snapshot_layout` validates everything that can be checked without
/// touching payload bytes — magic, version, endianness, counts, alignment,
/// bounds, ordering, reserved bytes, the table checksum — and throws
/// `SnapshotError` on the first inconsistency, so no reader ever constructs
/// a model from a structurally corrupt file.  Payload integrity is a
/// separate, per-section step (`verify_section_payload`) because hashing a
/// payload pages it in: eager for the heap loader, on first access for the
/// mmap reader, skippable for trusted artifact stores.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace hdc::io {

/// Raised on malformed snapshot files, checksum mismatches and I/O
/// failures.  Readers throw before any partial model can escape.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::array<char, 4> snapshot_magic = {'H', 'D', 'C', 'S'};
/// Version 2 added the encoder/pipeline section types (4..8), the second
/// aux-reference field and the multiscale scale list; version 3 added the
/// ComposedEncoderConfig section (9) for N-way XOR-product encoder bindings
/// with heterogeneous periods; version 4 added the DeltaPatch section (10)
/// so an adapted model ships as base snapshot + changed-row patch; see
/// docs/snapshot_format.md for the migration notes.
inline constexpr std::uint16_t snapshot_version = 4;
/// 'E','L' on disk; a reader decoding the header little-endian sees 0x4C45.
inline constexpr std::uint16_t snapshot_endian_marker = 0x4C45;
inline constexpr std::size_t snapshot_header_bytes = 64;
inline constexpr std::size_t snapshot_entry_bytes = 128;
/// Default payload alignment: one page, so mmap'd sections are page-aligned.
inline constexpr std::size_t snapshot_default_alignment = 4096;
/// Smallest permitted payload alignment (cache-line / word alignment floor).
inline constexpr std::size_t snapshot_min_alignment = 64;
inline constexpr std::size_t snapshot_max_alignment = std::size_t{1} << 20;
/// Sentinel for "no auxiliary section".
inline constexpr std::uint64_t snapshot_no_aux = ~std::uint64_t{0};
/// Hard cap on dimensions/counts: corrupted tables must not describe
/// multi-gigabyte models.
inline constexpr std::uint64_t snapshot_sanity_limit = 1ULL << 28;
/// Hard cap on the section count (the table alone would be 128 MiB here).
inline constexpr std::uint64_t snapshot_max_sections = 1ULL << 20;
/// Most scales a MultiScaleEncoderConfig section can record: the scale list
/// lives in the fixed-size section entry (offsets [88, 128)).
inline constexpr std::size_t snapshot_max_scales = 5;
/// Most sub-encoders a ComposedEncoderConfig section can reference: the
/// first two ride in aux_section / aux_section_b, the rest reuse the five
/// entry slots at offsets [88, 128) (stored as section index + 1 so the
/// all-zero slot keeps meaning "unused").
inline constexpr std::size_t snapshot_max_composed = 2 + snapshot_max_scales;

/// What a payload section holds.
enum class SectionType : std::uint16_t {
  /// A basis arena: `count` rows of words_for(dimension) packed words —
  /// bit-identical to Basis::packed_words().
  BasisArena = 1,
  /// A finalized classifier's class-vector arena — bit-identical to
  /// CentroidClassifier::packed_class_words().
  ClassifierClassVectors = 2,
  /// A finalized regressor's quantized model hypervector (count == 1);
  /// `aux_section` indexes the label-basis section written alongside.
  RegressorModel = 3,
  /// A LinearScalarEncoder / CircularScalarEncoder configuration (no
  /// payload); `aux_section` indexes its basis, `label_encoder` carries the
  /// encoder family and param_a/param_b its lo/hi or period.
  ScalarEncoderConfig = 4,
  /// A MultiScaleCircularEncoder: the payload is the bound-vector arena
  /// (`count` rows, one per finest-grid index), `aux_section` indexes the
  /// finest-scale circular basis, `kind` is the number of bound scales and
  /// `scales` lists their ring sizes coarse -> fine.
  MultiScaleEncoderConfig = 5,
  /// A KeyValueEncoder: the payload is its bundling tie-breaker (count ==
  /// 1), `aux_section` indexes the key basis and `aux_section_b` the value
  /// encoder's config section (ScalarEncoderConfig or
  /// MultiScaleEncoderConfig).
  FeatureEncoderConfig = 6,
  /// A complete encode->predict pipeline (no payload): `aux_section`
  /// indexes the encoder config section, `aux_section_b` the model section
  /// (ClassifierClassVectors or RegressorModel).
  PipelineHead = 7,
  /// A SequenceEncoder / NGramEncoder configuration (no payload): both are
  /// fully determined by (dimension, seed[, n]); `kind` is 0 for sequence,
  /// 1 for n-gram, and `method` carries n for n-gram sections.
  SequenceEncoderConfig = 8,
  /// A ComposedEncoder (version 3, no payload): `kind` scalar-encoder
  /// config sections bound by XOR product, one feature each.  `aux_section`
  /// and `aux_section_b` reference sub-encoders 0 and 1; sub-encoders 2..6
  /// live in the `scales` slots as section index + 1 (0 = unused).  The
  /// paper's Beijing Y ⊗ D ⊗ H product with heterogeneous periods is the
  /// canonical instance.
  ComposedEncoderConfig = 9,
  /// A changed-row patch against a *base* snapshot file (version 4): the
  /// payload is `count` strictly increasing u64 row indices followed by
  /// `count` packed rows of words_for(dimension) words each.  `seed` is the
  /// XXH64 content hash of the entire base snapshot file, `aux_section` the
  /// patched model section's index *in the base file* (the one cross-file
  /// reference in the format), `kind` the target SectionType
  /// (ClassifierClassVectors or RegressorModel) and `aux_section_b` the base
  /// model's total row count.  Applying the patch to the base reproduces the
  /// adapted full snapshot byte-for-byte (hdc::io::apply_delta).
  DeltaPatch = 10,
};

/// Scalar-encoder family: the label encoder of a RegressorModel section and
/// the encoder family of a ScalarEncoderConfig section.
enum class LabelEncoderKind : std::uint16_t {
  None = 0,
  /// LinearScalarEncoder over [param_a, param_b].
  Linear = 1,
  /// CircularScalarEncoder with period param_b.
  Circular = 2,
};

/// One decoded section-table entry.
struct SectionRecord {
  SectionType type = SectionType::BasisArena;
  std::uint16_t kind = 0;    ///< BasisKind for BasisArena sections.
  std::uint16_t method = 0;  ///< LevelMethod for BasisArena sections.
  LabelEncoderKind label_encoder = LabelEncoderKind::None;
  std::uint64_t dimension = 0;
  std::uint64_t count = 0;  ///< Rows in the payload (m / classes / 1).
  double param_a = 0.0;     ///< Basis r, or encoder lo.
  double param_b = 0.0;     ///< Encoder hi or period.
  std::uint64_t seed = 0;
  std::uint64_t aux_section = snapshot_no_aux;
  std::uint64_t payload_offset = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t payload_checksum = 0;
  /// Second section reference (version 2): the value-encoder section of a
  /// FeatureEncoderConfig, or the model section of a PipelineHead.
  std::uint64_t aux_section_b = snapshot_no_aux;
  /// Ring sizes of a MultiScaleEncoderConfig's bound scales, coarse -> fine
  /// in the first `kind` slots; on a ComposedEncoderConfig the first
  /// `kind - 2` slots carry sub-encoder section references as index + 1;
  /// all-zero for every other section type.
  std::array<std::uint64_t, snapshot_max_scales> scales{};
};

/// A structurally validated snapshot image: header fields + section table.
struct SnapshotLayout {
  std::size_t payload_alignment = snapshot_default_alignment;
  std::uint64_t file_bytes = 0;
  std::vector<SectionRecord> sections;
};

/// Validates the header and section table of an in-memory snapshot image
/// (magic, version, endianness, alignment, bounds, ordering, reserved
/// bytes, table checksum, per-entry metadata sanity) without reading any
/// payload bytes.  \throws SnapshotError on the first inconsistency.
[[nodiscard]] SnapshotLayout parse_snapshot_layout(
    std::span<const std::byte> file);

/// Hashes \p section's payload bytes in \p file and compares against the
/// recorded checksum.  \throws SnapshotError on mismatch.
void verify_section_payload(std::span<const std::byte> file,
                            const SectionRecord& section);

namespace detail {

/// Little-endian field stores/loads composed from bytes; the only codec the
/// format uses, so snapshots are byte-identical across platforms.
inline void store_u16(std::span<std::byte> out, std::size_t at,
                      std::uint16_t value) noexcept {
  out[at] = static_cast<std::byte>(value & 0xFFU);
  out[at + 1] = static_cast<std::byte>((value >> 8) & 0xFFU);
}

inline void store_u32(std::span<std::byte> out, std::size_t at,
                      std::uint32_t value) noexcept {
  for (std::size_t i = 0; i < 4; ++i) {
    out[at + i] = static_cast<std::byte>((value >> (8 * i)) & 0xFFU);
  }
}

inline void store_u64(std::span<std::byte> out, std::size_t at,
                      std::uint64_t value) noexcept {
  for (std::size_t i = 0; i < 8; ++i) {
    out[at + i] = static_cast<std::byte>((value >> (8 * i)) & 0xFFU);
  }
}

void store_f64(std::span<std::byte> out, std::size_t at, double value) noexcept;

[[nodiscard]] inline std::uint16_t load_u16(std::span<const std::byte> in,
                                            std::size_t at) noexcept {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(in[at]) |
                                    (static_cast<std::uint16_t>(in[at + 1])
                                     << 8));
}

[[nodiscard]] inline std::uint32_t load_u32(std::span<const std::byte> in,
                                            std::size_t at) noexcept {
  std::uint32_t value = 0;
  for (std::size_t i = 4; i-- > 0;) {
    value = (value << 8) | static_cast<std::uint32_t>(in[at + i]);
  }
  return value;
}

[[nodiscard]] inline std::uint64_t load_u64(std::span<const std::byte> in,
                                            std::size_t at) noexcept {
  std::uint64_t value = 0;
  for (std::size_t i = 8; i-- > 0;) {
    value = (value << 8) | static_cast<std::uint64_t>(in[at + i]);
  }
  return value;
}

[[nodiscard]] double load_f64(std::span<const std::byte> in,
                              std::size_t at) noexcept;

/// at rounded up to the next multiple of alignment (a power of two).
[[nodiscard]] constexpr std::uint64_t align_up(
    std::uint64_t at, std::uint64_t alignment) noexcept {
  return (at + alignment - 1) & ~(alignment - 1);
}

/// Encodes one section-table entry into its 128-byte slot.
void encode_section_entry(std::span<std::byte> out, std::size_t at,
                          const SectionRecord& record) noexcept;

}  // namespace detail

}  // namespace hdc::io

#endif  // HDC_IO_FORMAT_HPP
