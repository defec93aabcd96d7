#include "hdc/io/format.hpp"

#include <bit>
#include <cstring>
#include <string>

#include "hdc/core/basis.hpp"
#include "hdc/io/checksum.hpp"

namespace hdc::io {

namespace detail {

void store_f64(std::span<std::byte> out, std::size_t at,
               double value) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  store_u64(out, at, bits);
}

double load_f64(std::span<const std::byte> in, std::size_t at) noexcept {
  const std::uint64_t bits = load_u64(in, at);
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

void encode_section_entry(std::span<std::byte> out, std::size_t at,
                          const SectionRecord& record) noexcept {
  store_u16(out, at + 0, static_cast<std::uint16_t>(record.type));
  store_u16(out, at + 2, record.kind);
  store_u16(out, at + 4, record.method);
  store_u16(out, at + 6, static_cast<std::uint16_t>(record.label_encoder));
  store_u64(out, at + 8, record.dimension);
  store_u64(out, at + 16, record.count);
  store_f64(out, at + 24, record.param_a);
  store_f64(out, at + 32, record.param_b);
  store_u64(out, at + 40, record.seed);
  store_u64(out, at + 48, record.aux_section);
  store_u64(out, at + 56, record.payload_offset);
  store_u64(out, at + 64, record.payload_bytes);
  store_u64(out, at + 72, record.payload_checksum);
  store_u64(out, at + 80, record.aux_section_b);
  // [at + 88, at + 128): the multiscale scale list / composed sub-encoder
  // references; zero for every other section type, which keeps those bytes
  // reserved in practice.
  for (std::size_t i = 0; i < snapshot_max_scales; ++i) {
    store_u64(out, at + 88 + 8 * i, record.scales[i]);
  }
}

}  // namespace detail

namespace {

using detail::load_f64;
using detail::load_u16;
using detail::load_u32;
using detail::load_u64;

[[noreturn]] void fail(const std::string& what) {
  throw SnapshotError("snapshot: " + what);
}

void require_zero_bytes(std::span<const std::byte> bytes, std::size_t begin,
                        std::size_t end, const char* where) {
  for (std::size_t i = begin; i < end; ++i) {
    if (bytes[i] != std::byte{0}) {
      fail(std::string(where) + " reserved bytes must be zero in version 4");
    }
  }
}

SectionRecord decode_section_entry(std::span<const std::byte> table,
                                   std::size_t at) {
  SectionRecord record;
  record.type = static_cast<SectionType>(load_u16(table, at + 0));
  record.kind = load_u16(table, at + 2);
  record.method = load_u16(table, at + 4);
  record.label_encoder =
      static_cast<LabelEncoderKind>(load_u16(table, at + 6));
  record.dimension = load_u64(table, at + 8);
  record.count = load_u64(table, at + 16);
  record.param_a = load_f64(table, at + 24);
  record.param_b = load_f64(table, at + 32);
  record.seed = load_u64(table, at + 40);
  record.aux_section = load_u64(table, at + 48);
  record.payload_offset = load_u64(table, at + 56);
  record.payload_bytes = load_u64(table, at + 64);
  record.payload_checksum = load_u64(table, at + 72);
  record.aux_section_b = load_u64(table, at + 80);
  for (std::size_t i = 0; i < snapshot_max_scales; ++i) {
    record.scales[i] = load_u64(table, at + 88 + 8 * i);
  }
  return record;
}

/// Per-entry metadata rules beyond bounds: what combination of fields each
/// section type may carry in version 4.  Strict on purpose — every field a
/// v4 reader does not interpret must be zero/sentinel, which keeps the fuzz
/// contract tight (a bit flip either breaks a checksum or breaks a rule
/// here) and leaves room to assign meanings in later versions.
void validate_section_metadata(const SectionRecord& record, std::size_t index,
                               const std::vector<SectionRecord>& previous) {
  const std::string where = "section " + std::to_string(index);
  if (record.dimension == 0 || record.dimension > snapshot_sanity_limit) {
    fail(where + ": implausible dimension");
  }
  // Config-only sections (encoder parameters, pipeline wiring) carry their
  // whole state in the table entry: no payload, count == 0.
  const bool config_only = record.type == SectionType::ScalarEncoderConfig ||
                           record.type == SectionType::PipelineHead ||
                           record.type == SectionType::SequenceEncoderConfig ||
                           record.type == SectionType::ComposedEncoderConfig;
  if (config_only) {
    if (record.count != 0 || record.payload_bytes != 0) {
      fail(where + ": config sections carry no payload rows");
    }
  } else {
    if (record.count == 0 || record.count > snapshot_sanity_limit) {
      fail(where + ": implausible row count");
    }
    const std::uint64_t words_per_row = (record.dimension + 63) / 64;
    // A delta payload prefixes its rows with one u64 row index per row; the
    // sanity limit on count keeps both products far from overflow.
    const std::uint64_t expected_bytes =
        record.type == SectionType::DeltaPatch
            ? record.count * 8 + record.count * words_per_row * 8
            : record.count * words_per_row * 8;
    if (record.payload_bytes != expected_bytes) {
      fail(where + ": payload byte count disagrees with dimension and count");
    }
  }
  const auto require_zero_scales = [&] {
    for (const std::uint64_t scale : record.scales) {
      if (scale != 0) {
        fail(where + ": scale list on a non-multiscale section");
      }
    }
  };
  const auto require_no_aux_b = [&] {
    if (record.aux_section_b != snapshot_no_aux) {
      fail(where + ": unexpected secondary section reference");
    }
  };
  /// An aux reference must point at an already-validated earlier section of
  /// the expected type with the same dimension (the "missing or
  /// mismatched-dimension basis" guard the restore layer relies on).
  const auto resolve = [&](std::uint64_t aux,
                           const char* what) -> const SectionRecord& {
    if (aux >= index) {
      fail(where + ": " + what + " must reference an earlier section");
    }
    const SectionRecord& target = previous[aux];
    if (target.dimension != record.dimension) {
      fail(where + ": " + what + " has a mismatched dimension");
    }
    return target;
  };
  const auto require_scalar_params = [&] {
    if (record.label_encoder == LabelEncoderKind::Linear) {
      if (!(record.param_a < record.param_b)) {
        fail(where + ": linear encoder needs lo < hi");
      }
    } else if (record.label_encoder == LabelEncoderKind::Circular) {
      if (record.param_a != 0.0 || !(record.param_b > 0.0)) {
        fail(where + ": circular encoder needs period > 0");
      }
    } else {
      fail(where + ": unknown scalar encoder kind");
    }
  };
  switch (record.type) {
    case SectionType::BasisArena:
      if (record.kind > 3 || record.method > 1) {
        fail(where + ": unknown basis kind or level method");
      }
      if (!(record.param_a >= 0.0 && record.param_a <= 1.0) ||
          record.param_b != 0.0) {
        fail(where + ": basis r out of [0, 1] or nonzero reserved param");
      }
      if (record.label_encoder != LabelEncoderKind::None ||
          record.aux_section != snapshot_no_aux) {
        fail(where + ": basis sections carry no encoder or aux fields");
      }
      require_no_aux_b();
      require_zero_scales();
      break;
    case SectionType::ClassifierClassVectors:
      if (record.kind != 0 || record.method != 0 || record.seed != 0 ||
          record.param_a != 0.0 || record.param_b != 0.0 ||
          record.label_encoder != LabelEncoderKind::None ||
          record.aux_section != snapshot_no_aux) {
        fail(where + ": classifier sections carry no basis or encoder fields");
      }
      require_no_aux_b();
      require_zero_scales();
      break;
    case SectionType::RegressorModel: {
      if (record.count != 1) {
        fail(where + ": regressor model must be exactly one row");
      }
      if (record.kind != 0 || record.method != 0 || record.seed != 0) {
        fail(where + ": regressor sections carry no basis fields");
      }
      const SectionRecord& labels = resolve(record.aux_section, "label basis");
      if (labels.type != SectionType::BasisArena || labels.count < 2) {
        fail(where + ": aux section is not a compatible label basis");
      }
      require_scalar_params();
      require_no_aux_b();
      require_zero_scales();
      break;
    }
    case SectionType::ScalarEncoderConfig: {
      if (record.kind != 0 || record.method != 0 || record.seed != 0) {
        fail(where + ": scalar encoder sections carry no basis fields");
      }
      const SectionRecord& basis = resolve(record.aux_section, "encoder basis");
      if (basis.type != SectionType::BasisArena || basis.count < 2) {
        fail(where + ": aux section is not a compatible encoder basis");
      }
      require_scalar_params();
      require_no_aux_b();
      require_zero_scales();
      break;
    }
    case SectionType::MultiScaleEncoderConfig: {
      if (record.method != 0 ||
          record.label_encoder != LabelEncoderKind::None ||
          record.param_a != 0.0) {
        fail(where + ": unexpected fields on a multiscale encoder section");
      }
      if (!(record.param_b > 0.0)) {
        fail(where + ": multiscale encoder needs period > 0");
      }
      if (record.count < 2) {
        fail(where + ": multiscale encoder needs at least two grid points");
      }
      const std::size_t num_scales = record.kind;
      if (num_scales == 0 || num_scales > snapshot_max_scales) {
        fail(where + ": scale count out of [1, " +
             std::to_string(snapshot_max_scales) + "]");
      }
      for (std::size_t s = 0; s < snapshot_max_scales; ++s) {
        if (s >= num_scales) {
          if (record.scales[s] != 0) {
            fail(where + ": trailing scale slots must be zero");
          }
        } else if (record.scales[s] < 2 ||
                   (s > 0 && record.scales[s] <= record.scales[s - 1])) {
          fail(where + ": scales must be >= 2 and strictly increasing");
        }
      }
      if (record.scales[num_scales - 1] != record.count) {
        fail(where + ": finest scale must equal the bound-arena row count");
      }
      const SectionRecord& finest = resolve(record.aux_section, "finest basis");
      if (finest.type != SectionType::BasisArena ||
          finest.count != record.count) {
        fail(where + ": aux section is not the finest-scale basis");
      }
      require_no_aux_b();
      break;
    }
    case SectionType::FeatureEncoderConfig: {
      if (record.count != 1) {
        fail(where + ": feature encoder payload is one tie-breaker row");
      }
      if (record.kind != 0 || record.method != 0 ||
          record.label_encoder != LabelEncoderKind::None ||
          record.param_a != 0.0 || record.param_b != 0.0) {
        fail(where + ": unexpected fields on a feature encoder section");
      }
      const SectionRecord& keys = resolve(record.aux_section, "key basis");
      if (keys.type != SectionType::BasisArena) {
        fail(where + ": aux section is not a key basis");
      }
      const SectionRecord& values =
          resolve(record.aux_section_b, "value encoder");
      if (values.type != SectionType::ScalarEncoderConfig &&
          values.type != SectionType::MultiScaleEncoderConfig) {
        fail(where + ": secondary aux section is not a value encoder");
      }
      require_zero_scales();
      break;
    }
    case SectionType::PipelineHead: {
      if (record.kind != 0 || record.method != 0 || record.seed != 0 ||
          record.label_encoder != LabelEncoderKind::None ||
          record.param_a != 0.0 || record.param_b != 0.0) {
        fail(where + ": unexpected fields on a pipeline head");
      }
      const SectionRecord& encoder =
          resolve(record.aux_section, "pipeline encoder");
      if (encoder.type != SectionType::ScalarEncoderConfig &&
          encoder.type != SectionType::MultiScaleEncoderConfig &&
          encoder.type != SectionType::FeatureEncoderConfig &&
          encoder.type != SectionType::ComposedEncoderConfig &&
          encoder.type != SectionType::SequenceEncoderConfig) {
        fail(where + ": aux section is not a pipeline encoder");
      }
      const SectionRecord& model =
          resolve(record.aux_section_b, "pipeline model");
      if (model.type != SectionType::ClassifierClassVectors &&
          model.type != SectionType::RegressorModel) {
        fail(where + ": secondary aux section is not a pipeline model");
      }
      require_zero_scales();
      break;
    }
    case SectionType::SequenceEncoderConfig:
      if (record.kind > 1 ||
          record.label_encoder != LabelEncoderKind::None ||
          record.param_a != 0.0 || record.param_b != 0.0 ||
          record.aux_section != snapshot_no_aux) {
        fail(where + ": unexpected fields on a sequence encoder section");
      }
      // `method` carries n for n-gram encoders and must be zero otherwise.
      if (record.kind == 1 ? record.method == 0 : record.method != 0) {
        fail(where + ": n-gram sections need n >= 1, sequence sections n == 0");
      }
      require_no_aux_b();
      require_zero_scales();
      break;
    case SectionType::ComposedEncoderConfig: {
      if (record.method != 0 || record.seed != 0 ||
          record.label_encoder != LabelEncoderKind::None ||
          record.param_a != 0.0 || record.param_b != 0.0) {
        fail(where + ": unexpected fields on a composed encoder section");
      }
      const std::size_t num_parts = record.kind;
      if (num_parts < 2 || num_parts > snapshot_max_composed) {
        fail(where + ": composed sub-encoder count out of [2, " +
             std::to_string(snapshot_max_composed) + "]");
      }
      const auto require_sub_encoder = [&](std::uint64_t aux,
                                           std::size_t part) {
        const SectionRecord& sub =
            resolve(aux, "composed sub-encoder");
        if (sub.type != SectionType::ScalarEncoderConfig &&
            sub.type != SectionType::MultiScaleEncoderConfig) {
          fail(where + ": sub-encoder " + std::to_string(part) +
               " is not a scalar encoder config");
        }
      };
      require_sub_encoder(record.aux_section, 0);
      require_sub_encoder(record.aux_section_b, 1);
      // Sub-encoders beyond the first two reuse the scale slots, stored as
      // section index + 1 so 0 stays the "unused slot" sentinel.
      for (std::size_t s = 0; s < snapshot_max_scales; ++s) {
        if (s + 2 >= num_parts) {
          if (record.scales[s] != 0) {
            fail(where + ": trailing composed sub-encoder slots must be zero");
          }
        } else if (record.scales[s] == 0) {
          fail(where + ": missing composed sub-encoder reference");
        } else {
          require_sub_encoder(record.scales[s] - 1, s + 2);
        }
      }
      break;
    }
    case SectionType::DeltaPatch: {
      const auto target = static_cast<SectionType>(record.kind);
      if (target != SectionType::ClassifierClassVectors &&
          target != SectionType::RegressorModel) {
        fail(where + ": delta target must be a classifier or regressor model");
      }
      if (record.method != 0 ||
          record.label_encoder != LabelEncoderKind::None ||
          record.param_a != 0.0 || record.param_b != 0.0) {
        fail(where + ": unexpected fields on a delta patch section");
      }
      // `seed` is the base file's content hash (any value), `aux_section`
      // the patched section's index in the *base* file — the one cross-file
      // reference in the format, so it cannot resolve() here; bound it and
      // let apply_delta() check it against the actual base.
      if (record.aux_section >= snapshot_max_sections) {
        fail(where + ": implausible base section reference");
      }
      if (record.aux_section_b < record.count ||
          record.aux_section_b > snapshot_sanity_limit) {
        fail(where + ": base row count below patch rows or implausible");
      }
      if (target == SectionType::RegressorModel &&
          (record.count != 1 || record.aux_section_b != 1)) {
        fail(where + ": regressor delta must patch exactly the one model row");
      }
      require_zero_scales();
      break;
    }
    default:
      fail(where + ": unknown section type");
  }
}

}  // namespace

SnapshotLayout parse_snapshot_layout(std::span<const std::byte> file) {
  if constexpr (std::endian::native != std::endian::little) {
    fail("snapshots require a little-endian host; big-endian hosts are "
         "not supported");
  }
  if (file.size() < snapshot_header_bytes) {
    fail("file shorter than the 64-byte header");
  }
  for (std::size_t i = 0; i < snapshot_magic.size(); ++i) {
    if (file[i] != static_cast<std::byte>(snapshot_magic[i])) {
      fail("bad magic: not an HDCS snapshot");
    }
  }
  if (load_u16(file, 4) != snapshot_version) {
    fail("unsupported format version");
  }
  if (load_u16(file, 6) != snapshot_endian_marker) {
    fail("endianness marker mismatch: snapshot was not written little-endian");
  }
  if (load_u32(file, 8) != snapshot_header_bytes ||
      load_u32(file, 12) != snapshot_entry_bytes) {
    fail("header or section-entry size disagrees with version 4");
  }
  const std::uint32_t section_count = load_u32(file, 16);
  const std::uint32_t alignment = load_u32(file, 20);
  const std::uint64_t file_bytes = load_u64(file, 24);
  const std::uint64_t table_checksum = load_u64(file, 32);
  require_zero_bytes(file, 40, snapshot_header_bytes, "header");

  if (section_count == 0 || section_count > snapshot_max_sections) {
    fail("implausible section count");
  }
  if (alignment < snapshot_min_alignment ||
      alignment > snapshot_max_alignment ||
      !std::has_single_bit(alignment)) {
    fail("payload alignment must be a power of two in [64, 1 MiB]");
  }
  if (file_bytes != file.size()) {
    fail("recorded file size disagrees with the actual bytes (truncated?)");
  }
  const std::uint64_t table_end =
      snapshot_header_bytes +
      static_cast<std::uint64_t>(section_count) * snapshot_entry_bytes;
  if (table_end > file.size()) {
    fail("section table extends past the end of the file");
  }
  const auto table = file.subspan(
      snapshot_header_bytes, table_end - snapshot_header_bytes);
  if (xxhash64(table, snapshot_version) != table_checksum) {
    fail("section table checksum mismatch");
  }

  SnapshotLayout layout;
  layout.payload_alignment = alignment;
  layout.file_bytes = file_bytes;
  layout.sections.reserve(section_count);
  std::uint64_t previous_end = table_end;
  for (std::uint32_t i = 0; i < section_count; ++i) {
    SectionRecord record =
        decode_section_entry(table, i * snapshot_entry_bytes);
    validate_section_metadata(record, i, layout.sections);
    if (record.payload_offset % alignment != 0) {
      fail("section " + std::to_string(i) + ": payload is not aligned");
    }
    // Sections are laid out in table order with no overlap; subtraction
    // form so corrupt offsets cannot overflow the bounds check.
    if (record.payload_offset < previous_end ||
        record.payload_offset > file_bytes ||
        record.payload_bytes > file_bytes - record.payload_offset) {
      fail("section " + std::to_string(i) +
           ": payload is out of order or out of bounds");
    }
    previous_end = record.payload_offset + record.payload_bytes;
    layout.sections.push_back(record);
  }
  return layout;
}

void verify_section_payload(std::span<const std::byte> file,
                            const SectionRecord& section) {
  const auto payload =
      file.subspan(section.payload_offset, section.payload_bytes);
  if (xxhash64(payload) != section.payload_checksum) {
    fail("payload checksum mismatch: section content is corrupt");
  }
}

}  // namespace hdc::io
