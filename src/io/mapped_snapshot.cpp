#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hdc/core/scalar_encoder.hpp"
#include "hdc/io/snapshot.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define HDC_IO_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define HDC_IO_HAS_MMAP 0
#endif

namespace hdc::io {

namespace {

/// Reads a whole stream into word-aligned heap storage (so payload word
/// spans over the buffer are always aligned), returning the byte count.
std::vector<std::uint64_t> slurp(std::istream& in, std::size_t& byte_size) {
  std::vector<char> bytes(std::istreambuf_iterator<char>(in), {});
  if (in.bad()) {
    throw SnapshotError("load_snapshot: stream read failure");
  }
  byte_size = bytes.size();
  std::vector<std::uint64_t> words((bytes.size() + 7) / 8, 0ULL);
  if (!bytes.empty()) {
    std::memcpy(words.data(), bytes.data(), bytes.size());
  }
  return words;
}

}  // namespace

struct MappedSnapshot::Impl {
  // Exactly one of heap/mapping backs `data`.
  std::vector<std::uint64_t> heap;
#if HDC_IO_HAS_MMAP
  void* mapping = nullptr;
  std::size_t mapping_bytes = 0;
#endif
  const std::byte* data = nullptr;
  std::size_t bytes = 0;
  bool mapped = false;
  bool locked = false;

  SnapshotLayout layout;
  SnapshotIntegrity integrity = SnapshotIntegrity::Checksum;
  mutable std::mutex verify_mutex;
  mutable std::vector<bool> verified;

  ~Impl() {
#if HDC_IO_HAS_MMAP
    if (mapping != nullptr) {
      ::munmap(mapping, mapping_bytes);
    }
#endif
  }

  [[nodiscard]] std::span<const std::byte> file() const noexcept {
    return {data, bytes};
  }

  void parse() {
    layout = parse_snapshot_layout(file());
    verified.assign(layout.sections.size(), false);
  }

  const SectionRecord& checked_section(std::size_t i) const {
    if (i >= layout.sections.size()) {
      throw std::out_of_range("MappedSnapshot: section index out of range");
    }
    return layout.sections[i];
  }

  /// Checksum-verifies section \p i before first use (thread-safe); no-op
  /// under Trust integrity.  An explicit MappedSnapshot::verify() call
  /// hashes even under Trust — the caller is asking for it by name.
  void ensure_verified(std::size_t i) const {
    if (integrity != SnapshotIntegrity::Trust) {
      verify_once(i);
    }
  }

  /// The O(payload) hash runs *outside* the lock so concurrent first
  /// touches of different sections verify in parallel; a race can at worst
  /// hash the same section twice, never skip it.
  void verify_once(std::size_t i) const {
    {
      const std::scoped_lock lock(verify_mutex);
      if (verified[i]) {
        return;
      }
    }
    verify_section_payload(file(), layout.sections[i]);
    const std::scoped_lock lock(verify_mutex);
    verified[i] = true;
  }

  [[nodiscard]] std::span<const std::uint64_t> payload_words(
      const SectionRecord& record) const noexcept {
    // Safe reinterpretation: the base is word-aligned (mmap returns
    // page-aligned memory; the heap buffer is a uint64_t vector) and the
    // parse validated payload_offset as a multiple of the >= 64-byte
    // payload alignment and in bounds.
    const auto* words = reinterpret_cast<const std::uint64_t*>(
        data + record.payload_offset);
    return {words, static_cast<std::size_t>(record.payload_bytes / 8)};
  }
};

MappedSnapshot::MappedSnapshot(std::unique_ptr<Impl> impl) noexcept
    : impl_(std::move(impl)) {}
MappedSnapshot::MappedSnapshot(MappedSnapshot&&) noexcept = default;
MappedSnapshot& MappedSnapshot::operator=(MappedSnapshot&&) noexcept = default;
MappedSnapshot::~MappedSnapshot() = default;

MappedSnapshot MappedSnapshot::open(const std::string& path,
                                    SnapshotIntegrity integrity,
                                    MappingOptions mapping_options) {
  auto impl = std::make_unique<Impl>();
  impl->integrity = integrity;
#if HDC_IO_HAS_MMAP
  // NOLINTNEXTLINE(cppcoreguidelines-pro-type-vararg)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw SnapshotError("MappedSnapshot::open: cannot open " + path);
  }
  struct stat status {};
  if (::fstat(fd, &status) != 0 || status.st_size < 0) {
    ::close(fd);
    throw SnapshotError("MappedSnapshot::open: cannot stat " + path);
  }
  const auto size = static_cast<std::size_t>(status.st_size);
  if (size == 0) {
    ::close(fd);
    throw SnapshotError("MappedSnapshot::open: " + path + " is empty");
  }
  void* mapping = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping keeps its own reference to the file; the descriptor is not
  // needed past this point either way.
  ::close(fd);
  if (mapping == MAP_FAILED) {
    throw SnapshotError("MappedSnapshot::open: mmap failed for " + path);
  }
  impl->mapping = mapping;
  impl->mapping_bytes = size;
  impl->data = static_cast<const std::byte*>(mapping);
  impl->bytes = size;
  impl->mapped = true;
  // Purely advisory read-ahead over the whole mapping (offsets inside it
  // need not be page-aligned; the mapping base is): failure changes warm-up
  // behaviour only, so it is deliberately not checked.
  ::madvise(mapping, size, MADV_WILLNEED);
  if (mapping_options.lock_memory) {
    if (::mlock(mapping, size) != 0) {
      // impl's destructor unmaps; do not serve with a silently unpinned
      // mapping when the caller asked for residency guarantees.
      throw SnapshotError("MappedSnapshot::open: mlock failed for " + path +
                          " (RLIMIT_MEMLOCK too low for " +
                          std::to_string(size) + " bytes?)");
    }
    impl->locked = true;
  }
#else
  // Heap fallback for platforms without mmap: same API, owned buffer.
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SnapshotError("MappedSnapshot::open: cannot open " + path);
  }
  std::size_t byte_size = 0;
  impl->heap = slurp(in, byte_size);
  impl->data = reinterpret_cast<const std::byte*>(impl->heap.data());
  impl->bytes = byte_size;
  // Residency options are meaningless for an owned heap buffer; they are
  // documented no-ops here.
  (void)mapping_options;
#endif
  impl->parse();
  return MappedSnapshot(std::move(impl));
}

MappedSnapshot MappedSnapshot::from_bytes(std::span<const std::byte> bytes,
                                          SnapshotIntegrity integrity) {
  auto impl = std::make_unique<Impl>();
  impl->integrity = integrity;
  impl->heap.assign((bytes.size() + 7) / 8, 0ULL);
  if (!bytes.empty()) {
    std::memcpy(impl->heap.data(), bytes.data(), bytes.size());
  }
  impl->data = reinterpret_cast<const std::byte*>(impl->heap.data());
  impl->bytes = bytes.size();
  impl->parse();
  MappedSnapshot snapshot(std::move(impl));
  if (integrity == SnapshotIntegrity::Checksum) {
    // Heap-backed loads already paid the full read; verify everything
    // eagerly so a corrupt section fails at load, not first use.
    snapshot.verify();
  }
  return snapshot;
}

std::size_t MappedSnapshot::section_count() const noexcept {
  return impl_->layout.sections.size();
}

const SectionRecord& MappedSnapshot::section(std::size_t i) const {
  return impl_->checked_section(i);
}

bool MappedSnapshot::zero_copy() const noexcept { return impl_->mapped; }

bool MappedSnapshot::locked() const noexcept { return impl_->locked; }

std::uint64_t MappedSnapshot::file_bytes() const noexcept {
  return impl_->layout.file_bytes;
}

void MappedSnapshot::verify() const {
  for (std::size_t i = 0; i < impl_->layout.sections.size(); ++i) {
    impl_->verify_once(i);
  }
}

std::span<const std::uint64_t> MappedSnapshot::section_words(
    std::size_t i) const {
  const SectionRecord& record = impl_->checked_section(i);
  impl_->ensure_verified(i);
  return impl_->payload_words(record);
}

Basis MappedSnapshot::basis(std::size_t i) const {
  const SectionRecord& record = impl_->checked_section(i);
  if (record.type != SectionType::BasisArena) {
    throw SnapshotError("MappedSnapshot::basis: section " + std::to_string(i) +
                        " is not a basis arena");
  }
  impl_->ensure_verified(i);
  BasisInfo info;
  info.kind = static_cast<BasisKind>(record.kind);
  info.method = static_cast<LevelMethod>(record.method);
  info.dimension = static_cast<std::size_t>(record.dimension);
  info.size = static_cast<std::size_t>(record.count);
  info.r = record.param_a;
  info.seed = record.seed;
  const auto words = impl_->payload_words(record);
  if (impl_->integrity == SnapshotIntegrity::Checksum) {
    // Checksummed bytes re-validate cheaply relative to the hash already
    // paid; Trust mode must stay O(1) in the payload, so it relies on the
    // writer having validated the invariants.
    return Basis(info, words, hdc::borrowed);
  }
  return Basis(info, words, hdc::borrowed, hdc::unchecked);
}

CentroidClassifier MappedSnapshot::classifier(std::size_t i) const {
  const SectionRecord& record = impl_->checked_section(i);
  if (record.type != SectionType::ClassifierClassVectors) {
    throw SnapshotError("MappedSnapshot::classifier: section " +
                        std::to_string(i) + " is not a class-vector arena");
  }
  impl_->ensure_verified(i);
  WordStorage storage(impl_->payload_words(record), hdc::borrowed);
  const auto num_classes = static_cast<std::size_t>(record.count);
  const auto dimension = static_cast<std::size_t>(record.dimension);
  if (impl_->integrity == SnapshotIntegrity::Checksum) {
    return CentroidClassifier::from_packed_class_words(num_classes, dimension,
                                                       std::move(storage));
  }
  return CentroidClassifier::from_packed_class_words(
      num_classes, dimension, std::move(storage), hdc::unchecked);
}

HDRegressor MappedSnapshot::regressor(std::size_t i) const {
  const SectionRecord& record = impl_->checked_section(i);
  if (record.type != SectionType::RegressorModel) {
    throw SnapshotError("MappedSnapshot::regressor: section " +
                        std::to_string(i) + " is not a regressor model");
  }
  impl_->ensure_verified(i);
  // The label basis borrows from the snapshot; the model hypervector is one
  // row and is copied into the owning HDRegressor state.
  Basis labels_basis = basis(static_cast<std::size_t>(record.aux_section));
  ScalarEncoderPtr labels;
  if (record.label_encoder == LabelEncoderKind::Linear) {
    labels = std::make_shared<LinearScalarEncoder>(
        std::move(labels_basis), record.param_a, record.param_b);
  } else {
    labels = std::make_shared<CircularScalarEncoder>(std::move(labels_basis),
                                                     record.param_b);
  }
  const auto model_words = impl_->payload_words(record);
  Hypervector model(HypervectorView(
      static_cast<std::size_t>(record.dimension), model_words));
  return HDRegressor::from_model(std::move(labels), std::move(model));
}

ScalarEncoderPtr MappedSnapshot::scalar_encoder(std::size_t i) const {
  const SectionRecord& record = impl_->checked_section(i);
  if (record.type == SectionType::ScalarEncoderConfig) {
    // Payload-less: the whole encoder is the referenced basis + parameters.
    Basis encoder_basis = basis(static_cast<std::size_t>(record.aux_section));
    if (record.label_encoder == LabelEncoderKind::Linear) {
      return std::make_shared<LinearScalarEncoder>(
          std::move(encoder_basis), record.param_a, record.param_b);
    }
    return std::make_shared<CircularScalarEncoder>(std::move(encoder_basis),
                                                   record.param_b);
  }
  if (record.type == SectionType::MultiScaleEncoderConfig) {
    impl_->ensure_verified(i);
    Basis finest = basis(static_cast<std::size_t>(record.aux_section));
    std::vector<std::size_t> scales(record.kind);
    for (std::size_t s = 0; s < scales.size(); ++s) {
      scales[s] = static_cast<std::size_t>(record.scales[s]);
    }
    const auto words = impl_->payload_words(record);
    if (impl_->integrity == SnapshotIntegrity::Checksum) {
      return std::make_shared<MultiScaleCircularEncoder>(
          std::move(finest), std::move(scales), record.param_b, record.seed,
          words, hdc::borrowed);
    }
    return std::make_shared<MultiScaleCircularEncoder>(
        std::move(finest), std::move(scales), record.param_b, record.seed,
        words, hdc::borrowed, hdc::unchecked);
  }
  throw SnapshotError("MappedSnapshot::scalar_encoder: section " +
                      std::to_string(i) + " is not a scalar encoder config");
}

KeyValueEncoder MappedSnapshot::feature_encoder(std::size_t i) const {
  const SectionRecord& record = impl_->checked_section(i);
  if (record.type != SectionType::FeatureEncoderConfig) {
    throw SnapshotError("MappedSnapshot::feature_encoder: section " +
                        std::to_string(i) +
                        " is not a feature encoder config");
  }
  impl_->ensure_verified(i);
  Basis keys = basis(static_cast<std::size_t>(record.aux_section));
  ScalarEncoderPtr values =
      scalar_encoder(static_cast<std::size_t>(record.aux_section_b));
  // The tie-breaker is one row and is copied into the owning encoder state
  // (bundling scratch must not depend on the mapping's lifetime rules any
  // more than the regressor model row does).
  Hypervector tie_breaker(
      HypervectorView(static_cast<std::size_t>(record.dimension),
                      impl_->payload_words(record)));
  return KeyValueEncoder(std::move(keys), std::move(values),
                         std::move(tie_breaker), record.seed);
}

ComposedEncoder MappedSnapshot::composed_encoder(std::size_t i) const {
  const SectionRecord& record = impl_->checked_section(i);
  if (record.type != SectionType::ComposedEncoderConfig) {
    throw SnapshotError("MappedSnapshot::composed_encoder: section " +
                        std::to_string(i) +
                        " is not a composed encoder config");
  }
  std::vector<ScalarEncoderPtr> parts;
  parts.reserve(record.kind);
  parts.push_back(scalar_encoder(static_cast<std::size_t>(record.aux_section)));
  parts.push_back(
      scalar_encoder(static_cast<std::size_t>(record.aux_section_b)));
  for (std::size_t s = 2; s < record.kind; ++s) {
    parts.push_back(scalar_encoder(
        static_cast<std::size_t>(record.scales[s - 2] - 1)));
  }
  return ComposedEncoder(std::move(parts));
}

SequenceEncoder MappedSnapshot::sequence_encoder(std::size_t i) const {
  const SectionRecord& record = impl_->checked_section(i);
  if (record.type != SectionType::SequenceEncoderConfig || record.kind != 0) {
    throw SnapshotError("MappedSnapshot::sequence_encoder: section " +
                        std::to_string(i) +
                        " is not a sequence encoder config");
  }
  return SequenceEncoder(static_cast<std::size_t>(record.dimension),
                         record.seed);
}

NGramEncoder MappedSnapshot::ngram_encoder(std::size_t i) const {
  const SectionRecord& record = impl_->checked_section(i);
  if (record.type != SectionType::SequenceEncoderConfig || record.kind != 1) {
    throw SnapshotError("MappedSnapshot::ngram_encoder: section " +
                        std::to_string(i) + " is not an n-gram encoder config");
  }
  return NGramEncoder(static_cast<std::size_t>(record.dimension),
                      record.method, record.seed);
}

MappedSnapshot load_snapshot(std::istream& in, SnapshotIntegrity integrity) {
  std::size_t byte_size = 0;
  std::vector<std::uint64_t> words = slurp(in, byte_size);
  auto impl = std::make_unique<MappedSnapshot::Impl>();
  impl->integrity = integrity;
  impl->heap = std::move(words);
  impl->data = reinterpret_cast<const std::byte*>(impl->heap.data());
  impl->bytes = byte_size;
  impl->parse();
  MappedSnapshot snapshot(std::move(impl));
  if (integrity == SnapshotIntegrity::Checksum) {
    snapshot.verify();
  }
  return snapshot;
}

MappedSnapshot load_snapshot(const std::string& path,
                             SnapshotIntegrity integrity) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SnapshotError("load_snapshot: cannot open " + path);
  }
  return load_snapshot(in, integrity);
}

}  // namespace hdc::io
