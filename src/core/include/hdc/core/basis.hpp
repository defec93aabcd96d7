#ifndef HDC_CORE_BASIS_HPP
#define HDC_CORE_BASIS_HPP

/// \file basis.hpp
/// \brief Basis-hypervector sets: the common container and provenance info.
///
/// Basis-hypervectors (Section 3) are stochastically created sets used to
/// encode the smallest units of meaningful information.  The library provides
/// four families, each with its own factory:
///   * random   — i.i.d. uniform, quasi-orthogonal (basis_random.hpp)
///   * level    — linearly correlated, for real intervals (basis_level.hpp)
///   * circular — circularly correlated, for angles (basis_circular.hpp)
///   * scatter  — nonlinear random-walk codes (scatter_code.hpp)
///
/// A `Basis` is an immutable, value-semantic set of equal-dimension
/// hypervectors plus a `BasisInfo` provenance record (kind, generation
/// method, r-hyperparameter, seed) that snapshots and the experiment logs
/// rely on.
///
/// Storage: the packed word arena is the *single* source of truth — vector i
/// lives at arena words [i * words_per_vector(), (i + 1) *
/// words_per_vector()) and element access hands out zero-copy
/// `HypervectorView`s into it.  Nothing per-vector is duplicated, which
/// halves basis-resident memory versus keeping a parallel
/// std::vector<Hypervector> and is what makes mmap-able snapshots feasible.

#include <compare>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "hdc/core/hypervector.hpp"
#include "hdc/core/word_storage.hpp"

namespace hdc {

/// The family a basis set belongs to.
enum class BasisKind : std::uint8_t {
  Random = 0,
  Level = 1,
  Circular = 2,
  Scatter = 3,
};

/// How level sets (and the phase-1 levels of circular sets) are generated.
enum class LevelMethod : std::uint8_t {
  /// Paper Section 4 prior art: monotone flipping of d/2/(m-1) distinct bits
  /// per step; pairwise distances are (nearly) deterministic and the
  /// endpoints are exactly orthogonal.
  ExactFlip = 0,
  /// Paper Section 4.3 contribution (Algorithm 1): random interpolation
  /// filters; E[delta(L_i, L_j)] = (j - i) / (2 (m - 1)) with the relaxed
  /// "quasi" distances that carry more information content.
  Interpolation = 1,
};

/// Human-readable names, for table output and error messages.
[[nodiscard]] const char* to_string(BasisKind kind) noexcept;
[[nodiscard]] const char* to_string(LevelMethod method) noexcept;

/// Provenance of a basis set.
struct BasisInfo {
  BasisKind kind = BasisKind::Random;
  LevelMethod method = LevelMethod::Interpolation;  ///< Level/Circular only.
  std::size_t dimension = default_dimension;
  std::size_t size = 0;   ///< Number of hypervectors m.
  double r = 0.0;         ///< Correlation-relaxation hyperparameter (Sec. 5.2).
  std::uint64_t seed = 0; ///< Seed the set was generated from.
};

/// An immutable set of m equal-dimension hypervectors with provenance,
/// stored solely as one packed word arena.
class Basis {
 public:
  /// Packs \p vectors into the arena and releases them; validates they are
  /// non-empty, of equal dimension, and consistent with \p info.
  /// \throws std::invalid_argument on any inconsistency.
  Basis(BasisInfo info, std::vector<Hypervector> vectors);

  /// Adopts an already-packed arena (info.size rows of
  /// bits::words_for(info.dimension) words each) without copying.
  /// Validates the word count and the per-row tail-bits-zero invariant.
  /// \throws std::invalid_argument on any inconsistency.
  Basis(BasisInfo info, std::vector<std::uint64_t> packed_words);

  /// Borrows an externally owned packed arena (e.g. a read-only snapshot
  /// mapping) without copying a single payload word.  The basis is valid
  /// only while the borrowed words outlive it — the mmap-serving path of
  /// hdc::io::MappedSnapshot.  Validates the same invariants as the owning
  /// arena constructor.
  /// \throws std::invalid_argument on any inconsistency.
  Basis(BasisInfo info, std::span<const std::uint64_t> packed_words, borrow_t);

  /// Borrowing constructor that skips the per-row invariant scan.  Only for
  /// callers that can prove the invariants already hold (a checksummed
  /// snapshot section written by the validating writer): touching every
  /// arena row here would page in the whole payload and defeat
  /// size-independent cold-start.  \pre same invariants as the validating
  /// overload — violating them is undefined behaviour.
  Basis(BasisInfo info, std::span<const std::uint64_t> packed_words, borrow_t,
        unchecked_t) noexcept
      : info_(info),
        packed_(packed_words, borrowed),
        words_per_vector_(bits::words_for(info.dimension)) {}

  /// True when the arena words live on this object's heap; false for
  /// borrowed (snapshot-backed) storage.
  [[nodiscard]] bool owns_storage() const noexcept { return packed_.owning(); }

  /// An owning deep copy (the crossover from snapshot-backed storage back to
  /// heap storage, for models that must outlive their snapshot).
  [[nodiscard]] Basis detach() const {
    return Basis(info_, packed_.to_owned(), unchecked);
  }

  [[nodiscard]] const BasisInfo& info() const noexcept { return info_; }
  [[nodiscard]] std::size_t size() const noexcept { return info_.size; }
  [[nodiscard]] std::size_t dimension() const noexcept {
    return info_.dimension;
  }

  /// Unchecked element access (0-based): a zero-copy view into the arena,
  /// valid for the lifetime of this Basis (and, for borrowed storage, of the
  /// mapping behind it).
  [[nodiscard]] HypervectorView operator[](std::size_t i) const noexcept {
    return row_view(packed_.words(), info_.dimension, words_per_vector_, i);
  }

  /// Checked element access. \throws std::out_of_range if out of range.
  [[nodiscard]] HypervectorView at(std::size_t i) const;

  /// Random-access iterator over the arena rows, yielding
  /// `HypervectorView`s by value.
  class const_iterator {
   public:
    // Proxy iterator: operator* returns a view by value, so the legacy
    // category stays input_iterator (whose requirements we do satisfy) while
    // iterator_concept advertises random access to C++20 ranges — the
    // std::views::iota pattern.
    using iterator_concept = std::random_access_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = HypervectorView;
    using difference_type = std::ptrdiff_t;
    using pointer = const HypervectorView*;
    using reference = HypervectorView;

    const_iterator() = default;
    const_iterator(const Basis* basis, std::size_t index)
        : basis_(basis), index_(index) {}

    reference operator*() const { return (*basis_)[index_]; }
    reference operator[](difference_type n) const {
      return (*basis_)[index_ + static_cast<std::size_t>(n)];
    }

    const_iterator& operator++() { ++index_; return *this; }
    const_iterator operator++(int) { auto tmp = *this; ++index_; return tmp; }
    const_iterator& operator--() { --index_; return *this; }
    const_iterator operator--(int) { auto tmp = *this; --index_; return tmp; }
    const_iterator& operator+=(difference_type n) {
      index_ = static_cast<std::size_t>(static_cast<difference_type>(index_) + n);
      return *this;
    }
    const_iterator& operator-=(difference_type n) { return *this += -n; }
    friend const_iterator operator+(const_iterator it, difference_type n) {
      return it += n;
    }
    friend const_iterator operator+(difference_type n, const_iterator it) {
      return it += n;
    }
    friend const_iterator operator-(const_iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(const_iterator a, const_iterator b) {
      return static_cast<difference_type>(a.index_) -
             static_cast<difference_type>(b.index_);
    }
    friend bool operator==(const_iterator a, const_iterator b) {
      return a.basis_ == b.basis_ && a.index_ == b.index_;
    }
    friend std::strong_ordering operator<=>(const_iterator a,
                                            const_iterator b) {
      if (const auto c = std::compare_three_way{}(a.basis_, b.basis_);
          c != std::strong_ordering::equal) {
        return c;
      }
      return a.index_ <=> b.index_;
    }

   private:
    const Basis* basis_ = nullptr;
    std::size_t index_ = 0;
  };

  [[nodiscard]] const_iterator begin() const noexcept {
    return const_iterator(this, 0);
  }
  [[nodiscard]] const_iterator end() const noexcept {
    return const_iterator(this, info_.size);
  }

  /// Index of the basis vector nearest (in normalized Hamming distance) to
  /// \p query; the "cleanup" step of decoding.  Ties keep the lowest index.
  /// Runs on the fused XOR+popcount kernel over the packed arena.
  /// \throws std::invalid_argument on dimension mismatch.
  [[nodiscard]] std::size_t nearest(HypervectorView query) const;

  /// nearest() on a raw word span; the allocation-free entry point used by
  /// the batch runtime.  The span must carry exactly
  /// words_for(dimension()) words with tail bits zero.
  /// \throws std::invalid_argument if query_words.size() !=
  /// words_per_vector().
  [[nodiscard]] std::size_t nearest_words(
      std::span<const std::uint64_t> query_words) const;

  /// All m vectors bit-packed into one contiguous arena, vector i at words
  /// [i * words_per_vector(), (i + 1) * words_per_vector()); the single
  /// source of truth every accessor serves views from.
  [[nodiscard]] std::span<const std::uint64_t> packed_words() const noexcept {
    return packed_.words();
  }

  /// Arena stride in 64-bit words.
  [[nodiscard]] std::size_t words_per_vector() const noexcept {
    return words_per_vector_;
  }

  /// Heap bytes resident for the vector storage (the arena data; the owning
  /// constructors shrink growth slack away, and reporting size keeps the
  /// number portable across allocators).  Zero for borrowed storage — the
  /// words belong to the snapshot mapping, not this object.  The
  /// memory-footprint bench gates on this staying ~half of the legacy
  /// arena + std::vector<Hypervector> layout.
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    return packed_.resident_bytes();
  }

  /// Full m x m matrix of pairwise normalized distances delta(B_i, B_j);
  /// used by the Figure 3 reproduction and the property tests.
  [[nodiscard]] std::vector<std::vector<double>> pairwise_distances() const;

  /// Full m x m matrix of pairwise similarities 1 - delta.
  [[nodiscard]] std::vector<std::vector<double>> pairwise_similarities() const;

 private:
  /// Shared adopting path behind the owning and borrowed public
  /// constructors; validates count and per-row tail invariants.
  Basis(BasisInfo info, WordStorage storage);

  /// Trusted adopting path (no per-row scan); used by detach(), whose source
  /// rows were validated when this basis was built.
  Basis(BasisInfo info, WordStorage storage, unchecked_t) noexcept
      : info_(info),
        packed_(std::move(storage)),
        words_per_vector_(bits::words_for(info.dimension)) {}

  BasisInfo info_;
  WordStorage packed_;
  std::size_t words_per_vector_ = 0;
};

}  // namespace hdc

#endif  // HDC_CORE_BASIS_HPP
