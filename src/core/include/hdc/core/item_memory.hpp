#ifndef HDC_CORE_ITEM_MEMORY_HPP
#define HDC_CORE_ITEM_MEMORY_HPP

/// \file item_memory.hpp
/// \brief Associative item memory: symbols <-> random hypervectors.
///
/// Early HDC applications encode symbol sequences (Section 3.1) by assigning
/// each symbol a random hypervector.  `ItemMemory` provides that one-to-one
/// assignment deterministically — each symbol's vector is derived from the
/// memory seed and a hash of the symbol, so the mapping is independent of
/// insertion order — plus the standard "cleanup" operation that recovers the
/// nearest stored symbol from a noisy query.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "hdc/core/hypervector.hpp"

namespace hdc {

/// FNV-1a 64-bit string hash; exposed because the hash ring and item memory
/// both derive per-key randomness from it.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view text) noexcept;

/// Result of a cleanup query.
struct CleanupResult {
  std::string symbol;        ///< Nearest stored symbol.
  double distance = 0.0;     ///< Normalized Hamming distance to it.
};

/// Deterministic symbol -> random-hypervector memory.
class ItemMemory {
 public:
  /// \throws std::invalid_argument if dimension == 0.
  ItemMemory(std::size_t dimension, std::uint64_t seed);

  [[nodiscard]] std::size_t dimension() const noexcept { return dimension_; }
  [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }
  /// The seed every symbol vector is derived from; together with the
  /// dimension it is the memory's whole serializable configuration.
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Returns the hypervector for \p symbol, creating (and remembering) it on
  /// first use.  The vector depends only on (seed, symbol), never on
  /// insertion order.
  [[nodiscard]] const Hypervector& get(std::string_view symbol);

  /// The vector a memory of (\p dimension, \p seed) assigns to \p symbol,
  /// derived without a memory: the one derivation behind get() and the
  /// text encoders' byte tables.  \throws std::invalid_argument if
  /// dimension == 0.
  [[nodiscard]] static Hypervector derive(std::size_t dimension,
                                          std::uint64_t seed,
                                          std::string_view symbol);

  /// Returns the hypervector if the symbol was already materialized.
  [[nodiscard]] const Hypervector* find(std::string_view symbol) const noexcept;

  /// Nearest stored symbol to \p query, or nullopt when the memory is empty.
  /// \throws std::invalid_argument on dimension mismatch.
  [[nodiscard]] std::optional<CleanupResult> cleanup(
      HypervectorView query) const;

  /// Symbols in first-use order (stable iteration for tests and logs).
  [[nodiscard]] const std::vector<std::string>& symbols() const noexcept {
    return order_;
  }

 private:
  std::size_t dimension_;
  std::uint64_t seed_;
  std::unordered_map<std::string, Hypervector> table_;
  std::vector<std::string> order_;
};

}  // namespace hdc

#endif  // HDC_CORE_ITEM_MEMORY_HPP
