#include "hdc/core/item_memory.hpp"

#include "hdc/base/require.hpp"
#include "hdc/core/ops.hpp"

namespace hdc {

std::uint64_t fnv1a64(std::string_view text) noexcept {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

ItemMemory::ItemMemory(std::size_t dimension, std::uint64_t seed)
    : dimension_(dimension), seed_(seed) {
  require_positive(dimension, "ItemMemory", "dimension");
}

const Hypervector& ItemMemory::get(std::string_view symbol) {
  const auto it = table_.find(std::string(symbol));
  if (it != table_.end()) {
    return it->second;
  }
  auto [inserted, _] = table_.emplace(std::string(symbol),
                                      derive(dimension_, seed_, symbol));
  order_.push_back(inserted->first);
  return inserted->second;
}

Hypervector ItemMemory::derive(std::size_t dimension, std::uint64_t seed,
                               std::string_view symbol) {
  Rng rng(derive_seed(seed, fnv1a64(symbol)));
  return Hypervector::random(dimension, rng);
}

const Hypervector* ItemMemory::find(std::string_view symbol) const noexcept {
  const auto it = table_.find(std::string(symbol));
  return it != table_.end() ? &it->second : nullptr;
}

std::optional<CleanupResult> ItemMemory::cleanup(
    HypervectorView query) const {
  require(query.dimension() == dimension_, "ItemMemory::cleanup",
          "query dimension mismatch");
  if (table_.empty()) {
    return std::nullopt;
  }
  CleanupResult best;
  double best_distance = 2.0;  // farther than any normalized distance
  for (const std::string& symbol : order_) {
    const double dist = normalized_distance(query, table_.at(symbol));
    if (dist < best_distance) {
      best_distance = dist;
      best.symbol = symbol;
    }
  }
  best.distance = best_distance;
  return best;
}

}  // namespace hdc
