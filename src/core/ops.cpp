#include "hdc/core/ops.hpp"

#include <vector>

#include "hdc/base/require.hpp"

namespace hdc {

Hypervector bind(HypervectorView a, HypervectorView b) { return a ^ b; }

Hypervector permute(HypervectorView input, std::size_t shift) {
  require(!input.empty(), "permute", "input must be non-empty");
  Hypervector out(input.dimension());
  bits::rotate_left(input.words(), out.words(), input.dimension(), shift);
  return out;
}

Hypervector permute_inverse(HypervectorView input, std::size_t shift) {
  require(!input.empty(), "permute_inverse", "input must be non-empty");
  const std::size_t d = input.dimension();
  return permute(input, d - (shift % d));
}

std::size_t hamming_distance(HypervectorView a, HypervectorView b) {
  require(!a.empty(), "hamming_distance", "inputs must be non-empty");
  require(a.dimension() == b.dimension(), "hamming_distance",
          "dimension mismatch");
  return bits::hamming(a.words(), b.words());
}

double normalized_distance(HypervectorView a, HypervectorView b) {
  return static_cast<double>(hamming_distance(a, b)) /
         static_cast<double>(a.dimension());
}

double similarity(HypervectorView a, HypervectorView b) {
  return 1.0 - normalized_distance(a, b);
}

Hypervector majority(std::span<const Hypervector> inputs, Rng& tie_rng) {
  require(!inputs.empty(), "majority", "inputs must be non-empty");
  const std::size_t dimension = inputs.front().dimension();
  require_positive(dimension, "majority", "dimension");
  std::vector<const std::uint64_t*> rows;
  rows.reserve(inputs.size());
  for (const Hypervector& hv : inputs) {
    require(hv.dimension() == dimension, "majority", "dimension mismatch");
    rows.push_back(hv.words().data());
  }
  bits::MajorityInputs rows_in;
  rows_in.rows = rows.data();
  rows_in.count = rows.size();
  const Hypervector tie = Hypervector::random(dimension, tie_rng);
  Hypervector out(dimension);
  bits::majority(rows_in, tie.words(), out.words(), dimension);
  return out;
}

Hypervector flip_random_bits(HypervectorView input, std::size_t count,
                             Rng& rng) {
  require(!input.empty(), "flip_random_bits", "input must be non-empty");
  const std::size_t d = input.dimension();
  require(count <= d, "flip_random_bits", "count must be <= dimension");
  Hypervector out(input);
  if (count == 0) {
    return out;
  }
  // Floyd's algorithm samples `count` distinct positions in O(count) expected
  // time without materializing a d-element permutation.
  std::vector<std::size_t> chosen;
  chosen.reserve(count);
  // For simplicity and exactness use partial Fisher-Yates over an index pool
  // when count is large relative to d, otherwise rejection sampling.
  if (count * 4 >= d) {
    std::vector<std::size_t> pool(d);
    for (std::size_t i = 0; i < d; ++i) {
      pool[i] = i;
    }
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(rng.below(d - i));
      std::swap(pool[i], pool[j]);
      out.flip_bit(pool[i]);
    }
  } else {
    std::vector<bool> used(d, false);
    std::size_t flipped = 0;
    while (flipped < count) {
      const auto pos = static_cast<std::size_t>(rng.below(d));
      if (!used[pos]) {
        used[pos] = true;
        out.flip_bit(pos);
        ++flipped;
      }
    }
  }
  return out;
}

Hypervector random_walk_flips(HypervectorView input, std::size_t steps,
                              Rng& rng) {
  require(!input.empty(), "random_walk_flips", "input must be non-empty");
  Hypervector out(input);
  const std::size_t d = input.dimension();
  for (std::size_t s = 0; s < steps; ++s) {
    out.flip_bit(static_cast<std::size_t>(rng.below(d)));
  }
  return out;
}

}  // namespace hdc
