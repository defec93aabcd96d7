#include "hdc/core/feature_encoder.hpp"

#include <utility>
#include <vector>

#include "hdc/base/require.hpp"
#include "hdc/core/basis_random.hpp"
#include "hdc/core/ops.hpp"

namespace hdc {

namespace {

Basis make_keys(std::size_t num_features, const ScalarEncoderPtr& values,
                std::uint64_t seed) {
  require(values != nullptr, "KeyValueEncoder",
          "values encoder must not be null");
  require_positive(num_features, "KeyValueEncoder", "num_features");
  RandomBasisConfig config;
  config.dimension = values->dimension();
  config.size = num_features;
  config.seed = derive_seed(seed, 0x4B455953ULL);  // "KEYS"
  return make_random_basis(config);
}

}  // namespace

KeyValueEncoder::KeyValueEncoder(std::size_t num_features,
                                 ScalarEncoderPtr values, std::uint64_t seed)
    : keys_(make_keys(num_features, values, seed)),
      values_(std::move(values)),
      seed_(seed) {
  Rng rng(derive_seed(seed, 0x7EBCULL));
  tie_breaker_ = Hypervector::random(dimension(), rng);
}

KeyValueEncoder::KeyValueEncoder(Basis keys, ScalarEncoderPtr values,
                                 Hypervector tie_breaker, std::uint64_t seed)
    : keys_(std::move(keys)),
      values_(std::move(values)),
      tie_breaker_(std::move(tie_breaker)),
      seed_(seed) {
  require(values_ != nullptr, "KeyValueEncoder",
          "values encoder must not be null");
  require_positive(keys_.size(), "KeyValueEncoder", "num_features");
  require(keys_.dimension() == values_->dimension() &&
              keys_.dimension() == tie_breaker_.dimension(),
          "KeyValueEncoder",
          "key, value and tie-breaker dimensions must agree");
}

Hypervector KeyValueEncoder::encode(std::span<const double> features) const {
  require(features.size() == keys_.size(), "KeyValueEncoder::encode",
          "feature count mismatch");
  // Input i is K_i ⊗ V(x_i): the majority kernel XORs the key and value
  // rows as it loads them, so no bound row or counter row is ever built.
  std::vector<const std::uint64_t*> rows(2 * features.size());
  for (std::size_t i = 0; i < features.size(); ++i) {
    rows[2 * i] = keys_[i].words().data();
    rows[2 * i + 1] = values_->encode(features[i]).words().data();
  }
  bits::MajorityInputs inputs;
  inputs.rows = rows.data();
  inputs.count = features.size();
  inputs.terms = 2;
  Hypervector out(dimension());
  bits::majority(inputs, tie_breaker_.words(), out.words(), dimension());
  return out;
}

}  // namespace hdc
