// Encoding/decoding throughput micro-benchmarks (google-benchmark): the
// end-to-end per-sample costs behind the Table 1/2 training times.

#include <benchmark/benchmark.h>

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hdc/core/basis_circular.hpp"
#include "hdc/core/basis_level.hpp"
#include "hdc/core/classifier.hpp"
#include "hdc/core/feature_encoder.hpp"
#include "hdc/core/multiscale_encoder.hpp"
#include "hdc/core/regressor.hpp"
#include "hdc/core/scalar_encoder.hpp"
#include "hdc/core/sequence_encoder.hpp"
#include "hdc/runtime/runtime.hpp"
#include "hdc/stats/circular.hpp"

namespace {

constexpr std::size_t kDim = 10'000;

std::shared_ptr<hdc::CircularScalarEncoder> make_angle_encoder(
    std::size_t size) {
  hdc::CircularBasisConfig config;
  config.dimension = kDim;
  config.size = size;
  config.seed = 1;
  return std::make_shared<hdc::CircularScalarEncoder>(
      hdc::make_circular_basis(config), hdc::stats::two_pi);
}

void BM_ScalarEncode(benchmark::State& state) {
  const auto encoder = make_angle_encoder(64);
  double theta = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder->encode(theta));
    theta += 0.37;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScalarEncode);

void BM_ScalarDecode(benchmark::State& state) {
  const auto encoder = make_angle_encoder(static_cast<std::size_t>(state.range(0)));
  const hdc::Hypervector query(encoder->encode(1.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder->decode(query));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScalarDecode)->Arg(64)->Arg(512);

void BM_KeyValueEncode18(benchmark::State& state) {
  // The Table 1 sample encoding: 18 bound key-value pairs + majority.
  const hdc::KeyValueEncoder encoder(18, make_angle_encoder(64), 2);
  std::vector<double> features(18);
  for (std::size_t i = 0; i < features.size(); ++i) {
    features[i] = 0.3 * static_cast<double>(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(features));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KeyValueEncode18);

void BM_MultiScaleEncodeCached(benchmark::State& state) {
  hdc::MultiScaleCircularEncoder::Config config;
  config.dimension = kDim;
  config.scales = {16, 64};
  config.period = hdc::stats::two_pi;
  config.seed = 3;
  const hdc::MultiScaleCircularEncoder encoder(config);
  double theta = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(theta));
    theta += 0.37;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MultiScaleEncodeCached);

void BM_SequenceEncodeWord(benchmark::State& state) {
  const hdc::SequenceEncoder encoder(kDim, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode_word("hyperdimensional"));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SequenceEncodeWord);

void BM_NGramEncodeText(benchmark::State& state) {
  // The served text row: trigram windows of a line of state.range(0) bytes
  // (42 is the mean text row, 1,024 the longest).
  const hdc::NGramEncoder encoder(kDim, 3, 7);
  std::string text;
  const std::string_view words = "the quick brown fox jumps over a dog ";
  while (text.size() < static_cast<std::size_t>(state.range(0))) {
    text += words[text.size() % words.size()];
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(text));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NGramEncodeText)->Arg(42)->Arg(1'024);

void BM_ClassifierPredict15(benchmark::State& state) {
  // Table 1 inference: distance to 15 class-vectors.
  hdc::Rng rng(5);
  hdc::CentroidClassifier model(15, kDim, 6);
  for (int c = 0; c < 15; ++c) {
    model.add_sample(static_cast<std::size_t>(c),
                     hdc::Hypervector::random(kDim, rng));
  }
  model.finalize();
  const auto query = hdc::Hypervector::random(kDim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(query));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClassifierPredict15);

void BM_RegressorPredictInteger(benchmark::State& state) {
  // Table 2 inference: signed projection against 128 label vectors.
  hdc::LevelBasisConfig label_config;
  label_config.dimension = kDim;
  label_config.size = 128;
  label_config.seed = 7;
  const auto labels = std::make_shared<hdc::LinearScalarEncoder>(
      hdc::make_level_basis(label_config), 0.0, 1.0);
  hdc::HDRegressor model(labels, 8);
  hdc::Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    model.add_sample(hdc::Hypervector::random(kDim, rng), 0.5);
  }
  const auto query = hdc::Hypervector::random(kDim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_integer(query));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RegressorPredictInteger);

void BM_BatchEncodeKeyValue18(benchmark::State& state) {
  // The Table 1 sample encoding pushed through the batch runtime: 18 bound
  // key-value pairs per row, rows fanned out over the thread pool.
  const auto encoder =
      std::make_shared<hdc::KeyValueEncoder>(18, make_angle_encoder(64), 2);
  const hdc::runtime::BatchEncoder batch(
      kDim,
      [encoder](std::span<const double> row) { return encoder->encode(row); },
      std::make_shared<hdc::runtime::ThreadPool>());
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  std::vector<double> flat(rows * 18);
  for (std::size_t i = 0; i < flat.size(); ++i) {
    flat[i] = 0.013 * static_cast<double>(i % 483);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(batch.encode(flat, 18));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * rows));
}
// Real time, not caller CPU time: the caller sleeps while workers run.
BENCHMARK(BM_BatchEncodeKeyValue18)->Arg(64)->Arg(1'024)->UseRealTime();

void BM_BatchClassifierPredict15(benchmark::State& state) {
  // Table 1 inference through the batch runtime: arena queries against 15
  // packed class-vectors, vectors/sec reported as items_per_second.
  hdc::Rng rng(7);
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  hdc::runtime::BatchClassifier model(
      15, kDim, 6, std::make_shared<hdc::runtime::ThreadPool>());
  hdc::runtime::VectorArena train(kDim);
  std::vector<std::size_t> labels;
  for (int c = 0; c < 15; ++c) {
    train.append(hdc::Hypervector::random(kDim, rng));
    labels.push_back(static_cast<std::size_t>(c));
  }
  model.fit_finalize(train, labels);
  hdc::runtime::VectorArena queries(kDim);
  for (std::size_t i = 0; i < rows; ++i) {
    queries.append(hdc::Hypervector::random(kDim, rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(queries));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * rows));
}
BENCHMARK(BM_BatchClassifierPredict15)->Arg(256)->Arg(4'096)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
