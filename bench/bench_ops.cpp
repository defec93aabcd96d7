// Micro-benchmarks of the HDC operations (google-benchmark).  Supports the
// paper's efficiency claims: every operation is dimension-independent
// word-parallel arithmetic, so throughput scales linearly with d.
//
// After the registered benchmarks run, main() prints a [batch-vs-naive]
// summary comparing the seed's naive per-pair Hamming-query loop against the
// fused XOR+popcount kernel and the thread-pool batched path at d = 10240;
// CI archives that report and checks the batched speedup.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "hdc/cluster/cluster.hpp"
#include "hdc/core/accumulator.hpp"
#include "hdc/core/basis_random.hpp"
#include "hdc/core/bitops.hpp"
#include "hdc/core/classifier.hpp"
#include "hdc/core/kernels.hpp"
#include "hdc/core/ops.hpp"
#include "hdc/io/fixture_models.hpp"
#include "hdc/io/pipeline.hpp"
#include "hdc/io/reload.hpp"
#include "hdc/io/snapshot.hpp"
#include "hdc/runtime/runtime.hpp"
#include "hdc/serve/serve.hpp"

namespace {

using hdc::BundleAccumulator;
using hdc::Hypervector;
using hdc::Rng;
using hdc::runtime::ThreadPool;
using hdc::runtime::VectorArena;

void BM_Bind(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const auto a = Hypervector::random(dim, rng);
  const auto b = Hypervector::random(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdc::bind(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Bind)->Arg(1'024)->Arg(10'000)->Arg(65'536);

void BM_HammingDistance(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const auto a = Hypervector::random(dim, rng);
  const auto b = Hypervector::random(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdc::hamming_distance(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HammingDistance)->Arg(1'024)->Arg(10'000)->Arg(65'536);

void BM_Permute(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const auto a = Hypervector::random(dim, rng);
  std::size_t shift = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdc::permute(a, shift));
    shift = (shift * 7 + 1) % dim;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Permute)->Arg(1'024)->Arg(10'000)->Arg(65'536);

void BM_AccumulatorAdd(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  const auto a = Hypervector::random(dim, rng);
  BundleAccumulator acc(dim);
  for (auto _ : state) {
    acc.add(a);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AccumulatorAdd)->Arg(1'024)->Arg(10'000)->Arg(65'536);

void BM_MajorityFinalize(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  BundleAccumulator acc(dim);
  for (int i = 0; i < 101; ++i) {
    acc.add(Hypervector::random(dim, rng));
  }
  const auto tie = Hypervector::random(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(acc.finalize(tie));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MajorityFinalize)->Arg(1'024)->Arg(10'000)->Arg(65'536);

// The seed's per-pair query loop, kept verbatim as the baseline: separate
// Hypervector objects, one simple (not unrolled) XOR+popcount pass per pair.
std::size_t naive_hamming(std::span<const std::uint64_t> a,
                          std::span<const std::uint64_t> b) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    total += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  }
  return total;
}

std::size_t naive_nearest(const Hypervector& query,
                          const std::vector<Hypervector>& candidates) {
  std::size_t best = 0;
  std::size_t best_dist = naive_hamming(query.words(), candidates[0].words());
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const std::size_t d = naive_hamming(query.words(), candidates[i].words());
    if (d < best_dist) {
      best_dist = d;
      best = i;
    }
  }
  return best;
}

constexpr std::size_t kQueryDim = 10'240;
constexpr std::size_t kQueryClasses = 128;

struct QueryFixture {
  std::vector<Hypervector> candidates;
  VectorArena arena;
  std::vector<Hypervector> queries;
  VectorArena query_arena;

  explicit QueryFixture(std::size_t num_queries) {
    Rng rng(6);
    for (std::size_t i = 0; i < kQueryClasses; ++i) {
      candidates.push_back(Hypervector::random(kQueryDim, rng));
    }
    arena = VectorArena::pack(candidates);
    for (std::size_t i = 0; i < num_queries; ++i) {
      queries.push_back(Hypervector::random(kQueryDim, rng));
    }
    query_arena = VectorArena::pack(queries);
  }
};

void BM_NearestNaivePerPair(benchmark::State& state) {
  const QueryFixture fixture(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        naive_nearest(fixture.queries[0], fixture.candidates));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NearestNaivePerPair);

void BM_NearestFused(benchmark::State& state) {
  const QueryFixture fixture(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdc::bits::nearest_hamming(
        fixture.queries[0].words(), fixture.arena.data(),
        fixture.arena.words_per_vector(), fixture.arena.size()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NearestFused);

void BM_NearestBatchedPool(benchmark::State& state) {
  const std::size_t batch = 256;
  const QueryFixture fixture(batch);
  ThreadPool pool;
  std::vector<std::size_t> out(batch);
  for (auto _ : state) {
    pool.for_chunks(batch, [&](std::size_t begin, std::size_t end,
                               std::size_t /*chunk*/) {
      for (std::size_t i = begin; i < end; ++i) {
        out[i] = hdc::bits::nearest_hamming(fixture.query_arena.words(i),
                                            fixture.arena.data(),
                                            fixture.arena.words_per_vector(),
                                            fixture.arena.size())
                     .index;
      }
    });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch));
}
// Real time, not caller CPU time: the caller sleeps while workers run, so
// CPU-time-based rates would be wildly inflated.
BENCHMARK(BM_NearestBatchedPool)->UseRealTime();

// Standalone speedup report (independent of google-benchmark's timing so the
// numbers survive --benchmark_min_time smoke runs unchanged).
void report_batch_speedup() {
  constexpr std::size_t kBatch = 2'048;
  const QueryFixture fixture(kBatch);
  ThreadPool pool;
  std::vector<std::size_t> out(kBatch);
  using clock = std::chrono::steady_clock;

  // Warm both paths once so first-touch page faults don't skew either side.
  (void)naive_nearest(fixture.queries[0], fixture.candidates);
  (void)hdc::bits::nearest_hamming(fixture.query_arena.words(0),
                                   fixture.arena.data(),
                                   fixture.arena.words_per_vector(),
                                   fixture.arena.size());

  const auto naive_start = clock::now();
  for (std::size_t i = 0; i < kBatch; ++i) {
    out[i] = naive_nearest(fixture.queries[i], fixture.candidates);
  }
  const double naive_seconds =
      std::chrono::duration<double>(clock::now() - naive_start).count();
  benchmark::DoNotOptimize(out.data());

  const auto fused_start = clock::now();
  for (std::size_t i = 0; i < kBatch; ++i) {
    out[i] = hdc::bits::nearest_hamming(fixture.query_arena.words(i),
                                        fixture.arena.data(),
                                        fixture.arena.words_per_vector(),
                                        fixture.arena.size())
                 .index;
  }
  const double fused_seconds =
      std::chrono::duration<double>(clock::now() - fused_start).count();
  benchmark::DoNotOptimize(out.data());

  const auto batched_start = clock::now();
  pool.for_chunks(kBatch, [&](std::size_t begin, std::size_t end,
                              std::size_t /*chunk*/) {
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = hdc::bits::nearest_hamming(fixture.query_arena.words(i),
                                          fixture.arena.data(),
                                          fixture.arena.words_per_vector(),
                                          fixture.arena.size())
                   .index;
    }
  });
  const double batched_seconds =
      std::chrono::duration<double>(clock::now() - batched_start).count();
  benchmark::DoNotOptimize(out.data());

  const double to_rate = static_cast<double>(kBatch) / 1.0e6;
  std::printf("\n[batch-vs-naive] d=%zu classes=%zu queries=%zu threads=%zu\n",
              kQueryDim, kQueryClasses, kBatch, pool.size());
  std::printf("  naive per-pair loop   : %8.3f Mqueries/s\n",
              to_rate / naive_seconds);
  std::printf("  fused single-thread   : %8.3f Mqueries/s (%.2fx)\n",
              to_rate / fused_seconds, naive_seconds / fused_seconds);
  std::printf("  fused + thread pool   : %8.3f Mqueries/s (%.2fx)\n",
              to_rate / batched_seconds, naive_seconds / batched_seconds);
  std::printf("[batch-vs-naive] batched speedup: %.2f\n",
              naive_seconds / batched_seconds);
}

// Basis-resident memory report: the arena-only Basis must stay ~half the
// legacy layout (packed arena + a parallel std::vector<Hypervector>, i.e.
// a second full copy of every vector's words plus per-object overhead).
// CI archives this and gates the reduction factor so the saving cannot
// silently regress.
void report_basis_memory() {
  constexpr std::size_t kDim = 10'240;
  constexpr std::size_t kCount = 256;
  hdc::RandomBasisConfig config;
  config.dimension = kDim;
  config.size = kCount;
  config.seed = 7;
  const hdc::Basis basis = hdc::make_random_basis(config);

  const std::size_t resident = basis.resident_bytes();
  const std::size_t word_bytes =
      kCount * hdc::bits::words_for(kDim) * sizeof(std::uint64_t);
  const std::size_t legacy =
      word_bytes                                       // packed arena
      + word_bytes                                     // per-vector word heaps
      + kCount * sizeof(Hypervector);                  // object headers
  std::printf("\n[basis-memory] d=%zu m=%zu\n", kDim, kCount);
  std::printf("  arena-backed resident : %9zu bytes\n", resident);
  std::printf("  legacy dual layout    : %9zu bytes\n", legacy);
  std::printf("[basis-memory] reduction: %.2f\n",
              static_cast<double>(legacy) / static_cast<double>(resident));
}

// Snapshot cold-load report: mmap'ing an HDCS snapshot must hand out a
// serving-ready basis without copying (or, in Trust mode, even touching)
// the payload, so its latency stays flat as the model grows — unlike the
// heap loader (load_snapshot), which reads and checksums the whole file.
// CI archives this and gates the Trust-mode path's speedup over it.
void report_snapshot_load() {
  constexpr std::size_t kDim = 10'240;
  constexpr std::size_t kCount = 256;
  constexpr std::size_t kScale = 8;  // payload-independence probe: 8x rows
  using clock = std::chrono::steady_clock;

  // Per-process scratch directory so concurrent bench runs (or stale files
  // from a crashed one) can never race on each other's artifacts.
  const auto dir =
      std::filesystem::temp_directory_path() /
      ("hdcs_bench_" +
       std::to_string(static_cast<unsigned long long>(
           std::chrono::steady_clock::now().time_since_epoch().count())));
  std::filesystem::create_directories(dir);
  struct Variant {
    std::size_t count;
    std::string snap_path;
  };
  const Variant variants[] = {
      {kCount, (dir / "bench_snapshot_1x.hdcs").string()},
      {kCount * kScale, (dir / "bench_snapshot_8x.hdcs").string()},
  };
  for (const Variant& variant : variants) {
    hdc::RandomBasisConfig config;
    config.dimension = kDim;
    config.size = variant.count;
    config.seed = 21;
    const hdc::Basis basis = hdc::make_random_basis(config);
    hdc::io::SnapshotWriter writer;
    writer.add_basis(basis);
    writer.write_file(variant.snap_path);
  }

  // Best-of-N so one scheduler hiccup cannot distort the smoke-run numbers.
  constexpr int kRepeats = 5;
  const auto best_ms = [](auto&& load) {
    double best = 1e100;
    for (int i = 0; i < kRepeats; ++i) {
      const auto start = clock::now();
      load();
      best = std::min(
          best,
          std::chrono::duration<double, std::milli>(clock::now() - start)
              .count());
    }
    return best;
  };

  double trust_ms[2] = {0.0, 0.0};
  double heap_ms_by_variant[2] = {0.0, 0.0};
  std::printf("\n[snapshot-load] d=%zu rows={%zu, %zu}\n", kDim, kCount,
              kCount * kScale);
  for (std::size_t v = 0; v < 2; ++v) {
    const Variant& variant = variants[v];
    // Timed region = cold start only: open the artifact and obtain a
    // serving-ready Basis.  The prediction-agreement check runs untimed.
    const double heap_ms = best_ms([&] {
      const auto snapshot = hdc::io::load_snapshot(variant.snap_path);
      benchmark::DoNotOptimize(snapshot.basis(0).words_per_vector());
    });
    const double checksum_ms = best_ms([&] {
      const auto snapshot = hdc::io::MappedSnapshot::open(
          variant.snap_path, hdc::io::SnapshotIntegrity::Checksum);
      benchmark::DoNotOptimize(snapshot.basis(0).words_per_vector());
    });
    trust_ms[v] = best_ms([&] {
      const auto snapshot = hdc::io::MappedSnapshot::open(
          variant.snap_path, hdc::io::SnapshotIntegrity::Trust);
      benchmark::DoNotOptimize(snapshot.basis(0).words_per_vector());
    });
    heap_ms_by_variant[v] = heap_ms;

    std::size_t heap_nearest = 0;
    std::size_t mapped_nearest = 1;
    {
      const auto heap = hdc::io::load_snapshot(variant.snap_path);
      const hdc::Basis heap_basis = heap.basis(0);
      const auto snapshot = hdc::io::MappedSnapshot::open(variant.snap_path);
      const hdc::Basis mapped_basis = snapshot.basis(0);
      // One probe from the heap side queried against *both* models: if
      // the mapped payload diverged anywhere in row 3, the cleanup answers
      // would differ (a self-query on each side would vacuously agree).
      heap_nearest = heap_basis.nearest(heap_basis[3]);
      mapped_nearest = mapped_basis.nearest(heap_basis[3]);
    }
    std::printf("  rows=%5zu heap load_snapshot: %9.3f ms\n", variant.count,
                heap_ms);
    std::printf("  rows=%5zu mmap + checksum   : %9.3f ms\n", variant.count,
                checksum_ms);
    std::printf("  rows=%5zu mmap (trusted)    : %9.3f ms  "
                "(predictions agree: %s)\n",
                variant.count, trust_ms[v],
                heap_nearest == mapped_nearest ? "yes" : "NO");
    std::filesystem::remove(variant.snap_path);
  }
  // Pipeline row: restoring a complete encode->predict pipeline (encoder
  // config sections + model) must stay in the same cold-start class as a
  // bare basis — the encoder configs are table metadata, not payload.
  {
    hdc::io::fixtures::FixtureSpec spec;
    spec.dimension = kDim;
    const auto models = hdc::io::fixtures::make_classifier_pipeline(spec);
    const std::string pipeline_path = (dir / "bench_pipeline.hdcs").string();
    hdc::io::SnapshotWriter writer;
    writer.add_pipeline(models.encoder, models.model);
    writer.write_file(pipeline_path);
    const double pipeline_ms = best_ms([&] {
      const auto snapshot = hdc::io::MappedSnapshot::open(
          pipeline_path, hdc::io::SnapshotIntegrity::Trust);
      benchmark::DoNotOptimize(
          hdc::io::Pipeline::restore(snapshot).dimension());
    });
    const auto snapshot = hdc::io::MappedSnapshot::open(pipeline_path);
    const auto pipeline = hdc::io::Pipeline::restore(snapshot);
    const std::vector<double> probe{15.0, 140.0, 250.0, 355.0};
    const bool agree =
        pipeline.classify(probe) ==
        models.model.predict(models.encoder.encode(probe));
    std::printf("  pipeline   mmap (trusted)    : %9.3f ms  "
                "(predictions agree: %s)\n",
                pipeline_ms, agree ? "yes" : "NO");
    std::filesystem::remove(pipeline_path);
  }
  std::filesystem::remove_all(dir);
  // ~1.0 means the 8x payload loads in the same time as 1x: latency is a
  // property of the header/table, not the payload.
  std::printf("[snapshot-load] trust-load payload-independence ratio: %.2f\n",
              trust_ms[1] / trust_ms[0]);
  // CI gate: even with 8x the payload, trusted mmap cold-start must beat
  // the 8x heap load by a wide margin.
  std::printf("[snapshot-load] mmap speedup: %.2f\n",
              heap_ms_by_variant[1] / trust_ms[1]);
}

// Best-of-3 rows/s of the in-process `hdcgen serve` stack over a
// trusted-mmap pipeline snapshot: \p stream replayed through RowReader,
// micro-batched Server::run over the thread pool, plain predictions (with
// \p head's fields) out.  Returns the rows served per run and the best
// rate.
std::pair<std::size_t, double> serve_rows_per_second(
    const std::string& snap_path, const std::string& stream,
    std::size_t arity, hdc::serve::RowFormat format, std::size_t batch,
    hdc::serve::HeadMode head = hdc::serve::HeadMode::None) {
  const auto snapshot = hdc::io::MappedSnapshot::open(
      snap_path, hdc::io::SnapshotIntegrity::Trust);
  hdc::serve::ServerOptions options;
  options.batch_size = batch;
  const hdc::serve::Server server(hdc::io::Pipeline::restore(snapshot),
                                  options);

  constexpr int kRepeats = 3;
  double best_rows_per_second = 0.0;
  std::size_t served_rows = 0;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    std::istringstream in(stream);
    std::ostringstream out;
    hdc::serve::RowReader reader(in, arity, format);
    hdc::serve::PredictionWriter writer(out, hdc::serve::OutputFormat::Plain,
                                        /*with_latency=*/false, head);
    const auto stats = server.run(reader, writer);
    served_rows = stats.rows;
    best_rows_per_second =
        std::max(best_rows_per_second,
                 static_cast<double>(stats.rows) / stats.seconds);
  }
  return {served_rows, best_rows_per_second};
}

// Streaming-serve throughput: the whole `hdcgen serve` stack in process —
// CSV rows through RowReader, micro-batched over the thread pool, plain
// predictions out — over a trusted-mmap composed Beijing pipeline.  The
// same rows are then served with the p10/p50/p90 band head, and
// band_ratio is the band rate over the plain rate of this run: the band
// reads the profile of the label-grid sweep the point prediction already
// makes, so a second sweep or an extra fork-join per batch shows as a
// lower ratio on any runner.  CI archives the figures and gates them
// against bench/baselines/BENCH_baseline.json (bench/compare_baseline.py).
void report_serve_throughput() {
  constexpr std::size_t kDim = 10'240;
  constexpr std::size_t kRows = 4'096;
  constexpr std::size_t kBatch = 256;
  using clock = std::chrono::steady_clock;

  const auto dir =
      std::filesystem::temp_directory_path() /
      ("hdcs_serve_bench_" +
       std::to_string(static_cast<unsigned long long>(
           clock::now().time_since_epoch().count())));
  std::filesystem::create_directories(dir);
  const std::string snap_path = (dir / "beijing.hdcs").string();
  {
    hdc::io::fixtures::FixtureSpec spec;
    spec.dimension = kDim;
    const auto models = hdc::io::fixtures::make_beijing_pipeline(spec);
    hdc::io::SnapshotWriter writer;
    writer.add_pipeline(*models.encoder, models.model);
    writer.write_file(snap_path);
  }

  // One CSV byte stream, replayed for every run: the benchmark covers
  // parsing, batching, encoding and prediction — the serving hot path.
  std::string csv;
  for (std::size_t i = 0; i < kRows; ++i) {
    csv += std::to_string(i % 5) + ',' +
           std::to_string((static_cast<double>(i) * 61.7) + 3.25) + ',' +
           std::to_string(0.5 * static_cast<double>((i * 7) % 48)) + '\n';
  }

  const auto [served_rows, best_rows_per_second] = serve_rows_per_second(
      snap_path, csv, 3, hdc::serve::RowFormat::Csv, kBatch);
  const double band_rows_per_second =
      serve_rows_per_second(snap_path, csv, 3, hdc::serve::RowFormat::Csv,
                            kBatch, hdc::serve::HeadMode::Band)
          .second;
  std::filesystem::remove_all(dir);

  std::printf("\n[serve-throughput] d=%zu rows=%zu batch=%zu threads=%zu\n",
              kDim, served_rows, kBatch,
              static_cast<std::size_t>(
                  std::thread::hardware_concurrency()));
  std::printf("[serve-throughput] rows_per_second: %.0f\n",
              best_rows_per_second);
  std::printf("[serve-throughput] band_rows_per_second: %.0f\n",
              band_rows_per_second);
  std::printf("[serve-throughput] band_ratio: %.3f\n",
              band_rows_per_second / best_rows_per_second);
}

// Raw-text serve throughput: the `hdcgen serve --input text` stack in
// process — one raw sample per line through RowReader(Text), micro-batched
// trigram encoding over the thread pool, class labels out — over a
// trusted-mmap text-classifier pipeline.  Trigram encoding binds one
// warmed byte-trigram vector per position, so the per-row cost scales with
// sample length, not feature arity; the CI gate pins a rows/s floor
// against bench/baselines/BENCH_baseline.json.
void report_text_throughput() {
  constexpr std::size_t kDim = 10'240;
  constexpr std::size_t kRows = 4'096;
  constexpr std::size_t kBatch = 256;
  using clock = std::chrono::steady_clock;

  const auto dir =
      std::filesystem::temp_directory_path() /
      ("hdcs_text_bench_" +
       std::to_string(static_cast<unsigned long long>(
           clock::now().time_since_epoch().count())));
  std::filesystem::create_directories(dir);
  const std::string snap_path = (dir / "text.hdcs").string();
  {
    hdc::io::fixtures::FixtureSpec spec;
    spec.dimension = kDim;
    const auto models = hdc::io::fixtures::make_text_pipeline(spec);
    hdc::io::SnapshotWriter writer;
    writer.add_pipeline(models.encoder, models.model);
    writer.write_file(snap_path);
  }

  // One raw-text byte stream, replayed per run: short language-ID-shaped
  // samples (a few dozen bytes) mixing the three fixture vocabularies.
  static constexpr const char* kSamples[] = {
      "the quick brown fox jumps over it",
      "hello there again my old friend",
      "el gato corre ahora mismo alli",
      "buenos dias amigo como estas hoy",
      "der hund lauft schnell nach hause",
      "guten morgen freund wie geht es",
  };
  std::string stream;
  std::size_t text_bytes = 0;
  for (std::size_t i = 0; i < kRows; ++i) {
    const std::string row = std::string(kSamples[i % 6]) + " " +
                            std::to_string(i % 97);
    text_bytes += row.size();
    stream += row + '\n';
  }

  const auto [served_rows, best_rows_per_second] = serve_rows_per_second(
      snap_path, stream, 0, hdc::serve::RowFormat::Text, kBatch);
  std::filesystem::remove_all(dir);

  std::printf("\n[text-throughput] d=%zu rows=%zu batch=%zu "
              "mean_bytes=%zu threads=%zu\n",
              kDim, served_rows, kBatch, text_bytes / kRows,
              static_cast<std::size_t>(
                  std::thread::hardware_concurrency()));
  std::printf("[text-throughput] rows_per_second: %.0f\n",
              best_rows_per_second);
}

// Key-value classifier serve throughput: the Table 1 serving shape — CSV
// rows of 4 features, each encoded as a bundle of key (x) circular-value
// bindings plus one threshold, then a centroid search — through the same
// in-process stack as [serve-throughput].  Bundling is nearly all of its
// cost, so this floor is the one that catches the bundling kernels
// regressing.
void report_kv_serve_throughput() {
  constexpr std::size_t kDim = 10'240;
  constexpr std::size_t kRows = 4'096;
  constexpr std::size_t kBatch = 256;

  const auto dir =
      std::filesystem::temp_directory_path() /
      ("hdcs_kv_bench_" +
       std::to_string(static_cast<unsigned long long>(
           std::chrono::steady_clock::now().time_since_epoch().count())));
  std::filesystem::create_directories(dir);
  const std::string snap_path = (dir / "classifier.hdcs").string();
  {
    hdc::io::fixtures::FixtureSpec spec;
    spec.dimension = kDim;
    const auto models = hdc::io::fixtures::make_classifier_pipeline(spec);
    hdc::io::SnapshotWriter writer;
    writer.add_pipeline(models.encoder, models.model);
    writer.write_file(snap_path);
  }

  std::string csv;
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t f = 0; f < 4; ++f) {
      csv += std::to_string(23.0 * static_cast<double>(i) +
                            80.0 * static_cast<double>(f));
      csv += f + 1 < 4 ? ',' : '\n';
    }
  }
  const auto [served_rows, best_rows_per_second] = serve_rows_per_second(
      snap_path, csv, 4, hdc::serve::RowFormat::Csv, kBatch);
  std::filesystem::remove_all(dir);

  std::printf("\n[kv-serve-throughput] d=%zu rows=%zu batch=%zu "
              "features=4 threads=%zu\n",
              kDim, served_rows, kBatch,
              static_cast<std::size_t>(
                  std::thread::hardware_concurrency()));
  std::printf("[kv-serve-throughput] rows_per_second: %.0f\n",
              best_rows_per_second);
}

// Online-adaptation feedback throughput: one AdaptiveState over an mmapped
// classifier snapshot, fed a mistake-heavy labelled stream.  Each feedback
// row costs an encode, then under the state mutex a predict and, on a
// miss, two row re-thresholds plus a publish — a fresh copy of the whole
// model section, on purpose, so readers only ever see immutable models —
// the `!adapt` control-path budget.  The CI gate pins a floor on feedback
// rows/s so the update never regresses to per-bit loops or to copying
// more than the model section per sample.
void report_adapt_throughput() {
  constexpr std::size_t kDim = 10'240;
  constexpr std::size_t kRows = 4'096;

  const auto dir =
      std::filesystem::temp_directory_path() /
      ("hdcs_adapt_bench_" +
       std::to_string(static_cast<unsigned long long>(
           std::chrono::steady_clock::now().time_since_epoch().count())));
  std::filesystem::create_directories(dir);
  const std::string snap_path = (dir / "classifier.hdcs").string();
  {
    hdc::io::fixtures::FixtureSpec spec;
    spec.dimension = kDim;
    const auto models = hdc::io::fixtures::make_classifier_pipeline(spec);
    hdc::io::SnapshotWriter writer;
    writer.add_pipeline(models.encoder, models.model);
    writer.write_file(snap_path);
  }

  std::vector<std::vector<double>> rows;
  std::vector<double> targets;
  rows.reserve(kRows);
  targets.reserve(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    std::vector<double> row(4);
    for (std::size_t f = 0; f < row.size(); ++f) {
      row[f] = 23.0 * static_cast<double>(i) + 80.0 * static_cast<double>(f);
    }
    rows.push_back(std::move(row));
    // A rotating label disagrees with most predictions, so the stream
    // exercises the expensive (row-updating) path, not just the predict.
    targets.push_back(static_cast<double>(i % 3));
  }

  const auto base = std::make_shared<const hdc::serve::ServingState>(
      hdc::io::load_pipeline(snap_path, hdc::io::SnapshotIntegrity::Trust),
      0, snap_path);

  constexpr int kRepeats = 3;
  double best_rows_per_second = 0.0;
  std::uint64_t updates = 0;
  std::uint64_t overlay_rows = 0;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    hdc::serve::AdaptiveState state(base);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kRows; ++i) {
      (void)state.adapt(rows[i], targets[i]);
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    best_rows_per_second =
        std::max(best_rows_per_second,
                 static_cast<double>(kRows) / elapsed.count());
    updates = state.updates();
    overlay_rows = state.overlay_rows();
  }
  std::filesystem::remove_all(dir);

  std::printf("\n[adapt-throughput] d=%zu rows=%zu updates=%llu "
              "overlay_rows=%llu\n",
              kDim, kRows, static_cast<unsigned long long>(updates),
              static_cast<unsigned long long>(overlay_rows));
  std::printf("[adapt-throughput] feedback_rows_per_second: %.0f\n",
              best_rows_per_second);
}

// Socket-serving tail latency: the whole network front end in process — a
// NetServer on a loopback TCP port, one persistent client connection
// pipelining CSV rows with a bounded window, per-row send-to-response
// latency recorded at the client.  This is the `[serve-latency]` report the
// CI gate checks as a *ceiling* (direction "lower" in
// bench/baselines/BENCH_baseline.json): a regression that parks rows on the
// flush timer or serializes the batch path shows up as a tail blow-up long
// before throughput moves.  serve_load emits the identical block against an
// out-of-process server for ad-hoc runs.
#if !defined(_WIN32)
/// [cluster-scaling]: end-to-end ShardedServer predict throughput at 1, 2
/// and 4 fork replicas under row sharding — the scaling story of the
/// hdc::cluster subsystem, gated by compare_baseline.py.  Forks real worker
/// processes, so it runs between reports whose thread pools are scoped:
/// when it starts, the process is single-threaded again.
void report_cluster_scaling() {
  constexpr std::size_t kDim = 10'240;
  constexpr std::size_t kRows = 4'096;
  constexpr std::size_t kBatch = 256;
  using clock = std::chrono::steady_clock;

  const auto dir =
      std::filesystem::temp_directory_path() /
      ("hdcs_cluster_bench_" +
       std::to_string(static_cast<unsigned long long>(
           clock::now().time_since_epoch().count())));
  std::filesystem::create_directories(dir);
  const std::string snap_path = (dir / "beijing.hdcs").string();
  {
    hdc::io::fixtures::FixtureSpec spec;
    spec.dimension = kDim;
    const auto models = hdc::io::fixtures::make_beijing_pipeline(spec);
    hdc::io::SnapshotWriter writer;
    writer.add_pipeline(*models.encoder, models.model);
    writer.write_file(snap_path);
  }

  // The same row mix as the serve reports, already parsed: this measures
  // the cluster scatter/predict/gather path itself, not CSV parsing.
  std::vector<std::vector<double>> rows;
  rows.reserve(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    rows.push_back({static_cast<double>(i % 5),
                    (static_cast<double>(i) * 61.7) + 3.25,
                    0.5 * static_cast<double>((i * 7) % 48)});
  }

  std::printf(
      "\n[cluster-scaling] d=%zu rows=%zu batch=%zu shard=rows "
      "backend=fork\n",
      kDim, kRows, kBatch);
  constexpr int kRepeats = 3;
  for (const std::size_t replicas : {std::size_t{1}, std::size_t{2},
                                     std::size_t{4}}) {
    hdc::cluster::ClusterOptions options;
    options.replicas = replicas;
    options.scheme = hdc::cluster::ShardScheme::Rows;
    options.backend = hdc::cluster::CommBackend::Fork;
    options.integrity = hdc::io::SnapshotIntegrity::Trust;
    hdc::cluster::ShardedServer server(snap_path, options);
    double best = 0.0;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      std::size_t served = 0;
      const auto start = clock::now();
      for (std::size_t i = 0; i < kRows; i += kBatch) {
        const std::size_t n = std::min(kBatch, kRows - i);
        served += server
                      .predict(std::span<const std::vector<double>>(rows)
                                   .subspan(i, n))
                      .predictions.size();
      }
      const double seconds =
          std::chrono::duration<double>(clock::now() - start).count();
      if (served == kRows && seconds > 0.0) {
        best = std::max(best, static_cast<double>(served) / seconds);
      }
    }
    std::printf("[cluster-scaling] replicas%zu_rows_per_second: %.0f\n",
                replicas, best);
  }
  std::filesystem::remove_all(dir);
}

void report_serve_latency() {
  constexpr std::size_t kDim = 10'240;
  constexpr std::size_t kRows = 4'096;
  constexpr std::size_t kBatch = 32;
  constexpr std::size_t kWindow = 32;
  using clock = std::chrono::steady_clock;

  const auto dir =
      std::filesystem::temp_directory_path() /
      ("hdcs_latency_bench_" +
       std::to_string(static_cast<unsigned long long>(
           clock::now().time_since_epoch().count())));
  std::filesystem::create_directories(dir);
  const std::string snap_path = (dir / "beijing.hdcs").string();
  {
    hdc::io::fixtures::FixtureSpec spec;
    spec.dimension = kDim;
    const auto models = hdc::io::fixtures::make_beijing_pipeline(spec);
    hdc::io::SnapshotWriter writer;
    writer.add_pipeline(*models.encoder, models.model);
    writer.write_file(snap_path);
  }

  std::vector<std::string> rows;
  rows.reserve(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    rows.push_back(std::to_string(i % 5) + ',' +
                   std::to_string((static_cast<double>(i) * 61.7) + 3.25) +
                   ',' +
                   std::to_string(0.5 * static_cast<double>((i * 7) % 48)) +
                   '\n');
  }

  hdc::serve::NetServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;  // ephemeral
  options.batch_size = kBatch;
  options.flush_interval = std::chrono::microseconds(2'000);
  options.mapping = {};
  hdc::serve::NetServer server(
      hdc::io::load_pipeline(snap_path, hdc::io::SnapshotIntegrity::Trust),
      snap_path, options);
  std::thread server_thread([&server] { server.run(); });

  std::vector<double> latencies;
  latencies.reserve(kRows);
  double seconds = 0.0;
  bool ok = false;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  do {
    if (fd < 0) {
      break;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      break;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    // Windowed pipelining, timing each row from send to its response line.
    std::vector<clock::time_point> sent_at(kRows);
    std::string inbuf;
    char chunk[4096];
    std::size_t sent = 0;
    std::size_t received = 0;
    bool dead = false;
    const auto start = clock::now();
    while (received < kRows && !dead) {
      while (sent < kRows && sent - received < kWindow) {
        sent_at[sent] = clock::now();
        const std::string& row = rows[sent];
        std::size_t done = 0;
        while (done < row.size()) {
          const ssize_t n = ::send(fd, row.data() + done, row.size() - done,
                                   MSG_NOSIGNAL);
          if (n <= 0) {
            dead = true;
            break;
          }
          done += static_cast<std::size_t>(n);
        }
        if (dead) {
          break;
        }
        ++sent;
      }
      std::size_t newline;
      while ((newline = inbuf.find('\n')) == std::string::npos && !dead) {
        const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
        if (got <= 0) {
          dead = true;
          break;
        }
        inbuf.append(chunk, static_cast<std::size_t>(got));
      }
      if (dead) {
        break;
      }
      inbuf.erase(0, newline + 1);
      latencies.push_back(std::chrono::duration<double, std::micro>(
                              clock::now() - sent_at[received])
                              .count());
      ++received;
    }
    seconds = std::chrono::duration<double>(clock::now() - start).count();
    ok = received == kRows;
  } while (false);
  if (fd >= 0) {
    ::close(fd);
  }
  server.stop();
  server_thread.join();
  std::filesystem::remove_all(dir);

  std::sort(latencies.begin(), latencies.end());
  const auto pct = [&latencies](double q) {
    if (latencies.empty()) {
      return 0.0;
    }
    const auto rank =
        static_cast<std::size_t>(q * static_cast<double>(latencies.size()));
    return latencies[std::min(rank, latencies.size() - 1)];
  };
  std::printf("\n[serve-latency] d=%zu rows=%zu batch=%zu window=%zu "
              "loopback tcp (%s)\n",
              kDim, latencies.size(), kBatch, kWindow,
              ok ? "complete" : "INCOMPLETE");
  std::printf("[serve-latency] rows_per_second: %.0f\n",
              ok && seconds > 0.0
                  ? static_cast<double>(latencies.size()) / seconds
                  : 0.0);
  // An incomplete run reports +inf tails so the ceiling gate fails loudly
  // instead of averaging over the rows that did make it.
  std::printf("[serve-latency] p50_us: %.1f\n", ok ? pct(0.50) : 1.0e9);
  std::printf("[serve-latency] p99_us: %.1f\n", ok ? pct(0.99) : 1.0e9);
  std::printf("[serve-latency] p999_us: %.1f\n", ok ? pct(0.999) : 1.0e9);
}
#endif  // !defined(_WIN32)

// Position-weighted checksum of a packed row: a wrong bit anywhere moves it.
std::uint64_t row_checksum(std::span<const std::uint64_t> row) {
  std::uint64_t sum = 0;
  for (std::size_t w = 0; w < row.size(); ++w) {
    sum += row[w] * (w + 1);
  }
  return sum;
}

// The [kernel-bundle] workload: every row of \p rows accumulated into one
// counter row with alternating +1/-1 weights (even count, so many counters
// end at an exact-zero tie), then one threshold against \p tie.  Both
// checksums are position-weighted sums, so a wrong lane, tie or tail bit
// changes them.
struct BundleChecksums {
  std::uint64_t counters = 0;
  std::uint64_t threshold = 0;
  bool operator==(const BundleChecksums&) const = default;
};

BundleChecksums bundle_checksums(const hdc::bits::Kernels& kernels,
                                 std::span<const std::uint64_t> rows,
                                 std::span<const std::uint64_t> tie,
                                 std::size_t dim) {
  const std::size_t words = tie.size();
  std::vector<std::int32_t> counters(dim, 0);
  for (std::size_t r = 0; r * words < rows.size(); ++r) {
    kernels.accumulate(counters.data(), rows.data() + r * words, dim,
                       r % 2 == 0 ? 1 : -1);
  }
  std::vector<std::uint64_t> out(words);
  kernels.threshold(counters.data(), tie.data(), out.data(), dim);
  BundleChecksums sums;
  for (std::size_t i = 0; i < dim; ++i) {
    sums.counters += static_cast<std::uint64_t>(counters[i]) * (i + 1);
  }
  sums.threshold = row_checksum(out);
  return sums;
}

// CoreMark-style self-checking kernel microbench: every available kernel
// variant runs the same fixed workload, its result checksum must equal the
// scalar reference's (a variant that is fast but wrong must fail the gate,
// not win it), and per-variant GB/s / rows/s / adds/s go into the
// [kernel-hamming] / [kernel-nearest] / [kernel-bundle] reports that
// bench/compare_baseline.py checks against committed baselines.  Returns
// false when any variant mis-computes.
bool report_kernel_microbench() {
  constexpr std::size_t kDim = 10'240;
  constexpr std::size_t kWords = kDim / 64;  // 160
  constexpr std::size_t kHammingRows = 2'048;  // 2 x 3.2 MiB streams
  constexpr std::size_t kNearestQueries = 1'024;
  constexpr std::size_t kBundleRows = 512;  // 1.3 MiB of rows at d = 10240
  constexpr std::size_t kThresholds = 1'024;
  constexpr std::size_t kMajorityInputs = 18;  // bound pairs per bundle
  constexpr std::size_t kMajorities = 2'048;
  constexpr int kRepeats = 3;
  using clock = std::chrono::steady_clock;

  Rng rng(37);
  std::vector<std::uint64_t> lhs(kHammingRows * kWords);
  std::vector<std::uint64_t> rhs(lhs.size());
  for (auto& w : lhs) {
    w = rng();
  }
  for (auto& w : rhs) {
    w = rng();
  }

  const QueryFixture fixture(kNearestQueries);
  const auto& arena = fixture.arena;

  // Reference checksums, computed once with the scalar variant directly
  // (no dispatch): the self-check oracle.
  const hdc::bits::Kernels& scalar = hdc::bits::scalar_kernels();
  std::uint64_t expected_hamming_sum = 0;
  for (std::size_t row = 0; row < kHammingRows; ++row) {
    expected_hamming_sum += scalar.hamming(lhs.data() + row * kWords,
                                           rhs.data() + row * kWords, kWords);
  }
  std::uint64_t expected_nearest_sum = 0;
  for (std::size_t q = 0; q < kNearestQueries; ++q) {
    const auto match = scalar.nearest_hamming(
        fixture.query_arena.words(q).data(), kWords, arena.data().data(),
        arena.words_per_vector(), arena.size());
    expected_nearest_sum += match.index * 1'000'003ULL + match.distance;
  }
  std::vector<std::uint64_t> bundle_rows(kBundleRows * kWords);
  for (auto& w : bundle_rows) {
    w = rng();
  }
  std::vector<std::uint64_t> tie(kWords);
  for (auto& w : tie) {
    w = rng();
  }
  const BundleChecksums expected_bundle =
      bundle_checksums(scalar, bundle_rows, tie, kDim);
  // The [kernel-bundle] majority row bundles the Table 1 sample shape, 18
  // bound key-value pairs (bundle rows 2i and 2i + 1), in one pass.  Its
  // oracle: the pairs XORed into rows, accumulated and thresholded by the
  // scalar variant.
  std::vector<const std::uint64_t*> pair_rows(2 * kMajorityInputs);
  std::vector<std::int32_t> pair_counters(kDim, 0);
  std::vector<std::uint64_t> bound(kWords);
  for (std::size_t i = 0; i < pair_rows.size(); ++i) {
    pair_rows[i] = bundle_rows.data() + i * kWords;
  }
  for (std::size_t i = 0; i < kMajorityInputs; ++i) {
    scalar.xor_rows(bound.data(), pair_rows[2 * i], pair_rows[2 * i + 1],
                    kWords);
    scalar.accumulate(pair_counters.data(), bound.data(), kDim, 1);
  }
  scalar.threshold(pair_counters.data(), tie.data(), bound.data(), kDim);
  const std::uint64_t expected_majority = row_checksum(bound);
  hdc::bits::MajorityInputs pairs;
  pairs.rows = pair_rows.data();
  pairs.count = kMajorityInputs;
  pairs.terms = 2;

  const std::string previous = hdc::bits::active_kernels().name;
  bool all_ok = true;
  double best_gbps = 0.0;
  double best_rows_per_second = 0.0;
  double best_adds_per_second = 0.0;
  double best_thresholds_per_second = 0.0;
  double best_majorities_per_second = 0.0;
  const char* best_gbps_variant = "none";
  const char* best_rows_variant = "none";
  const char* best_bundle_variant = "none";

  std::printf("\n[kernel-hamming] d=%zu words=%zu rows=%zu (xor+popcount "
              "stream, self-checked vs scalar)\n",
              kDim, kWords, kHammingRows);
  std::printf("[kernel-nearest] d=%zu classes=%zu queries=%zu\n", kDim,
              kQueryClasses, kNearestQueries);
  std::printf("[kernel-bundle] d=%zu rows=%zu thresholds=%zu (accumulate + "
              "threshold, self-checked vs scalar)\n",
              kDim, kBundleRows, kThresholds);
  std::printf("[kernel-bundle] majority: n=%zu bound pairs x %zu bundles "
              "(one pass, self-checked vs scalar accumulate + threshold)\n",
              kMajorityInputs, kMajorities);
  for (const hdc::bits::Kernels* variant : hdc::bits::available_kernels()) {
    hdc::bits::select_kernels(variant->name);

    // --- hamming stream: GB/s over both input streams, best of N.
    double hamming_seconds = 1e100;
    std::uint64_t hamming_sum = 0;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      hamming_sum = 0;
      const auto start = clock::now();
      for (std::size_t row = 0; row < kHammingRows; ++row) {
        hamming_sum += hdc::bits::hamming(
            std::span(lhs).subspan(row * kWords, kWords),
            std::span(rhs).subspan(row * kWords, kWords));
      }
      hamming_seconds = std::min(
          hamming_seconds,
          std::chrono::duration<double>(clock::now() - start).count());
      benchmark::DoNotOptimize(hamming_sum);
    }
    const bool hamming_ok = hamming_sum == expected_hamming_sum;
    const double gbps = static_cast<double>(2 * sizeof(std::uint64_t) *
                                            kHammingRows * kWords) /
                        hamming_seconds / 1.0e9;
    std::printf("[kernel-hamming] variant=%-6s gbps=%7.2f self-check=%s\n",
                variant->name, gbps, hamming_ok ? "ok" : "FAIL");
    if (hamming_ok && gbps > best_gbps) {
      best_gbps = gbps;
      best_gbps_variant = variant->name;
    }

    // --- nearest sweep: queries/s against the class arena, best of N.
    double nearest_seconds = 1e100;
    std::uint64_t nearest_sum = 0;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      nearest_sum = 0;
      const auto start = clock::now();
      for (std::size_t q = 0; q < kNearestQueries; ++q) {
        const auto match = hdc::bits::nearest_hamming(
            fixture.query_arena.words(q), arena.data(),
            arena.words_per_vector(), arena.size());
        nearest_sum += match.index * 1'000'003ULL + match.distance;
      }
      nearest_seconds = std::min(
          nearest_seconds,
          std::chrono::duration<double>(clock::now() - start).count());
      benchmark::DoNotOptimize(nearest_sum);
    }
    const bool nearest_ok = nearest_sum == expected_nearest_sum;
    const double rows_per_second =
        static_cast<double>(kNearestQueries) / nearest_seconds;
    std::printf(
        "[kernel-nearest] variant=%-6s rows_per_second=%9.0f self-check=%s\n",
        variant->name, rows_per_second, nearest_ok ? "ok" : "FAIL");
    if (nearest_ok && rows_per_second > best_rows_per_second) {
      best_rows_per_second = rows_per_second;
      best_rows_variant = variant->name;
    }

    // --- bundling: accumulate adds/s over the row stream and thresholds/s
    // of the resulting counters, best of N; checksums from a separate pass.
    const bool bundle_ok =
        bundle_checksums(*variant, bundle_rows, tie, kDim) == expected_bundle;
    std::vector<std::int32_t> counters(kDim, 0);
    std::vector<std::uint64_t> out(kWords);
    double add_seconds = 1e100;
    double threshold_seconds = 1e100;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      std::fill(counters.begin(), counters.end(), 0);
      auto start = clock::now();
      for (std::size_t r = 0; r < kBundleRows; ++r) {
        hdc::bits::accumulate(
            counters, std::span(bundle_rows).subspan(r * kWords, kWords),
            r % 2 == 0 ? 1 : -1);
      }
      benchmark::DoNotOptimize(counters.data());
      benchmark::ClobberMemory();
      add_seconds = std::min(
          add_seconds,
          std::chrono::duration<double>(clock::now() - start).count());
      start = clock::now();
      for (std::size_t t = 0; t < kThresholds; ++t) {
        hdc::bits::threshold(counters, tie, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
      }
      threshold_seconds = std::min(
          threshold_seconds,
          std::chrono::duration<double>(clock::now() - start).count());
    }
    const double adds_per_second =
        static_cast<double>(kBundleRows) / add_seconds;
    const double thresholds_per_second =
        static_cast<double>(kThresholds) / threshold_seconds;
    std::printf("[kernel-bundle] variant=%-6s adds_per_second=%9.0f "
                "thresholds_per_second=%9.0f self-check=%s\n",
                variant->name, adds_per_second, thresholds_per_second,
                bundle_ok ? "ok" : "FAIL");
    if (bundle_ok && adds_per_second > best_adds_per_second) {
      best_adds_per_second = adds_per_second;
      best_bundle_variant = variant->name;
    }
    if (bundle_ok) {
      best_thresholds_per_second =
          std::max(best_thresholds_per_second, thresholds_per_second);
    }

    // --- majority: one-pass bundles of the 18 bound pairs per second, best
    // of N; the checksum from a separate call.
    std::fill(out.begin(), out.end(), ~0ULL);
    variant->majority(&pairs, tie.data(), out.data(), kDim);
    const bool majority_ok = row_checksum(out) == expected_majority;
    double majority_seconds = 1e100;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      const auto start = clock::now();
      for (std::size_t m = 0; m < kMajorities; ++m) {
        hdc::bits::majority(pairs, tie, out, kDim);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
      }
      majority_seconds = std::min(
          majority_seconds,
          std::chrono::duration<double>(clock::now() - start).count());
    }
    const double majorities_per_second =
        static_cast<double>(kMajorities) / majority_seconds;
    std::printf("[kernel-bundle] variant=%-6s majorities_per_second=%9.0f "
                "self-check=%s\n",
                variant->name, majorities_per_second,
                majority_ok ? "ok" : "FAIL");
    if (majority_ok) {
      best_majorities_per_second =
          std::max(best_majorities_per_second, majorities_per_second);
    }
    all_ok = all_ok && hamming_ok && nearest_ok && bundle_ok && majority_ok;
  }
  hdc::bits::select_kernels(previous);

  std::printf("[kernel-hamming] best variant: %s\n", best_gbps_variant);
  std::printf("[kernel-hamming] best_gbps: %.2f\n", best_gbps);
  std::printf("[kernel-nearest] best variant: %s\n", best_rows_variant);
  std::printf("[kernel-nearest] best_rows_per_second: %.0f\n",
              best_rows_per_second);
  std::printf("[kernel-bundle] best variant: %s\n", best_bundle_variant);
  std::printf("[kernel-bundle] best_adds_per_second: %.0f\n",
              best_adds_per_second);
  std::printf("[kernel-bundle] best_thresholds_per_second: %.0f\n",
              best_thresholds_per_second);
  std::printf("[kernel-bundle] best_majorities_per_second: %.0f\n",
              best_majorities_per_second);
  std::printf("[kernel-selfcheck] pass: %d\n", all_ok ? 1 : 0);
  return all_ok;
}

}  // namespace

int main(int argc, char** argv) {
  // --kernel=NAME pins the dispatched variant for every report below (the
  // microbench still sweeps all of them); peeled off before
  // benchmark::Initialize, which rejects flags it does not know.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    constexpr std::string_view kKernelFlag = "--kernel=";
    if (arg.starts_with(kKernelFlag)) {
      try {
        hdc::bits::select_kernels(arg.substr(kKernelFlag.size()));
      } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "bench_ops: %s\n", error.what());
        return 1;
      }
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  std::printf("[kernels] active variant: %s\n",
              hdc::bits::active_kernels().name);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  report_batch_speedup();
  report_basis_memory();
  report_snapshot_load();
  report_serve_throughput();
  report_text_throughput();
  report_kv_serve_throughput();
  report_adapt_throughput();
#if !defined(_WIN32)
  report_cluster_scaling();
  report_serve_latency();
#endif
  const bool kernels_ok = report_kernel_microbench();
  // A kernel variant that mis-computes must fail the bench job outright,
  // not just dent a throughput number.
  return kernels_ok ? 0 : 1;
}
