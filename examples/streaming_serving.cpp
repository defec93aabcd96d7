// Streaming predictions end to end: the `hdcgen serve` stack in process.
//
// A composed Beijing-style pipeline — level-encoded year ⊗ circular
// day-of-year (period 366) ⊗ circular hour-of-day (period 24) regressing
// temperature — is trained, snapshotted as ONE file, cold-started from the
// mmap, and fed a CSV stream of feature rows through the micro-batching
// server.  Predictions come back in input order, bit-identical to per-row
// Pipeline::regress calls for any batch size or thread count.
//
// Run: ./build/examples/streaming_serving

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "hdc/io/fixture_models.hpp"
#include "hdc/io/io.hpp"
#include "hdc/serve/serve.hpp"

int main() {
  // --- Train time: snapshot the composed pipeline as one artifact.
  const std::string path =
      (std::filesystem::temp_directory_path() / "streaming_beijing.hdcs")
          .string();
  {
    const auto models = hdc::io::fixtures::make_beijing_pipeline({});
    hdc::io::SnapshotWriter writer;
    writer.add_pipeline(*models.encoder, models.model);
    writer.write_file(path);
  }
  std::printf("snapshot: %s\n", path.c_str());

  // --- Replica start: mmap + restore (zero payload copies; Trust mode
  // skips even the payload hash for authenticated artifact stores).
  const auto snapshot = hdc::io::MappedSnapshot::open(path);
  hdc::io::Pipeline pipeline = hdc::io::Pipeline::restore(snapshot);
  std::printf("pipeline: %s, d = %zu, %zu features/row (Y ⊗ D ⊗ H)\n",
              hdc::io::to_string(pipeline.kind()), pipeline.dimension(),
              pipeline.num_features());

  // --- Traffic: CSV rows in, predictions out, micro-batched.
  hdc::serve::ServerOptions options;
  options.batch_size = 4;
  const hdc::serve::Server server(std::move(pipeline), options);
  std::istringstream in(
      "0,15,3\n"      // a winter night, first year
      "1,100.5,7\n"   // a spring morning
      "2,196,14.5\n"  // a summer afternoon
      "3,289,20\n"    // an autumn evening
      "4,359,23\n"    // New Year's Eve, last year — day wraps 366 -> 0
      "4,2,0.25\n");  // ...and just after the wrap
  std::ostringstream out;
  hdc::serve::RowReader reader(in, server.plane().num_features());
  hdc::serve::PredictionWriter writer(out, hdc::serve::OutputFormat::Csv);
  const auto stats = server.run(reader, writer);

  std::printf("served %zu rows in %zu micro-batches:\n%s", stats.rows,
              stats.batches, out.str().c_str());
  std::filesystem::remove(path);
  return 0;
}
