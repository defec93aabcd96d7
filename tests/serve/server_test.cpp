// Micro-batching server conformance: everything `hdcgen serve` does in
// process.  A composed Beijing pipeline (and a feature-encoder classifier
// pipeline) is snapshotted, restored from the mapping, and served through
// Server over string streams; the written predictions must equal the
// sequential Pipeline::regress/classify oracle row for row — for every
// batch size, thread count, integrity mode and input format — and the
// plain output must be byte-identical across runs (the golden-diff
// property the serve-e2e CI suite relies on).

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hdc/io/fixture_models.hpp"
#include "hdc/io/io.hpp"
#include "hdc/serve/serve.hpp"

namespace {

using hdc::io::MappedSnapshot;
using hdc::io::Pipeline;
using hdc::io::SnapshotIntegrity;
using hdc::io::SnapshotWriter;
using hdc::serve::HeadMode;
using hdc::serve::OutputFormat;
using hdc::serve::Predictions;
using hdc::serve::PredictionWriter;
using hdc::serve::RowFormat;
using hdc::serve::RowReader;
using hdc::serve::Server;
using hdc::serve::ServerOptions;
namespace fixtures = hdc::io::fixtures;

std::string temp_file(const std::string& name) {
  return (std::filesystem::path(testing::TempDir()) / name).string();
}

/// The committed-CSV shape: deterministic (year, day, hour) rows covering
/// both circular wraps.
std::vector<std::vector<double>> beijing_rows(std::size_t count) {
  std::vector<std::vector<double>> rows;
  rows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    rows.push_back({static_cast<double>(i % 5),
                    static_cast<double>((i * 53) % 366),
                    0.5 * static_cast<double>((i * 7) % 48)});
  }
  return rows;
}

std::string as_csv(const std::vector<std::vector<double>>& rows) {
  std::ostringstream out;
  for (const auto& row : rows) {
    for (std::size_t f = 0; f < row.size(); ++f) {
      out << (f == 0 ? "" : ",") << row[f];
    }
    out << '\n';
  }
  return out.str();
}

/// Writes the Beijing composed pipeline snapshot once per test process.
/// The name is process-unique: ctest runs every discovered TEST as its own
/// process in parallel, and a shared fixed path would let one process
/// truncate the file mid-write while a sibling still has it mmapped
/// (SIGBUS past the new EOF).
const std::string& beijing_snapshot() {
  static const std::string path = [] {
    const auto stamp = static_cast<unsigned long long>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    const std::string file =
        temp_file("serve_beijing_" + std::to_string(stamp) + ".hdcs");
    const fixtures::BeijingPipeline models = fixtures::make_beijing_pipeline();
    SnapshotWriter writer;
    writer.add_pipeline(*models.encoder, models.model);
    writer.write_file(file);
    return file;
  }();
  return path;
}

TEST(ServerTest, ServesBitExactAcrossBatchSizesThreadsAndIntegrity) {
  const auto rows = beijing_rows(41);  // not a multiple of any batch size
  const std::string csv = as_csv(rows);

  const auto oracle_snapshot = MappedSnapshot::open(beijing_snapshot());
  const Pipeline oracle = Pipeline::restore(oracle_snapshot);
  std::string expected;
  {
    std::ostringstream out;
    PredictionWriter writer(out, OutputFormat::Plain);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      writer.write(i, oracle.regress(rows[i]), 0.0);
    }
    expected = out.str();
  }

  const struct {
    std::size_t batch;
    std::size_t threads;
    SnapshotIntegrity integrity;
  } variants[] = {
      {1, 1, SnapshotIntegrity::Checksum},
      {7, 4, SnapshotIntegrity::Checksum},
      {64, 2, SnapshotIntegrity::Trust},
      {1024, 4, SnapshotIntegrity::Trust},
  };
  for (const auto& variant : variants) {
    SCOPED_TRACE("batch=" + std::to_string(variant.batch) +
                 " threads=" + std::to_string(variant.threads));
    const auto snapshot =
        MappedSnapshot::open(beijing_snapshot(), variant.integrity);
    ServerOptions options;
    options.batch_size = variant.batch;
    options.num_threads = variant.threads;
    const Server server(Pipeline::restore(snapshot), options);
    std::istringstream in(csv);
    std::ostringstream out;
    RowReader reader(in, server.plane().num_features());
    PredictionWriter writer(out, OutputFormat::Plain);
    const Server::Stats stats = server.run(reader, writer);
    EXPECT_EQ(stats.rows, rows.size());
    EXPECT_EQ(stats.batches,
              (rows.size() + variant.batch - 1) / variant.batch);
    EXPECT_EQ(out.str(), expected);
  }
}

TEST(ServerTest, PredictMatchesPerRowOracle) {
  const auto snapshot = MappedSnapshot::open(beijing_snapshot());
  const Pipeline pipeline = Pipeline::restore(snapshot);
  const Server server(pipeline, {});
  const auto rows = beijing_rows(17);
  Predictions batched;
  server.plane().predict({rows, {}}, HeadMode::None, false, batched);
  ASSERT_EQ(batched.values.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(batched.values[i], pipeline.regress(rows[i])) << "row " << i;
  }
  server.plane().predict({}, HeadMode::None, false, batched);
  EXPECT_TRUE(batched.values.empty());
}

TEST(ServerTest, ClassifierPipelineWritesIntegerLabels) {
  // Unique per process for the same reason as beijing_snapshot().
  const std::string path = temp_file(
      "serve_classifier_" +
      std::to_string(static_cast<unsigned long long>(
          std::chrono::steady_clock::now().time_since_epoch().count())) +
      ".hdcs");
  const fixtures::ClassifierPipeline models =
      fixtures::make_classifier_pipeline();
  {
    SnapshotWriter writer;
    writer.add_pipeline(models.encoder, models.model);
    writer.write_file(path);
  }
  const auto snapshot = MappedSnapshot::open(path);
  const Pipeline pipeline = Pipeline::restore(snapshot);
  const Server server(pipeline, {});

  std::ostringstream csv;
  std::vector<std::size_t> expected;
  for (int probe = 0; probe < 30; ++probe) {
    std::vector<double> row(pipeline.num_features());
    for (std::size_t f = 0; f < row.size(); ++f) {
      row[f] = 12.0 * probe + 90.0 * static_cast<double>(f);
    }
    expected.push_back(pipeline.classify(row));
    for (std::size_t f = 0; f < row.size(); ++f) {
      csv << (f == 0 ? "" : ",") << row[f];
    }
    csv << '\n';
  }
  std::istringstream in(csv.str());
  std::ostringstream out;
  RowReader reader(in, pipeline.num_features());
  PredictionWriter writer(out, OutputFormat::Plain);
  (void)server.run(reader, writer);
  std::istringstream lines(out.str());
  std::string line;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(std::getline(lines, line)) << "row " << i;
    EXPECT_EQ(line, std::to_string(expected[i])) << "row " << i;
  }
  EXPECT_FALSE(std::getline(lines, line));
  std::filesystem::remove(path);
}

/// Process-unique text-pipeline snapshot (same rationale as
/// beijing_snapshot()).
const std::string& text_snapshot() {
  static const std::string path = [] {
    const auto stamp = static_cast<unsigned long long>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    const std::string file =
        temp_file("serve_text_" + std::to_string(stamp) + ".hdcs");
    const fixtures::TextPipeline models = fixtures::make_text_pipeline();
    SnapshotWriter writer;
    writer.add_pipeline(models.encoder, models.model);
    writer.write_file(file);
    return file;
  }();
  return path;
}

TEST(ServerTest, TextPipelineServesRawLinesBitExact) {
  const auto snapshot = MappedSnapshot::open(text_snapshot());
  const Pipeline oracle = Pipeline::restore(snapshot);
  const std::vector<std::string> rows = {
      "lo vo miri",  "zu ka pelo tir", "anda vestri olm", "tir tir",
      "1,2,3",  // Numeric-looking bytes are still raw text payload.
      "mixed 42 bytes!"};
  std::string input;
  for (const std::string& row : rows) {
    input += row + "\n";
  }

  for (const std::size_t batch : {1U, 4U, 64U}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    ServerOptions options;
    options.batch_size = batch;
    options.num_threads = 3;
    const Server server(Pipeline::restore(snapshot), options);
    std::istringstream in(input);
    std::ostringstream out;
    RowReader reader(in, 0, RowFormat::Text);
    PredictionWriter writer(out, OutputFormat::Plain);
    const Server::Stats stats = server.run(reader, writer);
    EXPECT_EQ(stats.rows, rows.size());
    std::istringstream lines(out.str());
    std::string line;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ASSERT_TRUE(std::getline(lines, line)) << "row " << i;
      EXPECT_EQ(line, std::to_string(oracle.classify_text(rows[i])))
          << "row " << i;
    }
    EXPECT_FALSE(std::getline(lines, line));
  }

  // One text batch through the plane agrees with the per-row oracle too.
  const Server server(Pipeline::restore(snapshot), {});
  Predictions batched;
  server.plane().predict({{}, rows}, HeadMode::None, false, batched);
  ASSERT_EQ(batched.values.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(batched.values[i],
              static_cast<double>(oracle.classify_text(rows[i])))
        << "row " << i;
  }
}

TEST(ServerTest, ReaderFormatMustMatchThePipelineInputMode) {
  // Text pipeline + numeric reader (and vice versa) is a configuration
  // error, rejected before any row is consumed.
  const auto text = MappedSnapshot::open(text_snapshot());
  const Server text_server(Pipeline::restore(text), {});
  std::istringstream in("1,2,3\n");
  std::ostringstream out;
  RowReader csv_reader(in, 3, RowFormat::Csv);
  PredictionWriter writer(out, OutputFormat::Plain);
  EXPECT_THROW((void)text_server.run(csv_reader, writer),
               std::invalid_argument);

  const auto beijing = MappedSnapshot::open(beijing_snapshot());
  const Server numeric_server(Pipeline::restore(beijing), {});
  RowReader text_reader(in, 0, RowFormat::Text);
  EXPECT_THROW((void)numeric_server.run(text_reader, writer),
               std::invalid_argument);
  const std::vector<std::string> text_rows{"abc"};
  Predictions batched;
  EXPECT_THROW(numeric_server.plane().predict({{}, text_rows},
                                              HeadMode::None, false, batched),
               std::logic_error);
}

TEST(ServerTest, ConfidenceHeadMatchesPerRowTop2) {
  const auto snapshot = MappedSnapshot::open(text_snapshot());
  const Pipeline oracle = Pipeline::restore(snapshot);
  const std::vector<std::string> rows = {"lo vo miri", "zu ka pelo tir",
                                         "anda vestri olm", "zzz"};
  std::string input;
  std::string expected;
  {
    std::ostringstream expect_out;
    PredictionWriter expect_writer(expect_out, OutputFormat::Plain,
                                   /*with_latency=*/false,
                                   hdc::serve::HeadMode::Confidence);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      input += rows[i] + "\n";
      const hdc::Top2 top =
          oracle.classifier().predict_top2(oracle.encode_text(rows[i]));
      expect_writer.write_class(i, top.best.index,
                                hdc::margin_confidence(top), 0.0);
    }
    expected = expect_out.str();
  }
  ServerOptions options;
  options.batch_size = 3;
  const Server server(Pipeline::restore(snapshot), options);
  std::istringstream in(input);
  std::ostringstream out;
  RowReader reader(in, 0, RowFormat::Text);
  PredictionWriter writer(out, OutputFormat::Plain, /*with_latency=*/false,
                          hdc::serve::HeadMode::Confidence);
  (void)server.run(reader, writer);
  EXPECT_EQ(out.str(), expected);
}

TEST(ServerTest, BandHeadMatchesPerRowPredictBand) {
  const auto snapshot = MappedSnapshot::open(beijing_snapshot());
  const Pipeline oracle = Pipeline::restore(snapshot);
  const auto rows = beijing_rows(11);
  std::string expected;
  {
    std::ostringstream expect_out;
    PredictionWriter expect_writer(expect_out, OutputFormat::Plain,
                                   /*with_latency=*/false,
                                   hdc::serve::HeadMode::Band);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const hdc::Hypervector encoded = oracle.encode(rows[i]);
      expect_writer.write_band(i, oracle.regressor().predict(encoded),
                               oracle.regressor().predict_band(encoded),
                               0.0);
    }
    expected = expect_out.str();
  }
  ServerOptions options;
  options.batch_size = 4;
  options.num_threads = 2;
  const Server server(Pipeline::restore(snapshot), options);
  std::istringstream in(as_csv(rows));
  std::ostringstream out;
  RowReader reader(in, 3);
  PredictionWriter writer(out, OutputFormat::Plain, /*with_latency=*/false,
                          hdc::serve::HeadMode::Band);
  (void)server.run(reader, writer);
  EXPECT_EQ(out.str(), expected);
}

TEST(ServerTest, HeadModeMustMatchThePipelineKind) {
  // Confidence is a classifier head, Band a regressor head; a mismatch is
  // rejected before any row is consumed.
  const auto beijing = MappedSnapshot::open(beijing_snapshot());
  const Server regressor_server(Pipeline::restore(beijing), {});
  std::istringstream in("1,2,3\n");
  std::ostringstream out;
  RowReader reader(in, 3);
  PredictionWriter confidence(out, OutputFormat::Plain,
                              /*with_latency=*/false,
                              hdc::serve::HeadMode::Confidence);
  EXPECT_THROW((void)regressor_server.run(reader, confidence),
               std::invalid_argument);

  const auto text = MappedSnapshot::open(text_snapshot());
  const Server classifier_server(Pipeline::restore(text), {});
  RowReader text_reader(in, 0, RowFormat::Text);
  PredictionWriter band(out, OutputFormat::Plain, /*with_latency=*/false,
                        hdc::serve::HeadMode::Band);
  EXPECT_THROW((void)classifier_server.run(text_reader, band),
               std::invalid_argument);
}

TEST(ServerTest, CsvAndJsonlOutputCarryRowIndexAndLatency) {
  const auto snapshot = MappedSnapshot::open(beijing_snapshot());
  const Server server(Pipeline::restore(snapshot), {});
  const std::string csv = as_csv(beijing_rows(3));
  {
    std::istringstream in(csv);
    std::ostringstream out;
    RowReader reader(in, 3);
    PredictionWriter writer(out, OutputFormat::Csv, /*with_latency=*/true);
    (void)server.run(reader, writer);
    const std::string text = out.str();
    EXPECT_NE(text.find("row,prediction,latency_us\n"), std::string::npos);
    EXPECT_NE(text.find("\n0,"), std::string::npos);
    EXPECT_NE(text.find("\n2,"), std::string::npos);
  }
  {
    std::istringstream in(csv);
    std::ostringstream out;
    RowReader reader(in, 3);
    PredictionWriter writer(out, OutputFormat::Jsonl);
    (void)server.run(reader, writer);
    EXPECT_NE(out.str().find("{\"row\": 0, \"prediction\": "),
              std::string::npos);
  }
}

/// A streambuf that hands out its content line by line, sleeping before
/// every line after the first — a stalling producer whose inter-row gap
/// provably exceeds any flush interval below the sleep.
class SlowLineBuf : public std::streambuf {
 public:
  SlowLineBuf(const std::string& text, std::chrono::microseconds gap)
      : gap_(gap) {
    std::size_t begin = 0;
    while (begin < text.size()) {
      std::size_t end = text.find('\n', begin);
      end = end == std::string::npos ? text.size() : end + 1;
      lines_.push_back(text.substr(begin, end - begin));
      begin = end;
    }
  }

 protected:
  int_type underflow() override {
    if (next_ >= lines_.size()) {
      return traits_type::eof();
    }
    if (next_ > 0) {
      std::this_thread::sleep_for(gap_);
    }
    std::string& line = lines_[next_++];
    setg(line.data(), line.data(), line.data() + line.size());
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::vector<std::string> lines_;
  std::chrono::microseconds gap_;
  std::size_t next_ = 0;
};

TEST(ServerTest, FlushIntervalFlushesPartialBatches) {
  const auto snapshot = MappedSnapshot::open(beijing_snapshot());
  ServerOptions options;
  options.batch_size = 1024;  // never fills from 5 rows...
  options.flush_interval = std::chrono::microseconds(200);  // ...the timer does
  const Server server(Pipeline::restore(snapshot), options);
  // Each inter-row gap sleeps well past the flush interval, so the timer
  // check after every second admission is *guaranteed* to have expired
  // (sleep_for never returns early on a steady clock): rows pair up as
  // {0,1}, {2,3} with row 4 flushed by end-of-stream — at least 3 batches,
  // always (scheduler preemption can only add flushes, never merge them).
  SlowLineBuf buf(as_csv(beijing_rows(5)), std::chrono::milliseconds(2));
  std::istream in(&buf);
  std::ostringstream out;
  RowReader reader(in, 3);
  PredictionWriter writer(out, OutputFormat::Plain);
  const Server::Stats stats = server.run(reader, writer);
  EXPECT_EQ(stats.rows, 5U);
  EXPECT_GE(stats.batches, 3U);
  EXPECT_LE(stats.batches, 5U);
}

TEST(ServerTest, PausedProducerNeverPinsAdmittedRows) {
  // Regression for the serve-loop latency bug: the flush timer used to be
  // evaluated only after reader.next() returned another row, so a row
  // admitted right before the producer paused sat in the partial batch for
  // the whole pause (unbounded, not flush_interval).  The loop now flushes
  // pending rows before any read that may block.  With SlowLineBuf the
  // stream's buffer is provably empty after every admitted row, so each of
  // the 5 rows must be flushed as its own batch *before* the next
  // inter-row sleep — deterministically, whatever the scheduler does.
  const auto snapshot = MappedSnapshot::open(beijing_snapshot());
  ServerOptions options;
  options.batch_size = 1024;
  options.flush_interval = std::chrono::milliseconds(60'000);  // huge
  const Server server(Pipeline::restore(snapshot), options);
  SlowLineBuf buf(as_csv(beijing_rows(5)), std::chrono::milliseconds(1));
  std::istream in(&buf);
  std::ostringstream out;
  RowReader reader(in, 3);
  PredictionWriter writer(out, OutputFormat::Plain);
  const Server::Stats stats = server.run(reader, writer);
  EXPECT_EQ(stats.rows, 5U);
  // The huge interval proves the flush came from the may-block guard, not
  // the deadline: the old loop would have served all 5 rows in one batch
  // at end of stream.
  EXPECT_EQ(stats.batches, 5U);
}

TEST(ServerTest, ZeroFlushIntervalDisablesTheTimer) {
  const auto snapshot = MappedSnapshot::open(beijing_snapshot());
  ServerOptions options;
  options.batch_size = 1024;
  options.flush_interval = std::chrono::microseconds(0);
  const Server server(Pipeline::restore(snapshot), options);
  SlowLineBuf buf(as_csv(beijing_rows(5)), std::chrono::milliseconds(1));
  std::istream in(&buf);
  std::ostringstream out;
  RowReader reader(in, 3);
  PredictionWriter writer(out, OutputFormat::Plain);
  const Server::Stats stats = server.run(reader, writer);
  EXPECT_EQ(stats.rows, 5U);
  EXPECT_EQ(stats.batches, 1U);  // full/EOF flushes only
}

TEST(ServerTest, MalformedRowServesEarlierRowsThenThrows) {
  const auto snapshot = MappedSnapshot::open(beijing_snapshot());
  const Pipeline pipeline = Pipeline::restore(snapshot);
  const Server server(pipeline, {});
  std::istringstream in("0,15,3\n1,180,12\nbroken row\n4,300,23\n");
  std::ostringstream out;
  RowReader reader(in, 3);
  PredictionWriter writer(out, OutputFormat::Plain);
  EXPECT_THROW((void)server.run(reader, writer), hdc::serve::RowError);
  // Both rows before the bad one were predicted and flushed.
  std::ostringstream expected;
  {
    PredictionWriter oracle(expected, OutputFormat::Plain);
    oracle.write(0, pipeline.regress(std::vector<double>{0, 15, 3}), 0.0);
    oracle.write(1, pipeline.regress(std::vector<double>{1, 180, 12}), 0.0);
  }
  EXPECT_EQ(out.str(), expected.str());
}

TEST(ServerTest, StdinLinesAreBoundedLikeSocketLines) {
  // A line of exactly kMaxLineBytes bytes is a row like any other; one
  // byte more is rejected as a malformed row after the rows before it are
  // answered, and the reader never buffers the whole over-long line.
  static_assert(hdc::serve::kMaxLineBytes == 1'048'576);
  const auto snapshot = MappedSnapshot::open(text_snapshot());
  const Pipeline oracle = Pipeline::restore(snapshot);
  const std::string longest(hdc::serve::kMaxLineBytes, 'a');
  {
    const Server server(Pipeline::restore(snapshot), {});
    std::istringstream in("lo vo miri\n" + longest + "\ntir tir\n");
    std::ostringstream out;
    RowReader reader(in, 0, RowFormat::Text);
    PredictionWriter writer(out, OutputFormat::Plain);
    EXPECT_EQ(server.run(reader, writer).rows, 3U);
    EXPECT_EQ(out.str(), std::to_string(oracle.classify_text("lo vo miri")) +
                             "\n" +
                             std::to_string(oracle.classify_text(longest)) +
                             "\n" +
                             std::to_string(oracle.classify_text("tir tir")) +
                             "\n");
  }
  const Server server(Pipeline::restore(snapshot), {});
  std::istringstream in("lo vo miri\n" + longest + "b\ntir tir\n");
  std::ostringstream out;
  RowReader reader(in, 0, RowFormat::Text);
  PredictionWriter writer(out, OutputFormat::Plain);
  try {
    (void)server.run(reader, writer);
    ADD_FAILURE() << "an over-long line must be rejected";
  } catch (const hdc::serve::RowError& e) {
    EXPECT_STREQ(e.what(), "row 2: line exceeds 1048576 bytes");
  }
  EXPECT_EQ(out.str(),
            std::to_string(oracle.classify_text("lo vo miri")) + "\n");

  // Numeric rows share the bound, unterminated last line included.
  std::istringstream numeric("1,2,3\n" + std::string(1'048'577, ' '));
  RowReader csv(numeric, 3);
  std::vector<double> row;
  EXPECT_TRUE(csv.next(row));
  EXPECT_THROW((void)csv.next(row), hdc::serve::RowError);
}

TEST(ServerTest, RejectsArityMismatchAndZeroBatch) {
  const auto snapshot = MappedSnapshot::open(beijing_snapshot());
  const Pipeline pipeline = Pipeline::restore(snapshot);
  ServerOptions zero;
  zero.batch_size = 0;
  EXPECT_THROW(Server(pipeline, zero), std::invalid_argument);

  const Server server(pipeline, {});
  std::istringstream in("1,2\n");
  std::ostringstream out;
  RowReader reader(in, 2);  // pipeline takes 3 features
  PredictionWriter writer(out, OutputFormat::Plain);
  EXPECT_THROW((void)server.run(reader, writer), std::invalid_argument);
}

TEST(ServerTest, OutputFormatNamesParse) {
  EXPECT_EQ(hdc::serve::parse_output_format("plain"), OutputFormat::Plain);
  EXPECT_EQ(hdc::serve::parse_output_format("csv"), OutputFormat::Csv);
  EXPECT_EQ(hdc::serve::parse_output_format("jsonl"), OutputFormat::Jsonl);
  EXPECT_THROW((void)hdc::serve::parse_output_format("yaml"),
               std::invalid_argument);
}

}  // namespace
