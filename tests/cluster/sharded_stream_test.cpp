// The stdin stream loop over the cluster plane: `hdcgen serve --replicas`
// runs the same BatchLoop as one process, so the bounded-staleness flush
// (a paused producer never pins admitted rows) and the per-row latency
// column hold under sharding exactly as they do locally.

#include <gtest/gtest.h>

#include <chrono>
#include <istream>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "cluster_test_util.hpp"
#include "hdc/cluster/cluster.hpp"
#include "hdc/serve/serve.hpp"

namespace {

namespace testutil = hdc::cluster::testutil;

/// A streambuf that hands out its content line by line, sleeping before
/// every line after the first: a stalling producer whose buffer is
/// provably empty after every line.
class SlowLineBuf : public std::streambuf {
 public:
  SlowLineBuf(const std::string& text, std::chrono::microseconds gap)
      : gap_(gap) {
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      lines_.push_back(line + "\n");
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

TEST(ShardedStreamTest, PausedProducerFlushesEveryRowWithRealLatency) {
  const std::string path =
      testutil::write_beijing_snapshot("stream_paused.hdcs", 2023);
  const auto rows = testutil::beijing_rows(5);
  const auto golden = testutil::oracle(path, rows);
  std::ostringstream csv;
  for (const auto& row : rows) {
    csv << row[0] << ',' << row[1] << ',' << row[2] << '\n';
  }

  hdc::cluster::ClusterOptions cluster;
  cluster.replicas = 2;
  cluster.backend = hdc::cluster::CommBackend::Loopback;
  hdc::cluster::ShardedServer sharded(path, cluster);
  hdc::serve::ServerOptions options;
  options.batch_size = 1024;
  options.flush_interval = std::chrono::milliseconds(60'000);  // huge
  SlowLineBuf buf(csv.str(), std::chrono::milliseconds(1));
  std::istream in(&buf);
  std::ostringstream out;
  hdc::serve::RowReader reader(in, 3);
  hdc::serve::PredictionWriter writer(out, hdc::serve::OutputFormat::Csv,
                                      /*with_latency=*/true);
  const hdc::serve::Server::Stats stats =
      hdc::serve::Server(sharded, options).run(reader, writer);
  EXPECT_EQ(stats.rows, 5U);
  // As in one process, every row is flushed by the may-block guard before
  // the next inter-row sleep, not at end of stream.
  EXPECT_EQ(stats.batches, 5U);

  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "row,prediction,latency_us");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(std::getline(lines, line)) << "row " << i;
    const std::size_t first = line.find(',');
    const std::size_t last = line.rfind(',');
    ASSERT_NE(first, last) << line;
    EXPECT_EQ(line.substr(0, first), std::to_string(i));
    EXPECT_EQ(std::stod(line.substr(first + 1, last - first - 1)), golden[i])
        << line;
    EXPECT_GT(std::stod(line.substr(last + 1)), 0.0) << line;
  }
  EXPECT_FALSE(std::getline(lines, line));
}

}  // namespace
