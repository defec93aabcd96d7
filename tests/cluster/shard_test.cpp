// Unit layer of the cluster suite: the varstart/varend ownership math that
// both sharding schemes reduce to, the scheme/backend parsers, the framed
// request protocol codecs, and the Worker dispatcher's contract (error
// responses instead of exceptions, counters, reload generation bumps, the
// empty-slice sentinel under class sharding).

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster_test_util.hpp"
#include "hdc/cluster/cluster.hpp"

namespace {

using hdc::cluster::ClusterError;
using hdc::cluster::CommBackend;
using hdc::cluster::ShardScheme;
using hdc::cluster::Worker;
using hdc::cluster::WorkerOp;
using hdc::cluster::kNoCandidate;
using hdc::cluster::kWorkerErr;
using hdc::cluster::kWorkerOk;
using hdc::cluster::shard_begin;
using hdc::cluster::shard_end;
namespace testutil = hdc::cluster::testutil;

TEST(ShardMathTest, SlicesCoverDisjointlyAndStayBalanced) {
  for (const std::size_t count : {0u, 1u, 4u, 5u, 12u, 97u, 256u}) {
    for (const std::size_t size : {1u, 2u, 3u, 5u, 7u, 13u}) {
      std::size_t covered = 0;
      std::size_t previous_end = 0;
      std::size_t smallest = count + 1;
      std::size_t largest = 0;
      for (std::size_t rank = 0; rank < size; ++rank) {
        const std::size_t begin = shard_begin(rank, size, count);
        const std::size_t end = shard_end(rank, size, count);
        ASSERT_LE(begin, end) << "rank " << rank;
        // Contiguous in rank order: no gap, no overlap.
        ASSERT_EQ(begin, previous_end)
            << "count " << count << " size " << size << " rank " << rank;
        previous_end = end;
        covered += end - begin;
        smallest = std::min(smallest, end - begin);
        largest = std::max(largest, end - begin);
      }
      EXPECT_EQ(previous_end, count);
      EXPECT_EQ(covered, count);
      // Balanced: slice sizes differ by at most one item.
      EXPECT_LE(largest - smallest, 1u)
          << "count " << count << " size " << size;
    }
  }
}

TEST(ShardMathTest, FirstRanksAbsorbTheRemainder) {
  // 10 items over 4 ranks: 3, 3, 2, 2.
  EXPECT_EQ(shard_end(0, 4, 10) - shard_begin(0, 4, 10), 3u);
  EXPECT_EQ(shard_end(1, 4, 10) - shard_begin(1, 4, 10), 3u);
  EXPECT_EQ(shard_end(2, 4, 10) - shard_begin(2, 4, 10), 2u);
  EXPECT_EQ(shard_end(3, 4, 10) - shard_begin(3, 4, 10), 2u);
  // More ranks than items: trailing slices are empty, leading get one each.
  EXPECT_EQ(shard_end(0, 7, 3) - shard_begin(0, 7, 3), 1u);
  EXPECT_EQ(shard_end(2, 7, 3) - shard_begin(2, 7, 3), 1u);
  EXPECT_EQ(shard_end(3, 7, 3), shard_begin(3, 7, 3));
  EXPECT_EQ(shard_end(6, 7, 3), shard_begin(6, 7, 3));
}

TEST(ShardParseTest, RoundTripsAndRejects) {
  EXPECT_EQ(hdc::cluster::parse_shard_scheme("rows"), ShardScheme::Rows);
  EXPECT_EQ(hdc::cluster::parse_shard_scheme("classes"),
            ShardScheme::Classes);
  EXPECT_STREQ(hdc::cluster::to_string(ShardScheme::Rows), "rows");
  EXPECT_STREQ(hdc::cluster::to_string(ShardScheme::Classes), "classes");
  EXPECT_THROW((void)hdc::cluster::parse_shard_scheme("columns"),
               std::invalid_argument);

  EXPECT_EQ(hdc::cluster::parse_comm_backend("loopback"),
            CommBackend::Loopback);
  EXPECT_EQ(hdc::cluster::parse_comm_backend("fork"), CommBackend::Fork);
  EXPECT_STREQ(hdc::cluster::to_string(CommBackend::Loopback), "loopback");
  EXPECT_STREQ(hdc::cluster::to_string(CommBackend::Fork), "fork");
  EXPECT_THROW((void)hdc::cluster::parse_comm_backend("mpi"),
               std::invalid_argument);
}

TEST(ProtocolTest, FieldCodecsRoundTrip) {
  std::string buf;
  hdc::cluster::put_u64(buf, 0);
  hdc::cluster::put_u64(buf, ~std::uint64_t{0});
  hdc::cluster::put_f64(buf, -273.15);
  EXPECT_EQ(hdc::cluster::get_u64(buf, 0), 0u);
  EXPECT_EQ(hdc::cluster::get_u64(buf, 8), ~std::uint64_t{0});
  EXPECT_EQ(hdc::cluster::get_f64(buf, 16), -273.15);
  EXPECT_THROW((void)hdc::cluster::get_u64(buf, 17), std::out_of_range);
  EXPECT_THROW((void)hdc::cluster::get_f64(buf, 24), std::out_of_range);
}

TEST(ProtocolTest, PredictRequestLayout) {
  const double rows[] = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const std::string req =
      hdc::cluster::encode_predict2_request(rows, 2, 3, false);
  ASSERT_EQ(req.size(), 1 + 1 + 8 + 8 + 6 * 8);
  EXPECT_EQ(static_cast<WorkerOp>(req[0]), WorkerOp::Predict2);
  EXPECT_EQ(req[1], 0);  // Flags: numeric rows, no head.
  EXPECT_EQ(hdc::cluster::get_u64(req, 2), 2u);
  EXPECT_EQ(hdc::cluster::get_u64(req, 10), 3u);
  EXPECT_EQ(hdc::cluster::get_f64(req, 18), 1.0);
  EXPECT_EQ(hdc::cluster::get_f64(req, 18 + 5 * 8), 6.0);
  // Zero rows is a legal request (a rank can own an empty slice).
  EXPECT_EQ(hdc::cluster::encode_predict2_request(nullptr, 0, 3, false).size(),
            std::size_t{18});
}

TEST(ProtocolTest, AdaptRequestLayout) {
  const double features[] = {1.0, 2.0, 3.0};
  const std::string numeric =
      hdc::cluster::encode_adapt_request(4.0, features, 3);
  ASSERT_EQ(numeric.size(), 1 + 1 + 8 + 8 + 3 * 8);
  EXPECT_EQ(static_cast<WorkerOp>(numeric[0]), WorkerOp::Adapt);
  EXPECT_EQ(numeric[1], 0);  // Flags: numeric row.
  EXPECT_EQ(hdc::cluster::get_f64(numeric, 2), 4.0);
  EXPECT_EQ(hdc::cluster::get_u64(numeric, 10), 3u);
  EXPECT_EQ(hdc::cluster::get_f64(numeric, 18 + 2 * 8), 3.0);
  const std::string text = hdc::cluster::encode_adapt_request(1.0, "hola");
  ASSERT_EQ(text.size(), 1 + 1 + 8 + 8 + 4);
  EXPECT_EQ(static_cast<WorkerOp>(text[0]), WorkerOp::Adapt);
  EXPECT_EQ(text[1], static_cast<char>(hdc::cluster::kPredictFlagText));
  EXPECT_EQ(hdc::cluster::get_u64(text, 10), 4u);
  EXPECT_EQ(text.substr(18), "hola");
}

TEST(WorkerTest, ConfigValidation) {
  const std::string path =
      testutil::write_beijing_snapshot("worker_cfg.hdcs", 2023);
  Worker::Config cfg;
  cfg.snapshot_path = path;
  cfg.replicas = 0;
  EXPECT_THROW(Worker{cfg}, std::invalid_argument);
  cfg.replicas = 2;
  cfg.rank = 2;
  EXPECT_THROW(Worker{cfg}, std::invalid_argument);
  cfg.rank = 1;
  EXPECT_NO_THROW(Worker{cfg});
  cfg.snapshot_path = path + ".missing";
  cfg.rank = 0;
  EXPECT_THROW(Worker{cfg}, hdc::io::SnapshotError);
}

TEST(WorkerTest, DispatcherAnswersEveryOpcodeWithoutThrowing) {
  const std::string path =
      testutil::write_beijing_snapshot("worker_ops.hdcs", 2023);
  Worker::Config cfg;
  cfg.snapshot_path = path;
  cfg.rank = 1;
  cfg.replicas = 3;
  Worker worker{cfg};

  const std::string pong = worker.handle(hdc::cluster::encode_ping_request());
  ASSERT_GE(pong.size(), std::size_t{9});
  EXPECT_EQ(static_cast<std::uint8_t>(pong[0]), kWorkerOk);
  EXPECT_EQ(hdc::cluster::get_u64(pong, 1), 1u);

  // Malformed traffic becomes an error response, never an exception.
  const std::string empty = worker.handle("");
  ASSERT_FALSE(empty.empty());
  EXPECT_EQ(static_cast<std::uint8_t>(empty[0]), kWorkerErr);
  const std::string unknown = worker.handle(std::string(1, '\x7f'));
  EXPECT_EQ(static_cast<std::uint8_t>(unknown[0]), kWorkerErr);
  const std::string arity = worker.handle(
      hdc::cluster::encode_predict2_request(nullptr, 0, 99, false));
  EXPECT_EQ(static_cast<std::uint8_t>(arity[0]), kWorkerErr);
  EXPECT_NE(std::string(arity.substr(1)).find("arity"), std::string::npos);
  std::string truncated =
      hdc::cluster::encode_predict2_request(nullptr, 0, 3, false);
  hdc::cluster::put_u64(truncated, 5);  // Trailing garbage: size mismatch.
  EXPECT_EQ(static_cast<std::uint8_t>(worker.handle(truncated)[0]),
            kWorkerErr);
  // A text adapt frame cannot feed a numeric pipeline.
  EXPECT_EQ(static_cast<std::uint8_t>(
                worker.handle(hdc::cluster::encode_adapt_request(1.0, "a"))[0]),
            kWorkerErr);

  // A good predict bumps the counters the stats response reports.
  const auto rows = testutil::beijing_rows(4);
  std::vector<double> flat;
  for (const auto& row : rows) {
    flat.insert(flat.end(), row.begin(), row.end());
  }
  const std::string ok = worker.handle(
      hdc::cluster::encode_predict2_request(flat.data(), rows.size(), 3,
                                            false));
  ASSERT_EQ(static_cast<std::uint8_t>(ok[0]), kWorkerOk);
  EXPECT_EQ(hdc::cluster::get_u64(ok, 1), 1u);  // generation
  EXPECT_EQ(hdc::cluster::get_u64(ok, 9), rows.size());

  const std::string stats =
      worker.handle(hdc::cluster::encode_stats_request());
  ASSERT_EQ(static_cast<std::uint8_t>(stats[0]), kWorkerOk);
  EXPECT_EQ(hdc::cluster::get_u64(stats, 1), 1u);   // rank
  EXPECT_EQ(hdc::cluster::get_u64(stats, 9), 1u);   // generation
  EXPECT_EQ(hdc::cluster::get_u64(stats, 17), 4u);  // rows
  EXPECT_EQ(hdc::cluster::get_u64(stats, 25), 1u);  // batches

  EXPECT_FALSE(worker.shutdown_requested());
  const std::string bye =
      worker.handle(hdc::cluster::encode_shutdown_request());
  EXPECT_EQ(static_cast<std::uint8_t>(bye[0]), kWorkerOk);
  EXPECT_TRUE(worker.shutdown_requested());
}

TEST(WorkerTest, ReloadBumpsGenerationAndRejectsBadSnapshots) {
  const std::string a = testutil::write_beijing_snapshot("worker_a.hdcs", 1);
  const std::string b = testutil::write_beijing_snapshot("worker_b.hdcs", 2);
  Worker::Config cfg;
  cfg.snapshot_path = a;
  Worker worker{cfg};
  EXPECT_EQ(worker.generation(), 1u);

  const std::string swapped =
      worker.handle(hdc::cluster::encode_reload_request(b));
  ASSERT_EQ(static_cast<std::uint8_t>(swapped[0]), kWorkerOk);
  EXPECT_EQ(hdc::cluster::get_u64(swapped, 1), 2u);
  EXPECT_EQ(worker.generation(), 2u);
  EXPECT_EQ(worker.source_path(), b);

  // "" re-reads the active source; the path must not regress to a.
  const std::string again =
      worker.handle(hdc::cluster::encode_reload_request(""));
  ASSERT_EQ(static_cast<std::uint8_t>(again[0]), kWorkerOk);
  EXPECT_EQ(worker.generation(), 3u);
  EXPECT_EQ(worker.source_path(), b);

  // A missing replacement is an error response; the incumbent keeps serving.
  const std::string rejected = worker.handle(
      hdc::cluster::encode_reload_request(b + ".missing"));
  EXPECT_EQ(static_cast<std::uint8_t>(rejected[0]), kWorkerErr);
  EXPECT_EQ(worker.generation(), 3u);
  const auto rows = testutil::beijing_rows(2);
  std::vector<double> flat;
  for (const auto& row : rows) {
    flat.insert(flat.end(), row.begin(), row.end());
  }
  EXPECT_EQ(static_cast<std::uint8_t>(
                worker.handle(hdc::cluster::encode_predict2_request(
                    flat.data(), rows.size(), 3, false))[0]),
            kWorkerOk);
}

TEST(WorkerTest, EmptyClassSliceReportsTheSentinel) {
  // 3 classes over 7 ranks: ranks 3..6 own nothing and must answer every
  // row with the kNoCandidate pair (which never wins a reduce).
  const std::string path =
      testutil::write_jigsaws_snapshot("worker_sentinel.hdcs", 2023);
  Worker::Config cfg;
  cfg.snapshot_path = path;
  cfg.rank = 5;
  cfg.replicas = 7;
  cfg.scheme = ShardScheme::Classes;
  Worker worker{cfg};

  const auto rows = testutil::classifier_rows(3);
  std::vector<double> flat;
  for (const auto& row : rows) {
    flat.insert(flat.end(), row.begin(), row.end());
  }
  const std::string response = worker.handle(
      hdc::cluster::encode_predict2_request(flat.data(), rows.size(), 4,
                                            false));
  ASSERT_EQ(static_cast<std::uint8_t>(response[0]), kWorkerOk);
  ASSERT_EQ(response.size(), 17 + rows.size() * 16);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(hdc::cluster::get_u64(response, 17 + i * 16), kNoCandidate);
    EXPECT_EQ(hdc::cluster::get_u64(response, 17 + i * 16 + 8),
              kNoCandidate);
  }
}

}  // namespace
