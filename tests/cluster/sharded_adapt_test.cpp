// Online adaptation x sharding: `!adapt` feedback is broadcast to every
// rank, each publishes a deterministically-seeded rank-local adapted model,
// and the whole cluster must stay bit-identical to one single-process
// AdaptiveState fed the same stream — outcomes, predictions in every head
// mode and shard scheme, the exported delta file, and the delta-reload path
// that promotes the adapted model.

#ifndef _WIN32

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cluster_test_util.hpp"
#include "hdc/cluster/cluster.hpp"
#include "hdc/serve/adaptive_state.hpp"
#include "hdc/serve/local_plane.hpp"

namespace {

using hdc::cluster::ClusterOptions;
using hdc::cluster::CommBackend;
using hdc::cluster::ShardedServer;
using hdc::cluster::ShardScheme;
using hdc::serve::AdaptiveState;
using hdc::serve::AdaptOutcome;
using hdc::serve::ServingState;
namespace testutil = hdc::cluster::testutil;

ClusterOptions fork_pair(ShardScheme scheme) {
  ClusterOptions options;
  options.replicas = 2;
  options.scheme = scheme;
  options.backend = CommBackend::Fork;
  return options;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// A single-process AdaptiveState over the same snapshot: the default seed
/// is exactly what every rank uses, so this is the cluster's oracle.
AdaptiveState make_local_overlay(const std::string& snapshot_path) {
  return AdaptiveState(std::make_shared<const ServingState>(
      hdc::io::load_pipeline(snapshot_path), 0, snapshot_path));
}

/// The poisoning stream both sides replay: every probe row repeatedly
/// claimed to belong to the next class over.
std::vector<std::pair<double, std::vector<double>>> feedback_stream(
    const std::string& snapshot_path,
    const std::vector<std::vector<double>>& rows, std::size_t passes) {
  const auto snapshot = hdc::io::MappedSnapshot::open(snapshot_path);
  const hdc::io::Pipeline pipeline = hdc::io::Pipeline::restore(snapshot);
  std::vector<std::pair<double, std::vector<double>>> stream;
  stream.reserve(passes * rows.size());
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (const auto& row : rows) {
      stream.emplace_back(
          static_cast<double>((pipeline.classify(row) + 1) % 3), row);
    }
  }
  return stream;
}

TEST(ShardedAdaptTest, BroadcastFeedbackMatchesSingleProcessOverlay) {
  const std::string path =
      testutil::write_jigsaws_snapshot("adapt_parity.hdcs", 1);
  const auto rows = testutil::classifier_rows(12);
  const auto stream = feedback_stream(path, rows, 6);

  for (const ShardScheme scheme :
       {ShardScheme::Rows, ShardScheme::Classes}) {
    SCOPED_TRACE(scheme == ShardScheme::Rows ? "rows" : "classes");
    ShardedServer server(path, fork_pair(scheme));
    AdaptiveState local = make_local_overlay(path);

    for (std::size_t i = 0; i < stream.size(); ++i) {
      const auto& [target, row] = stream[i];
      const AdaptOutcome got = server.adapt(target, row);
      const AdaptOutcome want = local.adapt(row, target);
      ASSERT_EQ(got.predicted, want.predicted) << "sample " << i;
      ASSERT_EQ(got.updated, want.updated) << "sample " << i;
      ASSERT_EQ(got.feedback_rows, want.feedback_rows) << "sample " << i;
      ASSERT_EQ(got.updates, want.updates) << "sample " << i;
      ASSERT_EQ(got.overlay_rows, want.overlay_rows) << "sample " << i;
    }
    EXPECT_GT(local.updates(), 0U);

    // Ranks serve the adapted model as soon as feedback lands: the whole
    // sharded batch equals the single-process overlay bit for bit.
    const auto batch = server.predict(rows);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(batch.predictions[i], local.predict(rows[i]))
          << "row " << i;
    }
  }
}

TEST(ShardedAdaptTest, TextFeedbackMatchesSingleProcessOverlay) {
  // The raw-text twin of the parity test above: adapt_text broadcasts one
  // raw sample, every rank encodes it with its text encoder, and
  // the cluster must stay bit-identical to a single-process AdaptiveState
  // fed the same stream — outcomes, then head-carrying predictions.
  const std::string path =
      testutil::write_text_snapshot("adapt_text_parity.hdcs", 5);
  const std::vector<std::string> rows = testutil::text_rows(10);

  // Poisoning stream: every row repeatedly claimed as the next class over.
  std::vector<std::pair<double, std::string>> stream;
  {
    const auto snapshot = hdc::io::MappedSnapshot::open(path);
    const auto pipeline = hdc::io::Pipeline::restore(snapshot);
    for (std::size_t pass = 0; pass < 6; ++pass) {
      for (const std::string& row : rows) {
        stream.emplace_back(
            static_cast<double>((pipeline.classify_text(row) + 1) % 3),
            row);
      }
    }
  }

  for (const ShardScheme scheme :
       {ShardScheme::Rows, ShardScheme::Classes}) {
    SCOPED_TRACE(scheme == ShardScheme::Rows ? "rows" : "classes");
    ShardedServer server(path, fork_pair(scheme));
    AdaptiveState local = make_local_overlay(path);

    for (std::size_t i = 0; i < stream.size(); ++i) {
      const auto& [target, row] = stream[i];
      const AdaptOutcome got = server.adapt_text(target, row);
      const AdaptOutcome want = local.adapt_text(row, target);
      ASSERT_EQ(got.predicted, want.predicted) << "sample " << i;
      ASSERT_EQ(got.updated, want.updated) << "sample " << i;
      ASSERT_EQ(got.updates, want.updates) << "sample " << i;
      ASSERT_EQ(got.overlay_rows, want.overlay_rows) << "sample " << i;
    }
    EXPECT_GT(local.updates(), 0U);

    // Adapted serving parity for both the plain and the head-carrying
    // batch planes.
    const auto batch = server.predict_text(rows);
    const auto heads = server.predict_text_head(rows);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(batch.predictions[i], local.predict_text(rows[i]))
          << "row " << i;
      const hdc::Top2 top = local.predict_top2_text(rows[i]);
      EXPECT_EQ(heads.values[i], static_cast<double>(top.best.index))
          << "row " << i;
      EXPECT_EQ(heads.confidences[i], hdc::margin_confidence(top))
          << "row " << i;
    }
  }
}

/// Every field of \p p flattened, so whole batches compare with ==.
std::vector<double> flatten(const hdc::serve::Predictions& p) {
  std::vector<double> out = p.values;
  out.insert(out.end(), p.confidences.begin(), p.confidences.end());
  for (const hdc::Band& band : p.bands) {
    out.insert(out.end(), {band.p10, band.p50, band.p90});
  }
  return out;
}

TEST(ShardedAdaptTest, LoopbackRanksServeWhatTheLocalPlanePublishes) {
  // Classifier (numeric and text) and regressor snapshots, each fed a
  // poisoning stream: at 2 and 3 replicas under both schemes, the cluster
  // must answer like the local plane's adapted side in every head mode.
  // Under Classes this composes the published rows across rank slices.
  using hdc::serve::HeadMode;
  using hdc::serve::RowBatch;
  const auto rows = testutil::classifier_rows(12);
  const auto text = testutil::text_rows(12);
  const auto band_rows = testutil::beijing_rows(12);
  struct Case {
    std::string path;
    RowBatch batch;
    std::vector<double> targets;
    HeadMode head;
  };
  std::vector<Case> cases;
  {
    const std::string path =
        testutil::write_jigsaws_snapshot("publish_numeric.hdcs", 3);
    const auto base = hdc::io::load_pipeline(path);
    std::vector<double> targets;
    for (const auto& row : rows) {
      targets.push_back(
          static_cast<double>((base.pipeline.classify(row) + 1) % 3));
    }
    cases.push_back({path, {rows, {}}, targets, HeadMode::Confidence});
  }
  {
    const std::string path =
        testutil::write_text_snapshot("publish_text.hdcs", 3);
    const auto base = hdc::io::load_pipeline(path);
    std::vector<double> targets;
    for (const std::string& row : text) {
      targets.push_back(
          static_cast<double>((base.pipeline.classify_text(row) + 1) % 3));
    }
    cases.push_back({path, {{}, text}, targets, HeadMode::Confidence});
  }
  {
    const std::string path =
        testutil::write_beijing_snapshot("publish_band.hdcs", 3);
    const auto base = hdc::io::load_pipeline(path);
    std::vector<double> targets;
    for (const auto& row : band_rows) {
      targets.push_back(base.pipeline.regress(row) < 10.0 ? 40.0 : -20.0);
    }
    cases.push_back({path, {band_rows, {}}, targets, HeadMode::Band});
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.path);
    for (const ShardScheme scheme :
         {ShardScheme::Rows, ShardScheme::Classes}) {
      for (const std::size_t replicas : {2, 3}) {
        SCOPED_TRACE(std::string(scheme == ShardScheme::Rows ? "rows"
                                                             : "classes") +
                     " x" + std::to_string(replicas));
        ClusterOptions options;
        options.replicas = replicas;
        options.scheme = scheme;
        ShardedServer server(c.path, options);
        hdc::serve::LocalPlane local(
            std::make_shared<const ServingState>(
                hdc::io::load_pipeline(c.path), 0, c.path),
            1);
        std::uint64_t updates = 0;
        for (std::size_t pass = 0; pass < 3; ++pass) {
          for (std::size_t i = 0; i < c.targets.size(); ++i) {
            const RowBatch one =
                c.batch.rows.empty()
                    ? RowBatch{{}, c.batch.text_rows.subspan(i, 1)}
                    : RowBatch{c.batch.rows.subspan(i, 1), {}};
            const AdaptOutcome got = server.adapt(c.targets[i], one);
            const AdaptOutcome want = local.adapt(c.targets[i], one);
            ASSERT_EQ(got.predicted, want.predicted) << "sample " << i;
            ASSERT_EQ(got.updated, want.updated) << "sample " << i;
            ASSERT_EQ(got.overlay_rows, want.overlay_rows) << "sample " << i;
            updates = want.updates;
          }
        }
        EXPECT_GT(updates, 0U);
        for (const HeadMode head : {HeadMode::None, c.head}) {
          hdc::serve::Predictions got;
          hdc::serve::Predictions want;
          server.predict(c.batch, head, false, got);
          local.predict(c.batch, head, /*adapted=*/true, want);
          EXPECT_EQ(flatten(got), flatten(want));
        }
      }
    }
    std::filesystem::remove(c.path);
  }
}

TEST(ShardedAdaptTest, ExportedDeltaIsByteIdenticalAcrossProcessCounts) {
  const std::string path =
      testutil::write_jigsaws_snapshot("adapt_delta.hdcs", 1);
  const auto rows = testutil::classifier_rows(12);
  const auto stream = feedback_stream(path, rows, 6);

  ShardedServer server(path, fork_pair(ShardScheme::Rows));
  AdaptiveState local = make_local_overlay(path);
  for (const auto& [target, row] : stream) {
    (void)server.adapt(target, row);
    (void)local.adapt(row, target);
  }

  // The cluster's gathered delta and the single-process export must be the
  // same file, byte for byte — one artifact, no matter the topology.
  const std::string cluster_delta = testutil::temp_file("cluster.delta");
  const std::string local_delta = testutil::temp_file("local.delta");
  const std::uint64_t exported = server.export_delta(cluster_delta);
  EXPECT_EQ(exported, local.export_delta(path, local_delta));
  EXPECT_EQ(read_file(cluster_delta), read_file(local_delta));
  EXPECT_EQ(server.base_path(), path);

  // Applying it to the base restores the adapted predictions exactly.
  const std::string patched = testutil::temp_file("patched.hdcs");
  hdc::io::apply_delta_file(path, cluster_delta, patched);
  const auto golden = testutil::oracle(patched, rows);
  const auto batch = server.predict(rows);
  EXPECT_EQ(batch.predictions, golden);
}

TEST(ShardedAdaptTest, DeltaReloadSwapsEveryRankToTheAdaptedModel) {
  const std::string path =
      testutil::write_jigsaws_snapshot("adapt_reload.hdcs", 1);
  const auto rows = testutil::classifier_rows(12);
  const auto stream = feedback_stream(path, rows, 6);
  const auto base_golden = testutil::oracle(path, rows);

  ShardedServer server(path, fork_pair(ShardScheme::Classes));
  for (const auto& [target, row] : stream) {
    (void)server.adapt(target, row);
  }
  const std::string delta = testutil::temp_file("reload.delta");
  ASSERT_GT(server.export_delta(delta), 0U);

  // `!reload DELTA` cluster-wide: the patched model becomes the new
  // generation on every rank; the base path stays pinned so later deltas
  // keep applying against the same full snapshot.
  const std::string patched = testutil::temp_file("reload_patched.hdcs");
  hdc::io::apply_delta_file(path, delta, patched);
  const auto adapted_golden = testutil::oracle(patched, rows);
  ASSERT_NE(adapted_golden, base_golden);

  EXPECT_EQ(server.reload(delta), 2U);
  EXPECT_EQ(server.base_path(), path);
  auto batch = server.predict(rows);
  EXPECT_EQ(batch.generation, 2U);
  EXPECT_EQ(batch.predictions, adapted_golden);

  // Reloading the full base again returns to the original predictions.
  EXPECT_EQ(server.reload(path), 3U);
  batch = server.predict(rows);
  EXPECT_EQ(batch.predictions, base_golden);
}

TEST(ShardedAdaptTest, RejectedFeedbackLeavesTheClusterServing) {
  const std::string path =
      testutil::write_jigsaws_snapshot("adapt_reject.hdcs", 1);
  const auto rows = testutil::classifier_rows(6);
  const auto golden = testutil::oracle(path, rows);

  ShardedServer server(path, fork_pair(ShardScheme::Rows));
  // Arity gate fires locally, before any broadcast.
  EXPECT_THROW((void)server.adapt(0.0, std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
  // A non-integral label is rejected rank-side; the error surfaces and no
  // overlay row appears anywhere.
  EXPECT_THROW((void)server.adapt(1.5, rows[0]), std::exception);
  const std::string delta = testutil::temp_file("reject.delta");
  EXPECT_THROW((void)server.export_delta(delta), std::runtime_error);

  const auto batch = server.predict(rows);
  EXPECT_EQ(batch.predictions, golden);
}

}  // namespace

#endif  // !_WIN32
