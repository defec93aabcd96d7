// A crafted label-grid tie: the unbound query sits exactly half-way between
// two adjacent label rows, nearer to both than to any other.  The one-sweep
// band head decodes from the profile's argmin, so every path that answers a
// row — the per-row routine, the local plane and the Rows-sharded cluster —
// must keep the lower row, as HDRegressor::predict's cleanup does, and
// report the band predict_band() reads from the same profile.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cluster_test_util.hpp"
#include "hdc/cluster/cluster.hpp"
#include "hdc/core/basis_level.hpp"
#include "hdc/core/basis_random.hpp"
#include "hdc/core/ops.hpp"
#include "hdc/serve/local_plane.hpp"

namespace hdc::cluster {
namespace {

constexpr std::size_t kDim = 1'000;
constexpr std::size_t kLevels = 8;
constexpr double kTieFeature = 1.0;

/// A one-feature regressor whose query for kTieFeature unbinds to a point
/// equidistant from label rows `lower` and `lower + 1` (and strictly
/// farther from every other row).
struct TiedModel {
  std::shared_ptr<const ScalarEncoder> input;
  std::shared_ptr<const ScalarEncoder> labels;
  std::shared_ptr<const HDRegressor> model;
  std::size_t lower = 0;
};

TiedModel make_tied_model() {
  LevelBasisConfig level;
  level.dimension = kDim;
  level.size = kLevels;
  level.seed = 11;
  auto labels = std::make_shared<const LinearScalarEncoder>(
      make_level_basis(level), 0.0, static_cast<double>(kLevels - 1));
  RandomBasisConfig random;
  random.dimension = kDim;
  random.size = 4;
  random.seed = 12;
  auto input = std::make_shared<const LinearScalarEncoder>(
      make_random_basis(random), 0.0, 3.0);

  const Basis& grid = labels->basis();
  for (std::size_t lower = 0; lower + 1 < grid.size(); ++lower) {
    // Walk half of the bits that separate the two rows, from the lower one.
    const Hypervector gap = grid[lower] ^ grid[lower + 1];
    const std::size_t apart = gap.count_ones();
    if (apart == 0 || apart % 2 != 0) {
      continue;
    }
    Hypervector tied(grid[lower]);
    for (std::size_t bit = 0, flipped = 0; flipped < apart / 2; ++bit) {
      if (gap.bit(bit)) {
        tied.flip_bit(bit);
        ++flipped;
      }
    }
    bool strict = true;
    for (std::size_t j = 0; j < grid.size(); ++j) {
      if (j != lower && j != lower + 1) {
        strict = strict && hamming_distance(tied, grid[j]) > apart / 2;
      }
    }
    if (!strict) {
      continue;
    }
    // M ⊗ phi(kTieFeature) == tied.
    auto model = std::make_shared<const HDRegressor>(HDRegressor::from_model(
        labels, tied ^ input->encode(kTieFeature)));
    return {input, labels, model, lower};
  }
  ADD_FAILURE() << "no adjacent label rows admit an exact tie";
  return {};
}

TEST(LabelTieTest, EveryPathKeepsTheLowerRowAndTheProfileBand) {
  const TiedModel tied = make_tied_model();
  ASSERT_NE(tied.model, nullptr);
  const Hypervector encoded(tied.input->encode(kTieFeature));
  const double want = tied.model->predict(encoded);
  const Band want_band = tied.model->predict_band(encoded);
  ASSERT_EQ(want, tied.labels->value_of(tied.lower));
  ASSERT_NE(want, tied.labels->value_of(tied.lower + 1));

  const std::string path = testutil::temp_file("label_tie.hdcs");
  {
    io::SnapshotWriter writer;
    writer.add_pipeline(*tied.input, *tied.model);
    writer.write_file(path);
  }

  // The per-row routine, with and without the band.
  const io::LoadedPipeline loaded = io::load_pipeline(path);
  serve::RowScratch scratch(loaded.pipeline);
  const serve::RowAnswer banded = serve::predict_row(
      loaded.pipeline, encoded.words(), serve::HeadMode::Band, scratch);
  EXPECT_EQ(banded.value, want);
  EXPECT_EQ(banded.band.p10, want_band.p10);
  EXPECT_EQ(banded.band.p50, want_band.p50);
  EXPECT_EQ(banded.band.p90, want_band.p90);
  EXPECT_EQ(serve::predict_row(loaded.pipeline, encoded.words(),
                               serve::HeadMode::None, scratch)
                .value,
            want);

  // Batches mixing the tied row with others, through the local plane and
  // a Loopback Rows cluster whose ranks each get tied rows.
  const std::vector<std::vector<double>> rows = {
      {kTieFeature}, {0.0}, {kTieFeature}, {3.0}, {kTieFeature}, {2.0}};
  serve::LocalPlane local(std::make_shared<const serve::ServingState>(
                              io::load_pipeline(path), 1, path),
                          2);
  ClusterOptions options;
  options.replicas = 2;
  options.scheme = ShardScheme::Rows;
  ShardedServer cluster(path, options);
  for (serve::PredictionPlane* plane :
       std::vector<serve::PredictionPlane*>{&local, &cluster}) {
    for (const serve::HeadMode head :
         {serve::HeadMode::None, serve::HeadMode::Band}) {
      serve::Predictions out;
      plane->predict({rows, {}}, head, /*adapted=*/false, out);
      ASSERT_EQ(out.values.size(), rows.size());
      ASSERT_EQ(out.bands.size(), head == serve::HeadMode::Band ? rows.size()
                                                                : 0U);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const Hypervector row(tied.input->encode(rows[i][0]));
        EXPECT_EQ(out.values[i], tied.model->predict(row)) << "row " << i;
        if (head == serve::HeadMode::Band) {
          const Band band = tied.model->predict_band(row);
          EXPECT_EQ(out.bands[i].p10, band.p10) << "row " << i;
          EXPECT_EQ(out.bands[i].p50, band.p50) << "row " << i;
          EXPECT_EQ(out.bands[i].p90, band.p90) << "row " << i;
        }
      }
    }
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace hdc::cluster
