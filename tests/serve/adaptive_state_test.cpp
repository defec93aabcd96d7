// AdaptiveState: the serving-side adaptation behind `!adapt` / `!use` /
// `!delta`.  Feedback over a pinned (mmapped) generation must leave the
// base bit-identical, the exported delta must restore the adapted model
// exactly through the reload path, and every malformed feedback row must be
// rejected without touching the published model.  LocalPlane's adapted
// side must serve, through its batch engines and in every head mode,
// exactly what a fresh restore of base + exported delta answers, and
// concurrent adapted batches must each see one whole published model.

#include "hdc/serve/adaptive_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "hdc/io/fixture_models.hpp"
#include "hdc/io/io.hpp"
#include "hdc/serve/local_plane.hpp"

namespace {

using hdc::io::SnapshotWriter;
using hdc::serve::AdaptiveState;
using hdc::serve::AdaptOutcome;
using hdc::serve::HeadMode;
using hdc::serve::LocalPlane;
using hdc::serve::Predictions;
using hdc::serve::RowBatch;
using hdc::serve::ServingState;
using hdc::serve::ServingStatePtr;
namespace fixtures = hdc::io::fixtures;

std::string temp_file(const std::string& name) {
  const auto stamp = static_cast<unsigned long long>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  return (std::filesystem::path(testing::TempDir()) /
          ("astate_" + std::to_string(stamp) + "_" + name))
      .string();
}

std::string write_jigsaws(const std::string& name) {
  const std::string path = temp_file(name);
  const fixtures::ClassifierPipeline models =
      fixtures::make_classifier_pipeline();
  SnapshotWriter writer;
  writer.add_pipeline(models.encoder, models.model);
  writer.write_file(path);
  return path;
}

std::string write_beijing(const std::string& name) {
  const std::string path = temp_file(name);
  const fixtures::BeijingPipeline models = fixtures::make_beijing_pipeline();
  SnapshotWriter writer;
  writer.add_pipeline(*models.encoder, models.model);
  writer.write_file(path);
  return path;
}

ServingStatePtr pin(const std::string& path) {
  return std::make_shared<const ServingState>(hdc::io::load_pipeline(path),
                                              0, path);
}

/// Deterministic 4-feature rows for the classifier pipeline.
std::vector<double> classifier_row(std::size_t i) {
  std::vector<double> row(4);
  for (std::size_t f = 0; f < row.size(); ++f) {
    row[f] = 23.0 * static_cast<double>(i) + 80.0 * static_cast<double>(f);
  }
  return row;
}

/// Feeds labelled feedback until the overlay holds at least one row.
void adapt_until_touched(AdaptiveState& state, std::size_t num_classes) {
  for (std::size_t i = 0; state.overlay_rows() == 0 || i < 16; ++i) {
    ASSERT_LT(i, 4096U) << "no feedback row ever updated the model";
    const auto row = classifier_row(i);
    (void)state.adapt(row, static_cast<double>(i % num_classes));
  }
}

TEST(AdaptiveStateTest, ValidatesConstructionAndFeedback) {
  EXPECT_THROW(AdaptiveState(nullptr), std::invalid_argument);

  const std::string path = write_jigsaws("validate.hdcs");
  AdaptiveState state(pin(path));
  EXPECT_TRUE(state.classifies());
  const auto row = classifier_row(0);
  // Non-integral, negative, out-of-range and non-finite targets must all
  // fail before any overlay row is created.
  for (const double target : {1.5, -1.0, 1e9, std::nan("")}) {
    EXPECT_THROW((void)state.adapt(row, target), std::invalid_argument)
        << "target " << target;
  }
  EXPECT_THROW((void)state.adapt(std::vector<double>{1.0, 2.0}, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)state.predict(std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_EQ(state.overlay_rows(), 0U);
  EXPECT_EQ(state.feedback_rows(), 0U);
  std::filesystem::remove(path);
}

TEST(AdaptiveStateTest, AdaptBuildsOverlayAndReportsOutcomes) {
  const std::string path = write_jigsaws("outcomes.hdcs");
  const ServingStatePtr base = pin(path);
  AdaptiveState state(base);

  // Untouched: the adapted side predicts exactly as the base pipeline.
  for (std::size_t i = 0; i < 10; ++i) {
    const auto row = classifier_row(i);
    EXPECT_EQ(state.predict(row),
              static_cast<double>(base->pipeline().classify(row)));
  }

  std::uint64_t seen = 0;
  std::uint64_t updated = 0;
  for (std::size_t i = 0; i < 40; ++i) {
    const auto row = classifier_row(i);
    const double before = state.predict(row);
    const AdaptOutcome outcome = state.adapt(row, static_cast<double>(i % 3));
    EXPECT_EQ(outcome.predicted, before) << "row " << i;
    ++seen;
    updated += outcome.updated ? 1U : 0U;
    EXPECT_EQ(outcome.feedback_rows, seen);
    EXPECT_EQ(outcome.updates, updated);
  }
  EXPECT_GT(updated, 0U);
  EXPECT_EQ(state.feedback_rows(), seen);
  EXPECT_EQ(state.updates(), updated);
  EXPECT_GT(state.overlay_rows(), 0U);
  EXPECT_EQ(state.changed_rows().size(), state.overlay_rows());

  state.reset();
  EXPECT_EQ(state.overlay_rows(), 0U);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto row = classifier_row(i);
    EXPECT_EQ(state.predict(row),
              static_cast<double>(base->pipeline().classify(row)));
  }
  std::filesystem::remove(path);
}

TEST(AdaptiveStateTest, ExportedDeltaRestoresTheAdaptedModelExactly) {
  const std::string path = write_jigsaws("export.hdcs");
  AdaptiveState state(pin(path));
  adapt_until_touched(state, 3);

  const std::string delta_path = temp_file("export.delta.hdcs");
  const std::size_t rows = state.export_delta(path, delta_path);
  EXPECT_EQ(rows, state.overlay_rows());
  ASSERT_TRUE(hdc::io::snapshot_is_delta(delta_path));

  // Reloading the delta against the base serves predictions bit-identical
  // to the live overlay — the acceptance criterion at the state layer.
  const auto patched = hdc::io::load_pipeline_or_delta(delta_path, path);
  for (std::size_t i = 0; i < 60; ++i) {
    const auto row = classifier_row(i);
    EXPECT_EQ(static_cast<double>(patched.pipeline.classify(row)),
              state.predict(row))
        << "row " << i;
  }

  // With nothing adapted there is no delta to export.
  state.reset();
  EXPECT_THROW((void)state.export_delta(path, delta_path),
               std::runtime_error);
  std::filesystem::remove(path);
  std::filesystem::remove(delta_path);
}

TEST(AdaptiveStateTest, RegressorFeedbackAdaptsAndExports) {
  const std::string path = write_beijing("regressor.hdcs");
  const ServingStatePtr base = pin(path);
  AdaptiveState state(base);
  EXPECT_FALSE(state.classifies());

  const auto probe = [](std::size_t i) {
    return std::vector<double>{static_cast<double>(i % 5),
                               static_cast<double>((i * 53) % 366),
                               0.5 * static_cast<double>((i * 7) % 48)};
  };
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(state.predict(probe(i)),
                     base->pipeline().regress(probe(i)));
  }
  // Regressor targets are arbitrary reals: push every prediction toward
  // the opposite end of the label range until the model row is overlaid.
  for (std::size_t i = 0; state.overlay_rows() == 0 || i < 24; ++i) {
    ASSERT_LT(i, 4096U) << "regressor feedback never updated the model";
    (void)state.adapt(probe(i), i % 2 == 0 ? 1.0 : 0.0);
  }
  EXPECT_EQ(state.overlay_rows(), 1U);

  const std::string delta_path = temp_file("regressor.delta.hdcs");
  EXPECT_EQ(state.export_delta(path, delta_path), 1U);
  const auto patched = hdc::io::load_pipeline_or_delta(delta_path, path);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_DOUBLE_EQ(patched.pipeline.regress(probe(i)),
                     state.predict(probe(i)))
        << "row " << i;
  }
  std::filesystem::remove(path);
  std::filesystem::remove(delta_path);
}

TEST(AdaptiveStateTest, ExportAgainstTheWrongBaseIsRejected) {
  const std::string path = write_jigsaws("wrongbase.hdcs");
  const std::string other = write_beijing("otherbase.hdcs");
  AdaptiveState state(pin(path));
  adapt_until_touched(state, 3);
  const std::string delta_path = temp_file("wrongbase.delta.hdcs");
  // The beijing snapshot's model shape disagrees with the overlay's.
  EXPECT_THROW((void)state.export_delta(other, delta_path),
               hdc::io::SnapshotError);
  std::filesystem::remove(path);
  std::filesystem::remove(other);
}

TEST(AdaptiveStateTest, PublishedStateSharesTheBaseGeneration) {
  const std::string path = write_jigsaws("publish.hdcs");
  const ServingStatePtr base = pin(path);
  AdaptiveState state(base);
  EXPECT_EQ(state.published(), base);
  adapt_until_touched(state, 3);
  const ServingStatePtr published = state.published();
  ASSERT_NE(published, base);
  // Adaptation publishes a model, not a generation: same number, same
  // source, same encoders, only the model section differs.
  EXPECT_EQ(published->generation(), base->generation());
  EXPECT_EQ(published->source_path(), base->source_path());
  EXPECT_EQ(published->pipeline().feature_encoder(),
            base->pipeline().feature_encoder());
  EXPECT_NE(&published->pipeline().classifier(),
            &base->pipeline().classifier());
  state.reset();
  EXPECT_EQ(state.published(), base);
  std::filesystem::remove(path);
}

std::string write_text(const std::string& name) {
  const std::string path = temp_file(name);
  fixtures::TextPipeline models = fixtures::make_text_pipeline();
  SnapshotWriter writer;
  writer.add_pipeline(models.encoder, models.model);
  writer.write_file(path);
  return path;
}

/// One snapshot shape the adapted side serves: 64 probe rows (numeric or
/// text), a poisoning feedback target per row, and the kind's head.
struct Scenario {
  std::string name;
  std::string path;
  std::vector<std::vector<double>> rows;
  std::vector<std::string> text_rows;
  std::vector<double> targets;
  HeadMode head = HeadMode::None;

  [[nodiscard]] std::size_t size() const {
    return rows.size() + text_rows.size();
  }
  [[nodiscard]] RowBatch batch(std::size_t begin, std::size_t end) const {
    if (!text_rows.empty()) {
      return {{}, std::span(text_rows).subspan(begin, end - begin)};
    }
    return {std::span(rows).subspan(begin, end - begin), {}};
  }
};

constexpr std::size_t kProbeRows = 64;

/// Classifier (numeric and text) and regressor scenarios; each target
/// insists on the wrong answer so the adapted model drifts from the base.
std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  Scenario numeric;
  numeric.name = "classifier";
  numeric.path = write_jigsaws("plane_numeric.hdcs");
  Scenario text;
  text.name = "text";
  text.path = write_text("plane_text.hdcs");
  Scenario band;
  band.name = "regressor";
  band.path = write_beijing("plane_regressor.hdcs");
  const auto base_numeric = hdc::io::load_pipeline(numeric.path);
  const auto base_text = hdc::io::load_pipeline(text.path);
  const auto base_band = hdc::io::load_pipeline(band.path);
  const char* vocab[] = {"lo vo miri", "zu ka pelo tir", "anda vestri olm",
                         "tir tir", "zz"};
  for (std::size_t i = 0; i < kProbeRows; ++i) {
    numeric.rows.push_back(classifier_row(i));
    numeric.targets.push_back(static_cast<double>(
        (base_numeric.pipeline.classify(numeric.rows.back()) + 1) % 3));
    text.text_rows.push_back(std::string(vocab[i % 5]) + " " +
                             std::to_string(i % 7));
    text.targets.push_back(static_cast<double>(
        (base_text.pipeline.classify_text(text.text_rows.back()) + 1) % 3));
    band.rows.push_back({static_cast<double>(i % 5),
                         static_cast<double>((i * 53) % 366),
                         0.5 * static_cast<double>((i * 7) % 48)});
    band.targets.push_back(
        base_band.pipeline.regress(band.rows.back()) < 10.0 ? 40.0 : -20.0);
  }
  numeric.head = HeadMode::Confidence;
  text.head = HeadMode::Confidence;
  band.head = HeadMode::Band;
  out.push_back(std::move(numeric));
  out.push_back(std::move(text));
  out.push_back(std::move(band));
  return out;
}

/// Row-order answers of \p pipeline over the scenario's rows, with the
/// scenario's head columns when \p head is set.
Predictions oracle(const hdc::io::Pipeline& pipeline, const Scenario& sc,
                   HeadMode head) {
  Predictions out;
  for (std::size_t i = 0; i < sc.size(); ++i) {
    const hdc::Hypervector encoded =
        sc.text_rows.empty() ? pipeline.encode(sc.rows[i])
                             : pipeline.encode_text(sc.text_rows[i]);
    if (pipeline.kind() == hdc::io::PipelineKind::Classifier) {
      const hdc::Top2 top = pipeline.classifier().predict_top2(encoded);
      out.values.push_back(static_cast<double>(top.best.index));
      if (head == HeadMode::Confidence) {
        out.confidences.push_back(hdc::margin_confidence(top));
      }
    } else {
      out.values.push_back(pipeline.regressor().predict(encoded));
      if (head == HeadMode::Band) {
        out.bands.push_back(pipeline.regressor().predict_band(encoded));
      }
    }
  }
  return out;
}

void append(Predictions& to, const Predictions& from) {
  to.values.insert(to.values.end(), from.values.begin(), from.values.end());
  to.confidences.insert(to.confidences.end(), from.confidences.begin(),
                        from.confidences.end());
  to.bands.insert(to.bands.end(), from.bands.begin(), from.bands.end());
}

/// Every field of \p p flattened, so whole batches compare with ==.
std::vector<double> flatten(const Predictions& p) {
  std::vector<double> out = p.values;
  out.insert(out.end(), p.confidences.begin(), p.confidences.end());
  for (const hdc::Band& band : p.bands) {
    out.insert(out.end(), {band.p10, band.p50, band.p90});
  }
  return out;
}

TEST(AdaptedPlaneTest, ServesTheExportedDeltaInEveryHeadModeAndBatchSize) {
  for (const Scenario& sc : scenarios()) {
    SCOPED_TRACE(sc.name);
    LocalPlane plane(pin(sc.path), 2);
    for (std::size_t pass = 0; pass < 3; ++pass) {
      for (std::size_t i = 0; i < sc.size(); ++i) {
        (void)plane.adapt(sc.targets[i], sc.batch(i, i + 1));
      }
    }

    // The oracle: a fresh restore of base + the exported delta.
    const std::string delta = temp_file(sc.name + ".delta.hdcs");
    const std::string patched = temp_file(sc.name + ".patched.hdcs");
    ASSERT_GT(plane.export_delta(delta), 0U);
    hdc::io::apply_delta_file(sc.path, delta, patched);
    const auto fresh = hdc::io::load_pipeline(patched);
    const auto base = hdc::io::load_pipeline(sc.path);
    ASSERT_NE(oracle(fresh.pipeline, sc, HeadMode::None).values,
              oracle(base.pipeline, sc, HeadMode::None).values)
        << "poisoned feedback left the model unchanged";

    for (const HeadMode head : {HeadMode::None, sc.head}) {
      const std::vector<double> want =
          flatten(oracle(fresh.pipeline, sc, head));
      const std::vector<double> base_want =
          flatten(oracle(base.pipeline, sc, head));
      for (const std::size_t size : {1, 7, 64}) {
        SCOPED_TRACE("batch " + std::to_string(size));
        Predictions all;
        Predictions all_base;
        Predictions out;
        for (std::size_t begin = 0; begin < sc.size(); begin += size) {
          const RowBatch batch =
              sc.batch(begin, std::min(begin + size, sc.size()));
          plane.predict(batch, head, /*adapted=*/true, out);
          append(all, out);
          plane.predict(batch, head, /*adapted=*/false, out);
          append(all_base, out);
        }
        EXPECT_EQ(flatten(all), want);
        EXPECT_EQ(flatten(all_base), base_want);
      }
    }
    for (const auto& file : {sc.path, delta, patched}) {
      std::filesystem::remove(file);
    }
  }
}

TEST(AdaptedPlaneTest, ConcurrentAdaptedBatchesEachSeeOnePublishedModel) {
  for (const Scenario& sc : scenarios()) {
    SCOPED_TRACE(sc.name);
    constexpr std::size_t kPasses = 3;
    // Every model the stream publishes, replayed in private: each adapted
    // batch served while the stream runs must equal one of them.
    std::vector<std::vector<double>> published;
    {
      LocalPlane replay(pin(sc.path), 1);
      Predictions out;
      replay.predict(sc.batch(0, sc.size()), sc.head, true, out);
      published.push_back(flatten(out));
      for (std::size_t pass = 0; pass < kPasses; ++pass) {
        for (std::size_t i = 0; i < sc.size(); ++i) {
          if (replay.adapt(sc.targets[i], sc.batch(i, i + 1)).updated) {
            replay.predict(sc.batch(0, sc.size()), sc.head, true, out);
            published.push_back(flatten(out));
          }
        }
      }
    }
    ASSERT_GT(published.size(), 1U);

    LocalPlane plane(pin(sc.path), 2);
    std::atomic<bool> done{false};
    std::atomic<std::size_t> batches{0};
    std::atomic<std::size_t> torn{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 2; ++t) {
      readers.emplace_back([&] {
        Predictions out;
        do {
          plane.predict(sc.batch(0, sc.size()), sc.head, true, out);
          const std::vector<double> got = flatten(out);
          if (std::find(published.begin(), published.end(), got) ==
              published.end()) {
            torn.fetch_add(1);
          }
          batches.fetch_add(1);
        } while (!done.load());
      });
    }
    // Wait for a batch after every update, so the readers interleave with
    // the whole stream instead of racing past it.
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
      for (std::size_t i = 0; i < sc.size(); ++i) {
        (void)plane.adapt(sc.targets[i], sc.batch(i, i + 1));
        const std::size_t seen = batches.load();
        while (batches.load() == seen) {
          std::this_thread::yield();
        }
      }
    }
    done.store(true);
    for (std::thread& reader : readers) {
      reader.join();
    }
    EXPECT_EQ(torn.load(), 0U) << "of " << batches.load() << " batches";
    Predictions last;
    plane.predict(sc.batch(0, sc.size()), sc.head, true, last);
    EXPECT_EQ(flatten(last), published.back());
    std::filesystem::remove(sc.path);
  }
}

}  // namespace
