// Models, seeded inputs and the byte-exact oracle of each workload.

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "hdc/base/rng.hpp"
#include "hdc/core/basis_level.hpp"
#include "hdc/core/classifier.hpp"
#include "hdc/core/composed_encoder.hpp"
#include "hdc/core/confidence.hpp"
#include "hdc/core/feature_encoder.hpp"
#include "hdc/core/regressor.hpp"
#include "hdc/data/beijing.hpp"
#include "hdc/data/jigsaws.hpp"
#include "hdc/data/splits.hpp"
#include "hdc/experiments/experiment.hpp"
#include "hdc/io/fixture_models.hpp"
#include "hdc/io/reload.hpp"
#include "hdc/serve/row_reader.hpp"
#include "hdc/stats/circular.hpp"

namespace perfbench {

namespace {

using hdc::derive_seed;

std::string shortest(double value) {
  char buffer[64];
  const auto [end, error] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (error != std::errc{}) {
    throw std::runtime_error("cannot format a double");
  }
  return {buffer, end};
}

std::string csv_line(const std::vector<double>& features) {
  std::string line;
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (i > 0) {
      line += ',';
    }
    line += shortest(features[i]);
  }
  return line;
}

// Section 6.1 / Table 1: the KnotTying gesture classifier with circular
// values (r = 0.1, m = 64), trained on surgeon "D"; the test split is the
// served pool.  Seeds follow hdc::exp::run_gesture_classification, so the
// snapshot holds exactly the Table 1 circular model.
void build_jigsaws(hdc::io::SnapshotWriter& writer, Workload& w,
                   std::optional<hdc::KeyValueEncoder>& encoder,
                   std::optional<hdc::CentroidClassifier>& model) {
  const hdc::exp::ExperimentParams params;
  hdc::data::JigsawsConfig config;
  config.task = hdc::data::SurgicalTask::KnotTying;
  config.seed = derive_seed(params.seed, 0xDA7AULL);
  const hdc::data::GestureDataset data =
      hdc::data::make_jigsaws_dataset(config);
  const hdc::ScalarEncoderPtr values = hdc::exp::make_value_encoder(
      hdc::exp::BasisChoice::Circular, 0.1, params.dimension,
      params.value_levels, hdc::stats::two_pi,
      derive_seed(params.seed, 0x7A1ULL));
  encoder.emplace(data.num_channels, values,
                  derive_seed(params.seed, 0x7A2ULL));
  model.emplace(data.num_gestures, params.dimension,
                derive_seed(params.seed, 0x7A3ULL));
  for (const hdc::data::GestureSample& sample : data.train) {
    model->add_sample(sample.gesture, encoder->encode(sample.angles));
  }
  model->finalize();
  writer.add_pipeline(*encoder, *model);
  for (const hdc::data::GestureSample& sample : data.test) {
    w.lines.push_back(csv_line(sample.angles));
    w.truth.push_back(static_cast<double>(sample.gesture));
    w.bundle_adds.push_back(static_cast<std::uint32_t>(data.num_channels));
  }
  w.classifier = true;
  w.num_classes_or_levels = data.num_gestures;
  w.num_features = data.num_channels;
}

// Section 6.2 / Table 2: Beijing temperature regressed on level year ⊗
// circular day (m = 64) ⊗ circular hour (24) with r = 0.01 and 128 label
// levels, chronological 70/30 split.  Seeds follow
// hdc::exp::run_beijing_regression.
struct BeijingModel {
  std::shared_ptr<const hdc::ComposedEncoder> encoder;
  std::optional<hdc::HDRegressor> model;
};

void build_beijing(hdc::io::SnapshotWriter& writer, Workload& w,
                   BeijingModel& out) {
  const hdc::exp::ExperimentParams params;
  hdc::data::BeijingConfig config;
  config.seed = derive_seed(params.seed, 0xBE111ULL);
  const std::vector<hdc::data::BeijingRecord> records =
      hdc::data::make_beijing_dataset(config);

  hdc::LevelBasisConfig year_config;
  year_config.dimension = params.dimension;
  year_config.size = 5;
  year_config.seed = derive_seed(params.seed, 0x4EA4ULL);
  auto year = std::make_shared<hdc::LinearScalarEncoder>(
      hdc::make_level_basis(year_config), 0.0, 4.0);
  auto day = hdc::exp::make_value_encoder(
      hdc::exp::BasisChoice::Circular, 0.01, params.dimension,
      params.value_levels, 366.0, derive_seed(params.seed, 0xDA4ULL));
  auto hour = hdc::exp::make_value_encoder(
      hdc::exp::BasisChoice::Circular, 0.01, params.dimension, 24, 24.0,
      derive_seed(params.seed, 0x404ULL));
  out.encoder = std::make_shared<const hdc::ComposedEncoder>(
      std::vector<hdc::ScalarEncoderPtr>{year, day, hour});

  std::vector<double> labels;
  labels.reserve(records.size());
  for (const hdc::data::BeijingRecord& record : records) {
    labels.push_back(record.temperature);
  }
  const auto [lo, hi] = std::minmax_element(labels.begin(), labels.end());
  const double pad = 0.05 * (*hi - *lo);
  hdc::LevelBasisConfig label_config;
  label_config.dimension = params.dimension;
  label_config.size = params.label_levels;
  label_config.method = hdc::LevelMethod::Interpolation;
  label_config.seed = derive_seed(params.seed, 0x1ABE1ULL);
  auto label_encoder = std::make_shared<hdc::LinearScalarEncoder>(
      hdc::make_level_basis(label_config), *lo - pad, *hi + pad);

  const auto features_of = [](const hdc::data::BeijingRecord& record) {
    return std::vector<double>{static_cast<double>(record.year_index),
                               static_cast<double>(record.day_of_year - 1),
                               static_cast<double>(record.hour)};
  };
  const hdc::data::SplitIndices split =
      hdc::data::chronological_split(records.size(), 0.7);
  out.model.emplace(label_encoder, derive_seed(params.seed, 0x4E64ULL));
  for (const std::size_t index : split.train) {
    out.model->add_sample(out.encoder->encode(features_of(records[index])),
                          labels[index]);
  }
  out.model->finalize();
  writer.add_pipeline(*out.encoder, *out.model);
  for (const std::size_t index : split.test) {
    w.lines.push_back(csv_line(features_of(records[index])));
    w.truth.push_back(labels[index]);
    w.bundle_adds.push_back(0);
  }
  w.classifier = false;
  w.num_classes_or_levels = params.label_levels;
  w.num_features = 3;
}

// The repository's trigram language-ID model (`hdcgen snap --pipeline text
// --dim 10000`) over seeded raw text of mixed length: 992 short phrases of
// 8..56 bytes and a 32-row log-uniform tail of 64..1024 bytes, mean ~40
// bytes.  The lengths are stratified, not drawn, so every seed scores the
// same number of trigrams; the seed picks classes, words and order.
constexpr std::size_t kTextPool = 1024;
constexpr std::size_t kTextTail = 32;

void build_text(hdc::io::SnapshotWriter& writer, Workload& w,
                std::optional<hdc::io::fixtures::TextPipeline>& models,
                std::uint64_t seed) {
  hdc::io::fixtures::FixtureSpec spec;
  spec.dimension = 10'000;
  models.emplace(hdc::io::fixtures::make_text_pipeline(spec));
  writer.add_pipeline(models->encoder, models->model);

  static constexpr std::array<std::array<const char*, 12>, 3> words{{
      {"the", "quick", "brown", "fox", "hello", "there", "again", "we",
       "shall", "meet", "today", "thank"},
      {"el", "gato", "corre", "ahora", "buenos", "dias", "amigo", "gracias",
       "por", "la", "cena", "hasta"},
      {"der", "hund", "lauft", "schnell", "guten", "morgen", "freund",
       "danke", "fur", "das", "essen", "spater"},
  }};
  hdc::Rng rng(derive_seed(seed, 0x7E47ULL));
  constexpr std::size_t short_rows = kTextPool - kTextTail;
  for (std::size_t i = 0; i < kTextPool; ++i) {
    const std::size_t label = rng.below(words.size());
    std::size_t length = 0;
    if (i < short_rows) {
      length = 8 + i * 49 / short_rows;
    } else {
      const double q = (static_cast<double>(i - short_rows) + 0.5) /
                       static_cast<double>(kTextTail);
      length = static_cast<std::size_t>(
          std::exp(std::log(64.0) + q * (std::log(1024.0) - std::log(64.0))));
    }
    std::string text;
    while (text.size() < length) {
      if (!text.empty()) {
        text += ' ';
      }
      text += words[label][rng.below(words[label].size())];
    }
    text.resize(length);
    w.lines.push_back(text);
    w.truth.push_back(static_cast<double>(label));
    w.bundle_adds.push_back(static_cast<std::uint32_t>(length - 2));
  }
  w.text = true;
  w.classifier = true;
  w.num_classes_or_levels = words.size();
  w.num_features = 0;
}

}  // namespace

std::vector<double> parse_features(const Workload& workload,
                                   const std::string& line) {
  hdc::serve::RowReader reader(workload.num_features);
  std::vector<double> features;
  if (!reader.parse_line(line, features)) {
    throw std::runtime_error("blank benchmark row");
  }
  return features;
}

Workload build_workload(const Options& options) {
  const Shape& shape = options.shape;
  Workload w;
  w.snapshot_path =
      (std::filesystem::path(options.work_dir) / "model.hdcs").string();
  {
    // Every model must outlive write_file(): the writer records spans.
    hdc::io::SnapshotWriter writer;
    std::optional<hdc::KeyValueEncoder> kv_encoder;
    std::optional<hdc::CentroidClassifier> kv_model;
    BeijingModel beijing;
    std::optional<hdc::io::fixtures::TextPipeline> text;
    if (shape.model == "jigsaws") {
      build_jigsaws(writer, w, kv_encoder, kv_model);
    } else if (shape.model == "beijing") {
      build_beijing(writer, w, beijing);
    } else if (shape.model == "text") {
      build_text(writer, w, text, options.seed);
    } else {
      throw std::invalid_argument("unknown model '" + shape.model + "'");
    }
    writer.write_file(w.snapshot_path);
  }

  // The oracle: per-row Pipeline calls over the written snapshot,
  // formatted by PredictionWriter exactly as the server formats them.
  const hdc::io::LoadedPipeline loaded =
      hdc::io::load_pipeline(w.snapshot_path);
  const hdc::io::Pipeline& pipeline = loaded.pipeline;
  w.dimension = pipeline.dimension();
  const hdc::serve::HeadMode head =
      !shape.head       ? hdc::serve::HeadMode::None
      : w.classifier    ? hdc::serve::HeadMode::Confidence
                        : hdc::serve::HeadMode::Band;
  std::ostringstream out;
  hdc::serve::PredictionWriter writer(out, hdc::serve::OutputFormat::Plain,
                                      false, head);
  double error = 0.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < w.lines.size(); ++i) {
    const hdc::Hypervector hv =
        w.text ? pipeline.encode_text(w.lines[i])
               : pipeline.encode(parse_features(w, w.lines[i]));
    double predicted = 0.0;
    if (w.classifier) {
      const std::size_t label = pipeline.classifier().predict(hv);
      predicted = static_cast<double>(label);
      if (head == hdc::serve::HeadMode::Confidence) {
        const hdc::Top2 top2 = pipeline.classifier().predict_top2(hv);
        if (static_cast<std::size_t>(top2.best.index) != label) {
          throw std::runtime_error("oracle: top-2 disagrees with predict");
        }
        writer.write_class(i, label, hdc::margin_confidence(top2), 0.0);
      } else {
        writer.write_class(i, label, 0.0);
      }
      hits += predicted == w.truth[i] ? 1 : 0;
    } else {
      predicted = pipeline.regressor().predict(hv);
      if (head == hdc::serve::HeadMode::Band) {
        writer.write_band(i, predicted, pipeline.regressor().predict_band(hv),
                          0.0);
      } else {
        writer.write(i, predicted, 0.0);
      }
      error += (predicted - w.truth[i]) * (predicted - w.truth[i]);
    }
    w.predicted.push_back(predicted);
    w.expected.push_back(out.str());
    out.str(std::string());
  }
  const double n = static_cast<double>(w.lines.size());
  w.pool_score = w.classifier ? static_cast<double>(hits) / n
                              : std::sqrt(error / n);
  w.score_name = w.classifier ? "accuracy" : "rmse";

  w.order.resize(w.lines.size());
  std::iota(w.order.begin(), w.order.end(), 0U);
  hdc::Rng rng(derive_seed(options.seed, 0x0DE4ULL));
  const auto shuffle = [&](auto first, auto last) {
    for (auto n = last - first; n > 1; --n) {
      std::swap(first[n - 1], first[static_cast<std::ptrdiff_t>(
                                  rng.below(static_cast<std::size_t>(n)))]);
    }
  };
  if (w.text && kTextPool % shape.batch == 0) {
    // The pool is a whole number of batches, and the stdin front end cuts
    // it the same way on every cycle.  Deal the rows (sorted by length)
    // so that every batch holds the same mix of lengths: otherwise the
    // paced p99 is the cost of the seed's heaviest batch.  The seed still
    // picks the batches' order and the rows' places in them.
    const std::size_t batches = kTextPool / shape.batch;
    constexpr std::size_t short_rows = kTextPool - kTextTail;
    std::vector<std::vector<std::uint32_t>> dealt(batches);
    for (std::uint32_t i = 0; i < kTextPool; ++i) {
      const std::size_t rank = i < short_rows ? i : i - short_rows;
      // Tail rows pair up longest with shortest.
      const std::size_t lap = rank / batches;
      const std::size_t batch = i < short_rows || lap % 2 == 0
                                    ? rank % batches
                                    : batches - 1 - rank % batches;
      dealt[batch].push_back(i);
    }
    shuffle(dealt.begin(), dealt.end());
    w.order.clear();
    for (std::vector<std::uint32_t>& batch : dealt) {
      shuffle(batch.begin(), batch.end());
      w.order.insert(w.order.end(), batch.begin(), batch.end());
    }
  } else {
    shuffle(w.order.begin(), w.order.end());
  }
  return w;
}

FeedbackLine feedback_line(const Workload& workload, std::size_t every,
                           std::size_t index) {
  // The feedback connection walks the seeded order from its own offset.
  const std::size_t n = workload.order.size();
  FeedbackLine line;
  line.adapt = index % (every + 1) == 0;
  line.ref = workload.order[(n / 2 + index) % n];
  return line;
}

std::string feedback_wire(const Workload& workload, const FeedbackLine& line) {
  if (!line.adapt) {
    return workload.lines[line.ref];
  }
  return "!adapt " + shortest(workload.truth[line.ref]) + " " +
         workload.lines[line.ref];
}

FeedbackOracle::FeedbackOracle(const Workload& workload, bool with_head)
    : state_(std::make_unique<hdc::serve::AdaptiveState>(
          std::make_shared<const hdc::serve::ServingState>(
              hdc::io::load_pipeline(workload.snapshot_path), 0,
              workload.snapshot_path))),
      head_(with_head) {}

std::string FeedbackOracle::adapt(const Workload& workload,
                                  std::uint32_t ref) {
  const double target = workload.truth[ref];
  const hdc::serve::AdaptOutcome outcome =
      workload.text
          ? state_->adapt_text(workload.lines[ref], target)
          : state_->adapt(parse_features(workload, workload.lines[ref]),
                          target);
  return "!ok adapt predicted=" + shortest(outcome.predicted) +
         " updated=" + std::to_string(outcome.updated ? 1 : 0) +
         " feedback=" + std::to_string(outcome.feedback_rows) +
         " updates=" + std::to_string(outcome.updates) +
         " overlay_rows=" + std::to_string(outcome.overlay_rows) +
         " generation=0\n";
}

std::string FeedbackOracle::predict(const Workload& workload,
                                    std::uint32_t ref) {
  using hdc::serve::HeadMode;
  const std::string& line = workload.lines[ref];
  const HeadMode head = !head_               ? HeadMode::None
                        : workload.classifier ? HeadMode::Confidence
                                              : HeadMode::Band;
  std::ostringstream out;
  hdc::serve::PredictionWriter writer(out, hdc::serve::OutputFormat::Plain,
                                      false, head);
  const std::vector<double> features =
      workload.text ? std::vector<double>{} : parse_features(workload, line);
  if (workload.classifier && head == HeadMode::Confidence) {
    const hdc::Top2 top2 = workload.text ? state_->predict_top2_text(line)
                                         : state_->predict_top2(features);
    writer.write_class(0, static_cast<std::size_t>(top2.best.index),
                       hdc::margin_confidence(top2), 0.0);
    return out.str();
  }
  const double value = workload.text ? state_->predict_text(line)
                                     : state_->predict(features);
  if (workload.classifier) {
    writer.write_class(0, static_cast<std::size_t>(value), 0.0);
  } else if (head == HeadMode::Band) {
    writer.write_band(0, value,
                      workload.text ? state_->predict_band_text(line)
                                    : state_->predict_band(features),
                      0.0);
  } else {
    writer.write(0, value, 0.0);
  }
  return out.str();
}

std::string fixed(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const auto ceil_rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t rank =
      std::min(values.size() - 1, ceil_rank - (q > 0.0 ? 1 : 0));
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank),
                   values.end());
  return values[rank];
}

}  // namespace perfbench
