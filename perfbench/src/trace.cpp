// The traced replay: the workload's generated inputs go through the same
// public calls the server makes, in process, with a span around each call
// into a layer.  Spans are kept in memory and written at exit; a layer's
// self time is its span minus its children.
//
// Every workload replays the same sections, so every per-layer metric is
// measured on every workload's model and inputs:
//   setup    — ShardedServer construction (forks first, before any thread
//              pool exists), then open, restore and pool + engine builds;
//   replay   — parse -> encode -> search/head -> write per batch, once with
//              spans off and once with spans on (the tracing overhead);
//   feedback — the feedback connection's lines through AdaptiveState;
//   cluster  — parse -> ShardedServer::predict_head -> write per batch;
//   core     — Pipeline::encode and the model's search on one thread;
//   fanout   — ThreadPool::for_chunks over one batch with an empty body.

#include <algorithm>
#include <fstream>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "hdc/cluster/sharded_server.hpp"
#include "hdc/core/confidence.hpp"
#include "hdc/io/reload.hpp"
#include "hdc/runtime/thread_pool.hpp"
#include "hdc/serve/row_reader.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kMaxBatches = 2000;
constexpr std::size_t kMaxFeedbackLines = 3000;
// Adapted predictions per `!adapt` when the workload has no feedback
// connection of its own.
constexpr std::size_t kProbeFeedbackEvery = 3;
constexpr std::size_t kReplicas = 2;

struct Span {
  const char* name;
  std::int64_t start;
  std::int64_t end;
  std::int32_t parent;
  std::int32_t batch;
};

class Tracer {
 public:
  bool enabled = true;
  std::vector<Span> spans;

  void begin(const char* name, std::int32_t batch = -1) {
    if (!enabled) {
      return;
    }
    spans.push_back({name, now_ns(), 0, stack_.empty() ? -1 : stack_.back(),
                     batch});
    stack_.push_back(static_cast<std::int32_t>(spans.size() - 1));
  }
  void end() {
    if (!enabled) {
      return;
    }
    spans[static_cast<std::size_t>(stack_.back())].end = now_ns();
    stack_.pop_back();
  }

 private:
  std::vector<std::int32_t> stack_;
};

class Scoped {
 public:
  Scoped(Tracer& tracer, const char* name, std::int32_t batch = -1)
      : tracer_(tracer) {
    tracer_.begin(name, batch);
  }
  ~Scoped() { tracer_.end(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
};

bool is_layer(const char* name) {
  const std::string_view n(name);
  return n.starts_with("serve.") || n.starts_with("runtime.") ||
         n.starts_with("core.") || n.starts_with("io.") ||
         n.starts_with("cluster.");
}

/// The batch engines a NetServer connection builds for one generation.
struct Engines {
  hdc::runtime::ThreadPoolPtr pool;
  std::optional<hdc::runtime::BatchEncoder> encoder;
  std::optional<hdc::runtime::BatchTextEncoder> text_encoder;
  std::optional<hdc::runtime::BatchClassifier> classifier;
  std::optional<hdc::runtime::BatchRegressor> regressor;
};

/// One parsed batch in the server's row buffers.
struct Batch {
  std::vector<std::uint32_t> refs;
  std::vector<std::vector<double>> rows;
  std::vector<std::string> text_rows;
};

class Replay {
 public:
  Replay(const Options& options, const Workload& workload)
      : options_(options),
        workload_(workload),
        head_(!options.shape.head       ? hdc::serve::HeadMode::None
              : workload.classifier     ? hdc::serve::HeadMode::Confidence
                                        : hdc::serve::HeadMode::Band) {}

  void run(Result& result);

 private:
  std::int64_t budget(double share) const {
    return static_cast<std::int64_t>(options_.seconds * share * 1e9);
  }
  void setup();
  /// The replay section (fills traced_ and untraced_); the other sections
  /// return the units they replayed.
  void replay(std::int64_t budget_ns);
  std::size_t feedback(std::int64_t budget_ns);
  std::size_t cluster(std::int64_t budget_ns);
  std::size_t core(std::int64_t budget_ns);
  std::size_t fanout(std::int64_t budget_ns);

  void parse(Batch& batch, std::size_t first);
  void write(const Batch& batch, const std::vector<double>& values,
             const std::vector<hdc::Top2>& top2,
             const std::vector<hdc::Band>& bands);
  void verify(const Batch& batch);

  const Options& options_;
  const Workload& workload_;
  hdc::serve::HeadMode head_;
  Tracer tracer_;
  std::unique_ptr<hdc::cluster::ShardedServer> sharded_;
  std::optional<hdc::io::MappedSnapshot> snapshot_;
  std::optional<hdc::io::Pipeline> pipeline_;
  std::optional<Engines> engines_;
  hdc::serve::RowReader reader_{0, hdc::serve::RowFormat::Text};
  std::ostringstream out_;
  std::optional<hdc::serve::PredictionWriter> writer_;
  std::size_t cursor_ = 0;  // position in workload.order
  std::uint64_t bundle_adds_ = 0;
  std::uint64_t bundle_rows_ = 0;
  std::uint64_t mismatches_ = 0;
  hdc::serve::AdaptOutcome outcome_;
  std::size_t adapt_lines_ = 0;
  std::size_t adapted_rows_ = 0;
  double rank_imbalance_ = 0.0;
  /// Replay batches with spans on and off: rows and wall time of each.
  struct Pass {
    std::size_t rows = 0;
    std::int64_t ns = 0;
  };
  Pass traced_;
  Pass untraced_;
};

void Replay::setup() {
  const std::string& path = workload_.snapshot_path;
  hdc::cluster::ClusterOptions cluster;
  cluster.replicas = kReplicas;
  cluster.scheme = hdc::cluster::ShardScheme::Rows;
  cluster.backend = hdc::cluster::CommBackend::Fork;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    sharded_.reset();
    Scoped span(tracer_, "cluster.start");
    sharded_ = std::make_unique<hdc::cluster::ShardedServer>(path, cluster);
  }
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    engines_.reset();
    pipeline_.reset();
    snapshot_.reset();
    {
      Scoped span(tracer_, "io.open");
      snapshot_.emplace(hdc::io::MappedSnapshot::open(path));
    }
    {
      Scoped span(tracer_, "io.restore");
      pipeline_.emplace(hdc::io::Pipeline::restore(*snapshot_));
    }
    Scoped span(tracer_, "runtime.pool_start");
    Engines& e = engines_.emplace();
    e.pool = std::make_shared<hdc::runtime::ThreadPool>(options_.shape.threads);
    if (workload_.text) {
      e.text_encoder.emplace(pipeline_->batch_text_encoder(e.pool));
    } else {
      e.encoder.emplace(pipeline_->batch_encoder(e.pool));
    }
    if (workload_.classifier) {
      e.classifier.emplace(pipeline_->batch_classifier(e.pool));
    } else {
      e.regressor.emplace(pipeline_->batch_regressor(e.pool));
    }
  }
  reader_ = hdc::serve::RowReader(
      workload_.num_features, workload_.text ? hdc::serve::RowFormat::Text
                                             : hdc::serve::RowFormat::Csv);
  writer_.emplace(out_, hdc::serve::OutputFormat::Plain, false, head_);
}

void Replay::parse(Batch& batch, std::size_t first) {
  const std::size_t n = workload_.order.size();
  const std::size_t size = options_.shape.batch;
  batch.refs.resize(size);
  for (std::size_t i = 0; i < size; ++i) {
    batch.refs[i] = workload_.order[(first + i) % n];
  }
  batch.rows.clear();
  batch.text_rows.clear();
  Scoped span(tracer_, "serve.parse");
  std::vector<double> row;
  std::string text;
  for (const std::uint32_t ref : batch.refs) {
    if (workload_.text) {
      if (reader_.parse_text_line(workload_.lines[ref], text)) {
        batch.text_rows.push_back(std::move(text));
      }
    } else if (reader_.parse_line(workload_.lines[ref], row)) {
      batch.rows.push_back(row);
    }
  }
}

void Replay::write(const Batch& batch, const std::vector<double>& values,
                   const std::vector<hdc::Top2>& top2,
                   const std::vector<hdc::Band>& bands) {
  Scoped span(tracer_, "serve.write");
  for (std::size_t i = 0; i < batch.refs.size(); ++i) {
    if (head_ == hdc::serve::HeadMode::Confidence) {
      writer_->write_class(i, static_cast<std::size_t>(top2[i].best.index),
                           hdc::margin_confidence(top2[i]), 0.0);
    } else if (head_ == hdc::serve::HeadMode::Band) {
      writer_->write_band(i, values[i], bands[i], 0.0);
    } else if (workload_.classifier) {
      writer_->write_class(i, static_cast<std::size_t>(values[i]), 0.0);
    } else {
      writer_->write(i, values[i], 0.0);
    }
  }
  writer_->flush();
}

void Replay::verify(const Batch& batch) {
  const std::string written = out_.str();
  out_.str(std::string());
  std::size_t at = 0;
  for (const std::uint32_t ref : batch.refs) {
    const std::string& expected = workload_.expected[ref];
    if (written.compare(at, expected.size(), expected) != 0) {
      ++mismatches_;
    }
    at += expected.size();
  }
  if (at != written.size()) {
    ++mismatches_;
  }
}

void Replay::replay(std::int64_t budget_ns) {
  Engines& e = *engines_;
  Batch batch;
  std::vector<double> values;
  std::vector<hdc::Top2> top2;
  std::vector<hdc::Band> bands;
  const std::int64_t end = now_ns() + budget_ns;
  for (std::int32_t b = 0;
       b < static_cast<std::int32_t>(kMaxBatches) && (b < 2 || now_ns() < end);
       ++b) {
    // Every batch runs twice, once with spans and once without, and the
    // order alternates: the tracing overhead compares identical work.
    for (int run = 0; run < 2; ++run) {
      Pass& pass = (run == b % 2) ? traced_ : untraced_;
      tracer_.enabled = &pass == &traced_;
      const std::int64_t start = now_ns();
      {
        Scoped span(tracer_, "batch", b);
        parse(batch, cursor_);
        hdc::runtime::VectorArena encoded = [&] {
          Scoped child(tracer_, "runtime.encode");
          return workload_.text ? e.text_encoder->encode(batch.text_rows)
                                : e.encoder->encode(batch.rows);
        }();
        {
          Scoped child(tracer_, "runtime.search");
          if (workload_.classifier) {
            if (head_ == hdc::serve::HeadMode::Confidence) {
              top2 = e.classifier->predict_top2(encoded);
            } else {
              const std::vector<std::size_t> labels =
                  e.classifier->predict(encoded);
              values.assign(labels.begin(), labels.end());
            }
          } else {
            values = e.regressor->predict(encoded);
            if (head_ == hdc::serve::HeadMode::Band) {
              bands = e.regressor->predict_band(encoded);
            }
          }
        }
        write(batch, values, top2, bands);
      }
      pass.ns += now_ns() - start;
      pass.rows += batch.refs.size();
      tracer_.enabled = true;
      verify(batch);
    }
    for (const std::uint32_t ref : batch.refs) {
      bundle_adds_ += workload_.bundle_adds[ref];
    }
    bundle_rows_ += batch.refs.size();
    cursor_ += batch.refs.size();
  }
}

std::size_t Replay::feedback(std::int64_t budget_ns) {
  // The feedback connection's calls: NetServer parses `!adapt T ROW` with
  // parse_strict_number + a second RowReader, then AdaptiveState::adapt;
  // adapted rows go row at a time through the overlay.
  hdc::serve::AdaptiveState state(
      std::make_shared<const hdc::serve::ServingState>(
          hdc::io::load_pipeline(workload_.snapshot_path), 0,
          workload_.snapshot_path));
  const std::size_t every = options_.shape.feedback_every > 0
                                ? options_.shape.feedback_every
                                : kProbeFeedbackEvery;
  hdc::serve::RowReader adapt_reader(
      workload_.num_features, workload_.text ? hdc::serve::RowFormat::Text
                                             : hdc::serve::RowFormat::Csv);
  std::vector<double> row;
  std::string text;
  const std::int64_t end = now_ns() + budget_ns;
  std::size_t i = 0;
  for (; i < kMaxFeedbackLines && (i < 2 * (every + 1) || now_ns() < end);
       ++i) {
    const FeedbackLine line = feedback_line(workload_, every, i);
    const std::string wire = feedback_wire(workload_, line);
    Scoped span(tracer_, "line", static_cast<std::int32_t>(i));
    double target = 0.0;
    {
      Scoped child(tracer_, "serve.parse");
      std::string_view rest(wire);
      if (line.adapt) {
        rest.remove_prefix(7);  // "!adapt "
        const std::size_t cut = rest.find(' ');
        if (hdc::serve::parse_strict_number(rest.substr(0, cut), target) !=
            hdc::serve::NumberParse::Ok) {
          throw std::runtime_error("feedback target does not parse");
        }
        rest.remove_prefix(cut + 1);
      }
      const bool parsed =
          workload_.text ? adapt_reader.parse_text_line(std::string(rest), text)
                         : adapt_reader.parse_line(std::string(rest), row);
      if (!parsed) {
        throw std::runtime_error("blank feedback row");
      }
    }
    if (line.adapt) {
      Scoped child(tracer_, "serve.adapt");
      outcome_ = workload_.text ? state.adapt_text(text, target)
                                : state.adapt(row, target);
      ++adapt_lines_;
      continue;
    }
    std::vector<double> values(1);
    std::vector<hdc::Top2> top2(1);
    std::vector<hdc::Band> bands(1);
    {
      Scoped child(tracer_, "serve.adapted");
      if (head_ == hdc::serve::HeadMode::Confidence) {
        top2[0] = workload_.text ? state.predict_top2_text(text)
                                 : state.predict_top2(row);
      } else {
        values[0] = workload_.text ? state.predict_text(text)
                                   : state.predict(row);
        if (head_ == hdc::serve::HeadMode::Band) {
          bands[0] = workload_.text ? state.predict_band_text(text)
                                    : state.predict_band(row);
        }
      }
    }
    Batch one;
    one.refs.push_back(line.ref);
    write(one, values, top2, bands);
    out_.str(std::string());
    ++adapted_rows_;
  }
  return i;
}

std::size_t Replay::cluster(std::int64_t budget_ns) {
  const auto rank_rows = [this] {
    std::vector<double> rows;
    for (const hdc::cluster::RankStats& rank : sharded_->stats()) {
      rows.push_back(static_cast<double>(rank.rows));
    }
    return rows;
  };
  const std::vector<double> before = rank_rows();
  Batch batch;
  std::vector<hdc::Top2> top2;
  std::size_t rows = 0;
  const std::int64_t end = now_ns() + budget_ns;
  for (std::int32_t b = 0;
       b < static_cast<std::int32_t>(kMaxBatches) && (b < 2 || now_ns() < end);
       ++b) {
    {
      Scoped span(tracer_, "batch", b);
      parse(batch, cursor_);
      hdc::cluster::ShardedServer::HeadBatchResult result;
      {
        Scoped child(tracer_, "cluster.predict");
        if (head_ != hdc::serve::HeadMode::None) {
          result = workload_.text ? sharded_->predict_text_head(batch.text_rows)
                                  : sharded_->predict_head(batch.rows);
        } else {
          result.values =
              workload_.text
                  ? sharded_->predict_text(batch.text_rows).predictions
                  : sharded_->predict(batch.rows).predictions;
        }
      }
      // The cluster reduce returns the confidence, not the top-2 behind it;
      // rebuild rows the writer formats identically.
      top2.assign(batch.refs.size(), hdc::Top2{});
      if (head_ == hdc::serve::HeadMode::Confidence) {
        Scoped child(tracer_, "serve.write");
        for (std::size_t i = 0; i < batch.refs.size(); ++i) {
          writer_->write_class(i, static_cast<std::size_t>(result.values[i]),
                               result.confidences[i], 0.0);
        }
        writer_->flush();
      } else {
        write(batch, result.values, top2, result.bands);
      }
    }
    verify(batch);
    cursor_ += batch.refs.size();
    rows += batch.refs.size();
  }
  const std::vector<double> after = rank_rows();
  std::vector<double> served;
  for (std::size_t r = 0; r < after.size(); ++r) {
    served.push_back(after[r] - before[r]);
  }
  const double mean = std::accumulate(served.begin(), served.end(), 0.0) /
                      static_cast<double>(served.size());
  rank_imbalance_ =
      mean > 0.0 ? *std::max_element(served.begin(), served.end()) / mean : 0.0;
  return rows;
}

std::size_t Replay::core(std::int64_t budget_ns) {
  const hdc::io::Pipeline& pipeline = *pipeline_;
  Batch batch;
  std::vector<hdc::Hypervector> encoded;
  std::vector<double> values;
  std::vector<hdc::Top2> top2;
  std::vector<hdc::Band> bands;
  std::size_t rows = 0;
  const std::int64_t end = now_ns() + budget_ns;
  for (std::int32_t b = 0;
       b < static_cast<std::int32_t>(kMaxBatches) && (b < 2 || now_ns() < end);
       ++b) {
    {
      Scoped span(tracer_, "batch", b);
      parse(batch, cursor_);
      const std::size_t n = batch.refs.size();
      encoded.clear();
      {
        Scoped child(tracer_, "core.encode");
        for (std::size_t i = 0; i < n; ++i) {
          encoded.push_back(workload_.text
                                ? pipeline.encode_text(batch.text_rows[i])
                                : pipeline.encode(batch.rows[i]));
        }
      }
      values.assign(n, 0.0);
      top2.assign(n, hdc::Top2{});
      bands.assign(n, hdc::Band{});
      {
        Scoped child(tracer_, "core.search");
        for (std::size_t i = 0; i < n; ++i) {
          if (workload_.classifier) {
            if (head_ == hdc::serve::HeadMode::Confidence) {
              top2[i] = pipeline.classifier().predict_top2(encoded[i]);
            } else {
              values[i] = static_cast<double>(
                  pipeline.classifier().predict(encoded[i]));
            }
          } else {
            values[i] = pipeline.regressor().predict(encoded[i]);
            if (head_ == hdc::serve::HeadMode::Band) {
              bands[i] = pipeline.regressor().predict_band(encoded[i]);
            }
          }
        }
      }
      write(batch, values, top2, bands);
    }
    verify(batch);
    cursor_ += batch.refs.size();
    rows += batch.refs.size();
  }
  return rows;
}

std::size_t Replay::fanout(std::int64_t budget_ns) {
  hdc::runtime::ThreadPool& pool = *engines_->pool;
  const std::int64_t end = now_ns() + budget_ns;
  std::size_t b = 0;
  for (; b < 10 * kMaxBatches && (b < 2 || now_ns() < end); ++b) {
    Scoped span(tracer_, "runtime.fanout", static_cast<std::int32_t>(b));
    pool.for_chunks(options_.shape.batch,
                    [](std::size_t, std::size_t, std::size_t) {});
  }
  return b;
}

void Replay::run(Result& result) {
  const auto section = [this](const char* name, auto&& body) {
    const std::int64_t start = now_ns();
    tracer_.begin(name);
    const std::size_t units = body();
    tracer_.end();
    return std::pair<std::size_t, double>(
        units, static_cast<double>(now_ns() - start) * 1e-9);
  };
  section("setup", [this] {
    setup();
    return std::size_t{1};
  });
  section("replay", [&] {
    replay(budget(0.35));
    return traced_.rows;
  });
  const std::size_t rows_on = traced_.rows;
  const std::size_t feedback_lines =
      section("feedback", [&] { return feedback(budget(0.15)); }).first;
  const std::size_t cluster_rows =
      section("cluster", [&] { return cluster(budget(0.15)); }).first;
  const std::size_t core_rows =
      section("core", [&] { return core(budget(0.2)); }).first;
  const std::size_t fanout_batches =
      section("fanout", [&] { return fanout(budget(0.05)); }).first;

  // Self time per (section, span name).
  const std::vector<Span>& spans = tracer_.spans;
  std::vector<double> self(spans.size());
  std::vector<std::int32_t> root(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].end - spans[i].start) * 1e-3;
    root[i] = spans[i].parent < 0
                  ? static_cast<std::int32_t>(i)
                  : root[static_cast<std::size_t>(spans[i].parent)];
    if (spans[i].parent >= 0) {
      self[static_cast<std::size_t>(spans[i].parent)] -=
          static_cast<double>(spans[i].end - spans[i].start) * 1e-3;
    }
  }
  std::map<std::pair<std::string, std::string>, double> self_us;
  std::map<std::string, std::vector<double>> durations_ms;
  double traced_us = 0.0;
  double layer_us = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string section_name =
        spans[static_cast<std::size_t>(root[i])].name;
    self_us[{section_name, spans[i].name}] += self[i];
    durations_ms[spans[i].name].push_back(
        static_cast<double>(spans[i].end - spans[i].start) * 1e-6);
    if (spans[i].parent < 0) {
      traced_us += static_cast<double>(spans[i].end - spans[i].start) * 1e-3;
    }
    if (std::string_view(spans[i].name) == "replay") {
      // The untraced half of the replay ran inside this section's span.
      traced_us -= static_cast<double>(untraced_.ns) * 1e-3;
    }
    if (is_layer(spans[i].name)) {
      layer_us += self[i];
    }
  }
  const auto per = [&](const char* section_name, const char* name,
                       std::size_t units) {
    return units == 0 ? 0.0
                      : self_us[{section_name, name}] /
                            static_cast<double>(units);
  };

  std::map<std::string, double>& m = result.metrics;
  m["serve.parse_us_per_row"] = per("replay", "serve.parse", rows_on);
  m["serve.write_us_per_row"] = per("replay", "serve.write", rows_on);
  m["serve.adapt_us"] = per("feedback", "serve.adapt", adapt_lines_);
  m["serve.adapted_us_per_row"] =
      per("feedback", "serve.adapted", adapted_rows_);
  m["serve.adapt_update_ratio"] =
      outcome_.feedback_rows == 0
          ? 0.0
          : static_cast<double>(outcome_.updates) /
                static_cast<double>(outcome_.feedback_rows);
  m["runtime.pool_start_ms"] =
      quantile(durations_ms["runtime.pool_start"], 0.5);
  m["runtime.encode_us_per_row"] = per("replay", "runtime.encode", rows_on);
  m["runtime.search_us_per_row"] = per("replay", "runtime.search", rows_on);
  m["runtime.fanout_us_per_batch"] =
      per("fanout", "runtime.fanout", fanout_batches);
  m["core.encode_us_per_row"] = per("core", "core.encode", core_rows);
  m["core.search_us_per_row"] = per("core", "core.search", core_rows);
  m["runtime.encode_efficiency"] =
      m["core.encode_us_per_row"] /
      (m["runtime.encode_us_per_row"] *
       static_cast<double>(options_.shape.threads));
  m["core.bundle_adds_per_row"] =
      static_cast<double>(bundle_adds_) / static_cast<double>(bundle_rows_);
  // Distances one row evaluates: every class (top-2 or argmin), or the
  // label grid once for the value and once more for the band.
  const double distances =
      static_cast<double>(workload_.num_classes_or_levels) *
      (!workload_.classifier && head_ == hdc::serve::HeadMode::Band ? 2.0
                                                                    : 1.0);
  m["core.scan_bytes_per_row"] =
      distances * static_cast<double>((workload_.dimension + 63) / 64 * 8);
  m["io.open_ms"] = quantile(durations_ms["io.open"], 0.5);
  m["io.restore_ms"] = quantile(durations_ms["io.restore"], 0.5);
  m["cluster.start_ms"] = quantile(durations_ms["cluster.start"], 0.5);
  m["cluster.predict_us_per_row"] =
      per("cluster", "cluster.predict", cluster_rows);
  m["cluster.exchange_us_per_row"] =
      m["cluster.predict_us_per_row"] -
      (m["core.encode_us_per_row"] + m["core.search_us_per_row"]) /
          static_cast<double>(kReplicas);
  m["cluster.rank_imbalance"] = rank_imbalance_;

  const double rate_off = static_cast<double>(untraced_.rows) /
                          (static_cast<double>(untraced_.ns) * 1e-9);
  const double rate_on = static_cast<double>(traced_.rows) /
                         (static_cast<double>(traced_.ns) * 1e-9);
  const double coverage = layer_us / traced_us;
  std::vector<std::string>& r = result.report;
  r.push_back("trace: replay " + fixed(rate_off, 0) + " rows/s spans off, " +
              fixed(rate_on, 0) + " rows/s spans on (overhead " +
              fixed(100.0 * (rate_off - rate_on) / rate_off, 2) + "%)");
  r.push_back("trace: layer self time covers " + fixed(100.0 * coverage, 2) +
              "% of " + fixed(traced_us * 1e-6, 3) + " s traced; " +
              std::to_string(spans.size()) + " spans; " +
              std::to_string(rows_on) + " replay rows, " +
              std::to_string(feedback_lines) + " feedback lines, " +
              std::to_string(cluster_rows) + " cluster rows, " +
              std::to_string(core_rows) + " core rows");
  result.attempted += untraced_.rows + rows_on + cluster_rows + core_rows;
  result.failed += mismatches_;
  if (mismatches_ > 0 || coverage < 0.9) {
    result.correct = false;
    r.push_back("trace: " + std::to_string(mismatches_) +
                " replayed rows differ from the oracle" +
                (coverage < 0.9 ? "; layer coverage below 90%" : ""));
  }

  std::ofstream file(options_.work_dir + "/spans.json");
  file << "{\"workload\": \"" << options_.shape.workload
       << "\", \"seed\": " << options_.seed
       << ", \"fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", "
          "\"batch\"], \"spans\": [";
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    file << (i == 0 ? "\n" : ",\n") << "[\"" << spans[i].name << "\", "
         << spans[i].start - origin << ", " << spans[i].end - origin << ", "
         << spans[i].parent << ", " << spans[i].batch << "]";
  }
  file << "\n]}\n";
}

}  // namespace

void run_traced(const Options& options, const Workload& workload,
                Result& result) {
  Replay replay(options, workload);
  replay.run(result);
}

}  // namespace perfbench
