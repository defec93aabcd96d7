#include "hdc/cluster/worker.hpp"

#include <cstring>
#include <exception>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "hdc/core/bitops.hpp"
#include "hdc/core/classifier.hpp"
#include "hdc/core/confidence.hpp"
#include "hdc/core/hypervector.hpp"
#include "hdc/core/regressor.hpp"
#include "hdc/io/delta.hpp"
#include "hdc/io/reload.hpp"
#include "hdc/serve/prediction_plane.hpp"

namespace hdc::cluster {

namespace {

/// Payload bytes of a numeric predict request header (op, flags, two u64).
constexpr std::size_t kPredictHeader = 1 + 1 + 8 + 8;

[[nodiscard]] std::string error_response(const std::string& message) {
  std::string out;
  out.reserve(1 + message.size());
  out.push_back(static_cast<char>(kWorkerErr));
  out.append(message);
  return out;
}

}  // namespace

void put_u64(std::string& out, std::uint64_t value) {
  char buf[8];
  std::memcpy(buf, &value, sizeof buf);
  out.append(buf, sizeof buf);
}

void put_f64(std::string& out, double value) {
  char buf[8];
  std::memcpy(buf, &value, sizeof buf);
  out.append(buf, sizeof buf);
}

std::uint64_t get_u64(std::string_view payload, std::size_t offset) {
  if (offset + 8 > payload.size()) {
    throw std::out_of_range{"cluster frame: truncated u64 field"};
  }
  std::uint64_t value = 0;
  std::memcpy(&value, payload.data() + offset, sizeof value);
  return value;
}

double get_f64(std::string_view payload, std::size_t offset) {
  if (offset + 8 > payload.size()) {
    throw std::out_of_range{"cluster frame: truncated f64 field"};
  }
  double value = 0;
  std::memcpy(&value, payload.data() + offset, sizeof value);
  return value;
}

std::string encode_ping_request() {
  return std::string(1, static_cast<char>(WorkerOp::Ping));
}

std::string encode_reload_request(const std::string& path) {
  std::string out;
  out.reserve(1 + 8 + path.size());
  out.push_back(static_cast<char>(WorkerOp::Reload));
  put_u64(out, path.size());
  out.append(path);
  return out;
}

std::string encode_stats_request() {
  return std::string(1, static_cast<char>(WorkerOp::Stats));
}

std::string encode_shutdown_request() {
  return std::string(1, static_cast<char>(WorkerOp::Shutdown));
}

std::string encode_adapt_request(double target, const double* features,
                                 std::size_t nfeat) {
  std::string out;
  out.reserve(2 + 8 + 8 + nfeat * 8);
  out.push_back(static_cast<char>(WorkerOp::Adapt));
  out.push_back(0);
  put_f64(out, target);
  put_u64(out, nfeat);
  if (nfeat != 0) {
    out.append(reinterpret_cast<const char*>(features), nfeat * 8);
  }
  return out;
}

std::string encode_adapt_request(double target, std::string_view text) {
  std::string out;
  out.reserve(2 + 8 + 8 + text.size());
  out.push_back(static_cast<char>(WorkerOp::Adapt));
  out.push_back(static_cast<char>(kPredictFlagText));
  put_f64(out, target);
  put_u64(out, text.size());
  out.append(text);
  return out;
}

std::string encode_delta_rows_request() {
  return std::string(1, static_cast<char>(WorkerOp::DeltaRows));
}

std::string encode_predict2_request(const double* rows, std::size_t nrows,
                                    std::size_t nfeat, bool head) {
  std::string out;
  out.reserve(kPredictHeader + nrows * nfeat * 8);
  out.push_back(static_cast<char>(WorkerOp::Predict2));
  out.push_back(static_cast<char>(head ? kPredictFlagHead : 0));
  put_u64(out, nrows);
  put_u64(out, nfeat);
  if (nrows * nfeat != 0) {
    out.append(reinterpret_cast<const char*>(rows), nrows * nfeat * 8);
  }
  return out;
}

std::string encode_predict2_text_request(std::span<const std::string> rows,
                                         bool head) {
  std::size_t bytes = 0;
  for (const std::string& row : rows) {
    bytes += 8 + row.size();
  }
  std::string out;
  out.reserve(2 + 8 + bytes);
  out.push_back(static_cast<char>(WorkerOp::Predict2));
  out.push_back(static_cast<char>(kPredictFlagText |
                                  (head ? kPredictFlagHead : 0)));
  put_u64(out, rows.size());
  for (const std::string& row : rows) {
    put_u64(out, row.size());
    out.append(row);
  }
  return out;
}

Worker::Worker(Config cfg)
    : cfg_(std::move(cfg)),
      state_(std::make_shared<const serve::ServingState>(
          io::load_pipeline(cfg_.snapshot_path, cfg_.integrity, cfg_.mapping),
          1, cfg_.snapshot_path)),
      base_path_(cfg_.snapshot_path),
      adaptive_(std::make_unique<serve::AdaptiveState>(state_)) {
  if (cfg_.replicas == 0) {
    throw std::invalid_argument{"cluster worker: replicas must be >= 1"};
  }
  if (cfg_.rank >= cfg_.replicas) {
    throw std::invalid_argument{"cluster worker: rank out of range"};
  }
}

std::string Worker::handle(std::string_view request) {
  try {
    if (request.empty()) {
      return error_response("empty request frame");
    }
    switch (static_cast<WorkerOp>(request[0])) {
      case WorkerOp::Ping: {
        std::string out(1, static_cast<char>(kWorkerOk));
        put_u64(out, cfg_.rank);
        return out;
      }
      case WorkerOp::Reload:
        return handle_reload(request.substr(1));
      case WorkerOp::Stats: {
        std::string out(1, static_cast<char>(kWorkerOk));
        put_u64(out, cfg_.rank);
        put_u64(out, generation());
        put_u64(out, rows_);
        put_u64(out, batches_);
        return out;
      }
      case WorkerOp::Shutdown:
        shutdown_ = true;
        return std::string(1, static_cast<char>(kWorkerOk));
      case WorkerOp::Adapt:
        return handle_adapt(request.substr(1));
      case WorkerOp::DeltaRows:
        return handle_delta_rows();
      case WorkerOp::Predict2:
        return handle_predict2(request.substr(1));
    }
    return error_response("unknown opcode");
  } catch (const std::exception& e) {
    return error_response(e.what());
  }
}

std::uint8_t Worker::checked_flags(std::string_view body,
                                   std::uint8_t allowed,
                                   const char* what) const {
  if (body.empty()) {
    throw std::invalid_argument{std::string{what} + ": missing flags byte"};
  }
  const auto flags = static_cast<std::uint8_t>(body[0]);
  if ((flags & ~allowed) != 0) {
    throw std::invalid_argument{std::string{what} + ": unknown request flags"};
  }
  const bool text = (flags & kPredictFlagText) != 0;
  const io::PipelineInput input = pipeline().input();
  if (text != (input == io::PipelineInput::Text)) {
    throw std::invalid_argument{std::string{what} + ": request carries " +
                                (text ? "text" : "numeric") +
                                " rows but the pipeline takes " +
                                io::to_string(input) + " rows"};
  }
  return flags;
}

std::vector<Hypervector> Worker::encode_rows(std::string_view body,
                                             std::size_t nrows, bool text,
                                             const char* what) const {
  const io::Pipeline& p = pipeline();
  const std::string prefix = std::string{what} + ": ";
  std::vector<Hypervector> encoded;
  encoded.reserve(nrows);
  std::size_t at = 9;
  if (text) {
    for (std::size_t i = 0; i < nrows; ++i) {
      const std::size_t len = get_u64(body, at);
      at += 8;
      if (len > body.size() - at) {
        throw std::invalid_argument{prefix + "truncated text row"};
      }
      encoded.push_back(p.encode_text(body.substr(at, len)));
      at += len;
    }
    if (at != body.size()) {
      throw std::invalid_argument{prefix + "trailing bytes after text rows"};
    }
    return encoded;
  }
  const std::size_t nfeat = get_u64(body, at);
  if (nfeat != p.num_features()) {
    throw std::invalid_argument{prefix + "feature arity mismatch"};
  }
  if (body.size() != 17 + nrows * nfeat * 8) {
    throw std::invalid_argument{prefix + "truncated row payload"};
  }
  std::vector<double> row(nfeat);
  for (std::size_t i = 0; i < nrows; ++i) {
    std::memcpy(row.data(), body.data() + 17 + i * nfeat * 8, nfeat * 8);
    encoded.push_back(p.encode(row));
  }
  return encoded;
}

std::string Worker::handle_predict2(std::string_view body) {
  const std::uint8_t flags =
      checked_flags(body, kPredictFlagText | kPredictFlagHead, "predict");
  const bool head = (flags & kPredictFlagHead) != 0;
  const std::size_t nrows = get_u64(body, 1);
  const std::vector<Hypervector> encoded =
      encode_rows(body, nrows, (flags & kPredictFlagText) != 0, "predict");
  // Every rank applied the same feedback deterministically, so serving what
  // it published stays bit-identical across the fleet.
  const serve::ServingStatePtr serving = adaptive_->published();

  std::string out;
  out.push_back(static_cast<char>(kWorkerOk));
  put_u64(out, generation());
  put_u64(out, nrows);
  if (cfg_.scheme == ShardScheme::Rows) {
    predict_rows(serving->pipeline(), encoded, head, out);
  } else {
    predict_classes(serving->pipeline(), encoded, head, out);
  }
  rows_ += nrows;
  ++batches_;
  return out;
}

void Worker::predict_rows(const io::Pipeline& served,
                          std::span<const Hypervector> encoded, bool head,
                          std::string& out) const {
  serve::HeadMode mode = serve::HeadMode::None;
  if (head) {
    mode = served.kind() == io::PipelineKind::Classifier
               ? serve::HeadMode::Confidence
               : serve::HeadMode::Band;
  }
  serve::RowScratch scratch(served);
  for (const Hypervector& query : encoded) {
    const serve::RowAnswer answer =
        serve::predict_row(served, query.words(), mode, scratch);
    put_f64(out, answer.value);
    if (mode == serve::HeadMode::Confidence) {
      put_f64(out, answer.confidence);
    } else if (mode == serve::HeadMode::Band) {
      put_f64(out, answer.band.p10);
      put_f64(out, answer.band.p50);
      put_f64(out, answer.band.p90);
    }
  }
}

void Worker::predict_classes(const io::Pipeline& served,
                             std::span<const Hypervector> encoded, bool head,
                             std::string& out) const {
  const bool classifies = served.kind() == io::PipelineKind::Classifier;
  // The scanned arena: class-vectors for a classifier, the label basis for
  // a regressor (whose query is the self-inverse unbinding model ⊗ phi(x̂)).
  std::span<const std::uint64_t> arena;
  std::size_t stride = 0;
  std::size_t candidates = 0;
  if (classifies) {
    const CentroidClassifier& model = served.classifier();
    arena = model.packed_class_words();
    stride = model.words_per_class();
    candidates = model.num_classes();
  } else {
    const Basis& labels = served.regressor().labels().basis();
    arena = labels.packed_words();
    stride = labels.words_per_vector();
    candidates = labels.size();
  }
  const std::size_t begin = shard_begin(cfg_.rank, cfg_.replicas, candidates);
  const std::size_t end = shard_end(cfg_.rank, cfg_.replicas, candidates);

  if (!classifies && head) {
    // The head-carrying regressor frame leads with the slice width; rank
    // profiles concatenated in rank order rebuild the full grid profile.
    put_u64(out, end - begin);
  }
  std::vector<std::uint64_t> bound;
  for (const Hypervector& query : encoded) {
    if (begin == end) {
      // Empty slice (more ranks than candidates): all-ones sentinels for
      // candidate frames, zero-width profiles for regressor heads.
      if (!classifies && head) {
        continue;
      }
      const int sentinels = classifies && head ? 4 : 2;
      for (int k = 0; k < sentinels; ++k) {
        put_u64(out, kNoCandidate);
      }
      continue;
    }
    if (classifies) {
      if (head) {
        const Top2 top = top2_hamming(
            query.words(), arena.subspan(begin * stride), stride,
            end - begin, begin);
        put_u64(out, top.best.distance);
        put_u64(out, top.best.index);
        put_u64(out, top.second.distance);
        put_u64(out, top.second.index);
      } else {
        const bits::NearestMatch best = bits::nearest_hamming(
            query.words(), arena.subspan(begin * stride), stride,
            end - begin);
        put_u64(out, best.distance);
        put_u64(out, begin + best.index);
      }
      continue;
    }
    // Unbind against the served model; the scanned label basis is shared
    // with the base, so only the query changes.
    const std::span<const std::uint64_t> model =
        served.regressor().model().words();
    bound.resize(query.words().size());
    for (std::size_t w = 0; w < bound.size(); ++w) {
      bound[w] = model[w] ^ query.words()[w];
    }
    const std::span<const std::uint64_t> unbound{bound};
    if (head) {
      for (std::size_t j = begin; j < end; ++j) {
        put_u64(out, bits::hamming(unbound, arena.subspan(j * stride,
                                                          stride)));
      }
    } else {
      const bits::NearestMatch best = bits::nearest_hamming(
          unbound, arena.subspan(begin * stride), stride, end - begin);
      put_u64(out, best.distance);
      put_u64(out, begin + best.index);
    }
  }
}

std::string Worker::handle_reload(std::string_view body) {
  const std::size_t len = get_u64(body, 0);
  if (body.size() != 8 + len) {
    throw std::invalid_argument{"reload: truncated path"};
  }
  std::string path(body.substr(8, len));
  if (path.empty()) {
    path = source_path();
  }
  const bool is_delta = io::snapshot_is_delta(path);
  io::LoadedPipeline fresh =
      io::load_pipeline_or_delta(path, base_path_, cfg_.integrity,
                                 cfg_.mapping);
  io::ensure_swappable(fresh.pipeline, pipeline());
  state_ = std::make_shared<const serve::ServingState>(
      std::move(fresh), generation() + 1, path);
  if (!is_delta) {
    base_path_ = path;
  }
  // Any reload retires the adaptation: its feedback targeted the old
  // generation.  (A delta reload of its own export serves the identical
  // model, now as the base.)
  adaptive_ = std::make_unique<serve::AdaptiveState>(state_);
  std::string out(1, static_cast<char>(kWorkerOk));
  put_u64(out, generation());
  return out;
}

std::string Worker::handle_adapt(std::string_view body) {
  const bool text =
      (checked_flags(body, kPredictFlagText, "adapt") & kPredictFlagText) != 0;
  const double target = get_f64(body, 1);
  // AdaptiveState validates the sample before it updates anything, so a
  // rejected one leaves the rank exactly as it was (every rank must stay
  // in lockstep).
  const serve::AdaptOutcome outcome = adaptive_->adapt_encoded(
      encode_rows(body, 1, text, "adapt").front(), target);
  std::string out(1, static_cast<char>(kWorkerOk));
  put_u64(out, generation());
  put_f64(out, outcome.predicted);
  put_u64(out, outcome.updated ? 1 : 0);
  put_u64(out, outcome.feedback_rows);
  put_u64(out, outcome.updates);
  put_u64(out, outcome.overlay_rows);
  return out;
}

std::string Worker::handle_delta_rows() {
  // Diff against the base *file*, not the in-memory base model: rows a
  // delta reload already changed must stay in the next patch, and adapted
  // rows that drifted back to the base must drop out.
  const io::MappedSnapshot base = io::MappedSnapshot::open(base_path_);
  const auto rows = adaptive_->diff_rows(base, io::find_model_section(base));
  const std::uint64_t wpr = (pipeline().dimension() + 63) / 64;
  std::string out(1, static_cast<char>(kWorkerOk));
  put_u64(out, generation());
  put_u64(out, rows.size());
  put_u64(out, wpr);
  for (const auto& [index, words] : rows) {
    put_u64(out, index);
    out.append(reinterpret_cast<const char*>(words.data()),
               words.size() * 8);
  }
  return out;
}

}  // namespace hdc::cluster
