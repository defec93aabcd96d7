#include "hdc/serve/batch_loop.hpp"

#include <span>
#include <stdexcept>

namespace hdc::serve {

void check_plane_fit(const PredictionPlane& plane, RowFormat format,
                     std::size_t arity, HeadMode head,
                     const std::string& who) {
  if ((plane.input() == io::PipelineInput::Text) !=
      (format == RowFormat::Text)) {
    throw std::invalid_argument(who + ": the pipeline takes " +
                                io::to_string(plane.input()) +
                                " rows but the input format disagrees");
  }
  if (arity != plane.num_features()) {
    throw std::invalid_argument(
        who + ": input arity " + std::to_string(arity) +
        " disagrees with the pipeline's " +
        std::to_string(plane.num_features()) + " features");
  }
  const bool classifies = plane.kind() == io::PipelineKind::Classifier;
  if (head == (classifies ? HeadMode::Band : HeadMode::Confidence)) {
    throw std::invalid_argument(who +
                                ": confidence heads come from classifiers "
                                "and band heads from regressors");
  }
}

BatchLoop::BatchLoop(PredictionPlane& plane, RowReader& reader,
                     PredictionWriter& writer, std::size_t batch_size,
                     ServeCounters& counters)
    : plane_(plane),
      reader_(reader),
      writer_(writer),
      batch_size_(batch_size),
      counters_(counters),
      text_(plane.input() == io::PipelineInput::Text),
      classifies_(plane.kind() == io::PipelineKind::Classifier) {
  check_plane_fit(plane, reader.format(), reader.num_features(),
                  writer.head(), "BatchLoop");
  admitted_.reserve(batch_size);
}

bool BatchLoop::admit(const std::string* line) {
  const std::size_t slot = admitted_.size();
  bool admitted = false;
  try {
    if (text_) {
      if (slot == text_rows_.size()) {
        text_rows_.emplace_back();
      }
      admitted = line != nullptr
                     ? reader_.parse_text_line(*line, text_rows_[slot])
                     : reader_.next_text(text_rows_[slot]);
    } else {
      if (slot == rows_.size()) {
        rows_.emplace_back();
      }
      admitted = line != nullptr ? reader_.parse_line(*line, rows_[slot])
                                 : reader_.next(rows_[slot]);
    }
  } catch (const RowError&) {
    // Serve every row admitted before the bad one, then surface it.
    flush();
    throw;
  }
  if (!admitted) {
    return false;
  }
  admitted_.push_back(clock::now());
  if (admitted_.size() >= batch_size_) {
    flush();
  }
  return true;
}

void BatchLoop::flush() {
  const std::size_t count = admitted_.size();
  if (count == 0) {
    return;
  }
  const HeadMode head = writer_.head();
  plane_.predict(text_ ? RowBatch{{}, std::span(text_rows_).first(count)}
                       : RowBatch{std::span(rows_).first(count), {}},
                 head, adapted_, out_);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t row = next_row_ + i;
    const double value = out_.values[i];
    const double latency_us =
        std::chrono::duration<double, std::micro>(clock::now() - admitted_[i])
            .count();
    if (head == HeadMode::Band) {
      writer_.write_band(row, value, out_.bands[i], latency_us);
    } else if (!classifies_) {
      writer_.write(row, value, latency_us);
    } else if (head == HeadMode::Confidence) {
      writer_.write_class(row, static_cast<std::size_t>(value),
                          out_.confidences[i], latency_us);
    } else {
      writer_.write_class(row, static_cast<std::size_t>(value), latency_us);
    }
  }
  writer_.flush();
  next_row_ += count;
  admitted_.clear();
  counters_.rows.fetch_add(count, std::memory_order_relaxed);
  counters_.batches.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace hdc::serve
