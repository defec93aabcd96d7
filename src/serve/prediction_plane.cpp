#include "hdc/serve/prediction_plane.hpp"

#include "hdc/core/bitops.hpp"

namespace hdc::serve {

RowScratch::RowScratch(const io::Pipeline& pipeline) {
  if (pipeline.kind() == io::PipelineKind::Classifier) {
    distances.resize(pipeline.classifier().num_classes());
  } else {
    bound.resize(bits::words_for(pipeline.dimension()));
    distances.resize(pipeline.regressor().labels().size());
  }
}

RowAnswer predict_row(const io::Pipeline& pipeline,
                      std::span<const std::uint64_t> encoded, HeadMode head,
                      RowScratch& scratch) {
  RowAnswer answer;
  if (pipeline.kind() == io::PipelineKind::Classifier) {
    const CentroidClassifier& model = pipeline.classifier();
    if (head == HeadMode::Confidence) {
      const Top2 top = top2_hamming(encoded, model.packed_class_words(),
                                    model.words_per_class(),
                                    model.num_classes(), 0, scratch.distances);
      answer.value = static_cast<double>(top.best.index);
      answer.confidence = margin_confidence(top);
    } else {
      answer.value = static_cast<double>(model.predict_words(encoded));
    }
  } else if (head == HeadMode::Band) {
    const BandedValue banded = pipeline.regressor().predict_with_band(
        encoded, scratch.bound, scratch.distances);
    answer.value = banded.value;
    answer.band = banded.band;
  } else {
    answer.value = pipeline.regressor().predict(encoded, scratch.bound);
  }
  return answer;
}

}  // namespace hdc::serve
