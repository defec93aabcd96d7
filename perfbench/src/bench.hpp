#ifndef HDC_PERFBENCH_BENCH_HPP
#define HDC_PERFBENCH_BENCH_HPP

/// \file bench.hpp
/// \brief Shared types of the serving benchmark binary.
///
/// One hdc_perfbench process runs one workload: it builds the workload's model
/// snapshot and seeded inputs (workload.cpp), drives a real `hdcgen serve`
/// process from one load-generator thread (loadgen.cpp), and optionally
/// replays the same inputs in process with spans around every layer call
/// (trace.cpp).  Every response is checked byte for byte against an oracle
/// computed from per-row `io::Pipeline` calls.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hdc/io/pipeline.hpp"
#include "hdc/serve/adaptive_state.hpp"
#include "hdc/serve/prediction_writer.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The serving shape of one workload (perfbench/workloads.json).
struct Shape {
  std::string workload;
  std::string model;        ///< "beijing" | "jigsaws" | "text".
  std::size_t replicas = 0;       ///< 0 = one process, else --replicas N.
  std::size_t batch = 64;         ///< --batch, and the traced batch size.
  std::size_t threads = 2;        ///< --threads, and the traced pool size.
  bool head = false;              ///< --head (confidence or band column).
  double paced_rate = 1000.0;     ///< Base rows/s in the paced phase.
  /// Feedback connection: adapted predictions per `!adapt` line (0 = none).
  std::size_t feedback_every = 0;
  double feedback_rate = 0.0;     ///< Feedback lines/s, in both phases.

  /// Text is scored offline through the server's stdin; the other models
  /// are served on a Unix socket.
  [[nodiscard]] bool stdin_pipe() const { return model == "text"; }
};

struct Options {
  Shape shape;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string hdcgen;    ///< Path of the server binary.
  std::string work_dir;  ///< Scratch directory for snapshot, socket, logs.
};

/// The model and seeded inputs of one workload, with the oracle.
struct Workload {
  std::string snapshot_path;
  bool text = false;
  bool classifier = false;
  std::size_t dimension = 0;
  std::size_t num_classes_or_levels = 0;  ///< Classes, or label levels.
  std::size_t num_features = 0;
  /// Distinct data lines (the wire bytes, no newline), their true targets
  /// and the oracle reply to each (with newline).
  std::vector<std::string> lines;
  std::vector<double> truth;
  std::vector<std::string> expected;
  std::vector<double> predicted;  ///< The oracle's prediction per line.
  /// Seeded cycle over `lines`; each connection walks it from its own
  /// offset.
  std::vector<std::uint32_t> order;
  /// Bundle operations one row costs to encode (per line).
  std::vector<std::uint32_t> bundle_adds;
  /// Paper readout over the whole pool (accuracy or RMSE), in process.
  double pool_score = 0.0;
  const char* score_name = "";
};

/// Builds the snapshot under work_dir and the seeded inputs plus oracle.
Workload build_workload(const Options& options);

/// The feedback connection's line sequence: `!adapt T ROW` followed by
/// `every` adapted predictions, cycling.  Deterministic in the seed.
struct FeedbackLine {
  bool adapt = false;
  std::uint32_t ref = 0;  ///< Index into workload.lines.
};
FeedbackLine feedback_line(const Workload& workload, std::size_t every,
                           std::size_t index);
std::string feedback_wire(const Workload& workload, const FeedbackLine& line);

/// In-process oracle for the feedback connection: replays its lines in
/// order through an `AdaptiveState` over the same snapshot (default seed)
/// and returns each expected reply, exactly as NetServer formats it.
class FeedbackOracle {
 public:
  FeedbackOracle(const Workload& workload, bool with_head);
  /// Reply to `!adapt`.
  std::string adapt(const Workload& workload, std::uint32_t ref);
  /// Reply to one adapted prediction row.
  std::string predict(const Workload& workload, std::uint32_t ref);

 private:
  std::unique_ptr<hdc::serve::AdaptiveState> state_;
  bool head_;
};

/// Parses one wire line back into features exactly as the server does.
std::vector<double> parse_features(const Workload& workload,
                                   const std::string& line);

/// Ordered metric name -> value, plus free-form report lines.
struct Result {
  std::map<std::string, double> metrics;
  /// Validity of each phase (`saturate.host_busy`, `paced.host_busy`,
  /// `paced.generator_late`): a set flag means the phase's figures say
  /// more about the host or the generator than about the server.
  std::map<std::string, bool> flags;
  std::vector<std::string> report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
};

/// The end-to-end run against a real `hdcgen serve` process; fills the
/// end-to-end metrics (and `serve.batch_fill`) into \p result.
void run_end_to_end(const Options& options, const Workload& workload,
                    Result& result);

/// The traced in-process replay; fills the per-layer metrics and writes
/// the spans to work_dir/spans.json.
void run_traced(const Options& options, const Workload& workload,
                Result& result);

/// The q-quantile (nearest rank) of \p values; 0 when empty.
double quantile(std::vector<double> values, double q);

/// \p value with \p digits decimals, for report lines.
std::string fixed(double value, int digits);

}  // namespace perfbench

#endif  // HDC_PERFBENCH_BENCH_HPP
