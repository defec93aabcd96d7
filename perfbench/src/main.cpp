// hdc_perfbench — runs one serving workload end to end (and, with
// --trace 1, the traced in-process replay) and prints report lines followed
// by one JSON line of metrics.  perfbench/run.py is the entry point; it
// passes the workload's shape from perfbench/workloads.json.

#include <signal.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

std::string flag(int argc, char** argv, const std::string& name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == name) {
      return argv[i + 1];
    }
  }
  throw std::invalid_argument("missing " + name);
}

std::size_t count(int argc, char** argv, const std::string& name) {
  return static_cast<std::size_t>(std::stoull(flag(argc, argv, name)));
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);  // a dead server is a failed write, not death
  try {
    perfbench::Options options;
    perfbench::Shape& shape = options.shape;
    shape.workload = flag(argc, argv, "--workload");
    shape.model = flag(argc, argv, "--model");
    shape.replicas = count(argc, argv, "--replicas");
    shape.batch = count(argc, argv, "--batch");
    shape.threads = count(argc, argv, "--threads");
    shape.head = count(argc, argv, "--head") != 0;
    shape.paced_rate = std::stod(flag(argc, argv, "--paced-rate"));
    shape.feedback_every = count(argc, argv, "--feedback-every");
    shape.feedback_rate = std::stod(flag(argc, argv, "--feedback-rate"));
    options.seed = std::stoull(flag(argc, argv, "--seed"));
    options.seconds = std::stod(flag(argc, argv, "--seconds"));
    options.trace = count(argc, argv, "--trace") != 0;
    if (options.trace) {
      options.seconds /= 2.0;  // the end-to-end run and the replay share it
    }
    options.hdcgen = flag(argc, argv, "--hdcgen");
    options.work_dir = flag(argc, argv, "--work-dir");
    std::filesystem::create_directories(options.work_dir);

    const perfbench::Workload workload = perfbench::build_workload(options);
    perfbench::Result result;
    result.report.push_back(
        "model: " + std::to_string(workload.lines.size()) + " distinct rows, " +
        workload.score_name + " over the pool " +
        std::to_string(workload.pool_score));
    perfbench::run_end_to_end(options, workload, result);
    if (options.trace) {
      perfbench::run_traced(options, workload, result);
    }

    for (const std::string& line : result.report) {
      std::printf("  %s\n", line.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    const char* sep = "";
    for (const auto& [name, value] : result.metrics) {
      if (std::isfinite(value)) {
        std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
      } else {
        std::printf("%s\"%s\": null", sep, name.c_str());
      }
      sep = ", ";
    }
    std::printf("}, \"flags\": {");
    sep = "";
    for (const auto& [name, set] : result.flags) {
      std::printf("%s\"%s\": %s", sep, name.c_str(), set ? "true" : "false");
      sep = ", ";
    }
    std::printf("}}\n");
    return result.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "hdc_perfbench: %s\n", error.what());
    return 2;
  }
}
