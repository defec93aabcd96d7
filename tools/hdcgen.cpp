// hdcgen — generate, inspect, compare and serve basis-hypervector and
// model snapshots.
//
// Usage:
//   hdcgen gen  --kind random|level|level-flip|circular|circular-cos|scatter
//               --size M [--dim D] [--r R] [--seed S] --out FILE
//                               # one basis in a basis-only snapshot
//   hdcgen info FILE            # provenance + summary statistics
//   hdcgen dist FILE            # pairwise distance matrix
//   hdcgen heatmap FILE         # ASCII similarity heat map (paper Fig. 3)
//                               # (info/dist/heatmap read a snapshot that
//                               # holds exactly one basis section)
//   hdcgen snap ...             # same as gen
//   hdcgen snap --pipeline classifier|regressor|beijing|text [--dim D]
//               [--seed S] --out FILE
//                               # a complete encode->predict pipeline
//                               # (text: n-gram encoder + language
//                               # classifier over raw-text rows)
//   hdcgen snap-info FILE       # snapshot header + section table + verify
//   hdcgen snap-fixtures DIR    # regenerate the golden-file fixture set
//   hdcgen delta BASE ADAPTED --out FILE
//                               # changed-row HDCS delta between two full
//                               # snapshots (docs/online_learning.md)
//   hdcgen patch BASE DELTA --out FILE
//                               # apply a delta back onto its base; output
//                               # is byte-identical to the adapted snapshot
//   hdcgen serve SNAPSHOT [--batch N] [--flush-us U] [--threads T]
//               [--input csv|jsonl|text] [--format plain|csv|jsonl]
//               [--head] [--latency] [--trust] [--kernel NAME] [--mlock]
//               [--listen HOST:PORT] [--unix PATH] [--max-conns N]
//               [--replicas N] [--shard rows|classes]
//               [--backend loopback|fork]
//                               # stream rows stdin -> predictions stdout
//                               # (--input text: one raw sample per line
//                               # for text pipelines); with
//                               # --listen/--unix, serve many persistent
//                               # socket connections with SIGHUP snapshot
//                               # hot-reload (docs/serving.md); --head adds
//                               # the margin-confidence column (classifier)
//                               # or the p10/p50/p90 band (regressor);
//                               # --replicas shards the work across N
//                               # worker ranks, bit-identical to one
//                               # process (docs/cluster.md)
//   hdcgen kernels              # CPU features + compiled/available SIMD
//                               # kernel variants + active selection
//
// Every file this tool reads or writes is an mmap-able HDCS snapshot
// (hdc/io/snapshot, docs/snapshot_format.md).
//
// Flags follow the `--name value` / `--name=value` shape shared by every
// subcommand (tools/flag_parser.hpp).

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "flag_parser.hpp"
#include "hdc/cluster/cluster.hpp"
#include "hdc/core/hdc.hpp"
#include "hdc/core/kernels.hpp"
#include "hdc/experiments/table.hpp"
#include "hdc/io/fixture_models.hpp"
#include "hdc/io/io.hpp"
#include "hdc/serve/serve.hpp"

namespace {

int usage() {
  std::fputs(
      "usage:\n"
      "  hdcgen gen --kind KIND --size M [--dim D] [--r R] [--seed S] --out FILE\n"
      "       KIND: random | level | level-flip | circular | circular-cos | scatter\n"
      "  hdcgen info FILE\n"
      "  hdcgen dist FILE\n"
      "  hdcgen heatmap FILE\n"
      "  hdcgen snap --kind KIND --size M [--dim D] [--r R] [--seed S] --out FILE\n"
      "  hdcgen snap --pipeline classifier|regressor|beijing|text [--dim D]\n"
      "              [--seed S] --out FILE\n"
      "  hdcgen snap-info FILE\n"
      "  hdcgen snap-fixtures DIR [--dim D] [--size M] [--seed S]\n"
      "  hdcgen delta BASE ADAPTED --out FILE\n"
      "  hdcgen patch BASE DELTA --out FILE\n"
      "  hdcgen serve SNAPSHOT [--batch N] [--flush-us U] [--threads T]\n"
      "              [--input csv|jsonl|text] [--format plain|csv|jsonl]\n"
      "              [--head] [--latency] [--trust] [--kernel NAME] [--mlock]\n"
      "              [--listen HOST:PORT] [--unix PATH] [--max-conns N]\n"
      "              [--replicas N] [--shard rows|classes]\n"
      "              [--backend loopback|fork]\n"
      "       without --listen/--unix: stdin -> stdout; with them: a\n"
      "       persistent socket server with SIGHUP snapshot hot-reload;\n"
      "       --input text streams raw samples (text pipelines); --head\n"
      "       adds the confidence column / p10-p50-p90 band;\n"
      "       --replicas shards work across N worker ranks (docs/cluster.md)\n"
      "  hdcgen kernels\n",
      stderr);
  return 2;
}

using hdc::tools::FlagParser;

/// The one basis section of the snapshot at \p path (what gen writes), as
/// an owning copy; info/dist/heatmap refuse a file with none or several.
hdc::Basis load_basis(const std::string& path) {
  const auto snapshot = hdc::io::MappedSnapshot::open(path);
  std::size_t found = 0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < snapshot.section_count(); ++i) {
    if (snapshot.section(i).type == hdc::io::SectionType::BasisArena) {
      found = i;
      ++count;
    }
  }
  if (count != 1) {
    throw std::runtime_error(
        path + " holds " + std::to_string(count) +
        " basis sections; info, dist and heatmap read a file with exactly "
        "one (hdcgen gen)");
  }
  return snapshot.basis(found).detach();
}

/// Builds the basis described by the gen/snap command-line flags; empty on
/// a malformed or missing flag set.
std::optional<hdc::Basis> basis_from_args(const FlagParser& flags) {
  const auto kind = flags.value("--kind");
  if (!kind || !flags.value("--size")) {
    return std::nullopt;
  }
  const std::size_t m = flags.count("--size", 1);
  const std::size_t dim = flags.count_or("--dim", 1, 10'000);
  const double r = flags.real_or("--r", 0.0);
  const std::uint64_t seed = flags.u64_or("--seed", 1);

  std::optional<hdc::Basis> basis;
  if (*kind == "random") {
    hdc::RandomBasisConfig config;
    config.dimension = dim;
    config.size = m;
    config.seed = seed;
    basis.emplace(hdc::make_random_basis(config));
  } else if (*kind == "level" || *kind == "level-flip") {
    hdc::LevelBasisConfig config;
    config.dimension = dim;
    config.size = m;
    config.method = *kind == "level" ? hdc::LevelMethod::Interpolation
                                     : hdc::LevelMethod::ExactFlip;
    config.r = r;
    config.seed = seed;
    basis.emplace(hdc::make_level_basis(config));
  } else if (*kind == "circular" || *kind == "circular-cos") {
    hdc::CircularBasisConfig config;
    config.dimension = dim;
    config.size = m;
    config.r = r;
    config.profile = *kind == "circular" ? hdc::CircularProfile::Triangular
                                         : hdc::CircularProfile::Cosine;
    config.seed = seed;
    basis.emplace(hdc::make_circular_basis(config));
  } else if (*kind == "scatter") {
    hdc::ScatterBasisConfig config;
    config.dimension = dim;
    config.size = m;
    config.seed = seed;
    basis.emplace(hdc::make_scatter_basis(config));
  } else {
    std::fprintf(stderr, "unknown kind '%s'\n", kind->c_str());
    return std::nullopt;
  }
  return basis;
}

void print_basis_summary(const char* path, const hdc::Basis& basis) {
  const hdc::BasisInfo& info = basis.info();
  std::printf("wrote %s: %s basis, m = %zu, d = %zu, r = %.3f, seed = %llu\n",
              path, hdc::to_string(info.kind), info.size, info.dimension,
              info.r, static_cast<unsigned long long>(info.seed));
}

/// `gen`, and `snap` without --pipeline: one basis in a basis-only
/// snapshot.
int cmd_gen(const FlagParser& flags) {
  const auto out_path = flags.value("--out");
  const auto basis = basis_from_args(flags);
  if (!basis || !out_path) {
    return usage();
  }
  hdc::io::SnapshotWriter writer;
  writer.add_basis(*basis);
  writer.write_file(*out_path);
  print_basis_summary(out_path->c_str(), *basis);
  return 0;
}

/// The fixture spec shared by snap --pipeline and snap-fixtures; only
/// explicit flags override the canonical defaults.
hdc::io::fixtures::FixtureSpec spec_from_args(const FlagParser& flags) {
  hdc::io::fixtures::FixtureSpec spec;
  spec.dimension = flags.count_or("--dim", 1, spec.dimension);
  spec.size = flags.count_or("--size", 1, spec.size);
  spec.seed = flags.u64_or("--seed", spec.seed);
  return spec;
}

int cmd_snap(const FlagParser& flags) {
  const auto out_path = flags.value("--out");
  if (!out_path) {
    return usage();
  }
  if (const auto pipeline = flags.value("--pipeline")) {
    const hdc::io::fixtures::FixtureSpec spec = spec_from_args(flags);
    hdc::io::SnapshotWriter writer;
    // The writer records spans into the models' arenas, so whichever
    // pipeline is built must outlive write_file() (a scope-local `models`
    // here once serialized dangling storage — checksum-consistently, which
    // is why only restoring the file, not snap-info, could catch it).
    std::optional<hdc::io::fixtures::ClassifierPipeline> classifier_models;
    std::optional<hdc::io::fixtures::RegressorPipeline> regressor_models;
    std::optional<hdc::io::fixtures::BeijingPipeline> beijing_models;
    std::optional<hdc::io::fixtures::TextPipeline> text_models;
    if (*pipeline == "classifier") {
      classifier_models.emplace(
          hdc::io::fixtures::make_classifier_pipeline(spec));
      writer.add_pipeline(classifier_models->encoder,
                          classifier_models->model);
    } else if (*pipeline == "regressor") {
      regressor_models.emplace(
          hdc::io::fixtures::make_regressor_pipeline(spec));
      writer.add_pipeline(*regressor_models->encoder,
                          regressor_models->model);
    } else if (*pipeline == "beijing") {
      beijing_models.emplace(hdc::io::fixtures::make_beijing_pipeline(spec));
      writer.add_pipeline(*beijing_models->encoder, beijing_models->model);
    } else if (*pipeline == "text") {
      text_models.emplace(hdc::io::fixtures::make_text_pipeline(spec));
      writer.add_pipeline(text_models->encoder, text_models->model);
    } else {
      std::fprintf(stderr, "unknown pipeline '%s'\n", pipeline->c_str());
      return usage();
    }
    writer.write_file(*out_path);
    std::printf("wrote %s: %s pipeline, d = %zu, seed = %llu (%zu sections)\n",
                out_path->c_str(), pipeline->c_str(), spec.dimension,
                static_cast<unsigned long long>(spec.seed),
                writer.section_count());
    return 0;
  }
  return cmd_gen(flags);
}

int cmd_snap_info(const std::string& path) {
  const hdc::io::MappedSnapshot snapshot = hdc::io::MappedSnapshot::open(path);
  std::printf("file:       %s\n", path.c_str());
  std::printf("format:     HDCS v%u, %s-backed\n",
              static_cast<unsigned>(hdc::io::snapshot_version),
              snapshot.zero_copy() ? "mmap" : "heap");
  std::printf("bytes:      %llu\n",
              static_cast<unsigned long long>(snapshot.file_bytes()));
  std::printf("sections:   %zu\n", snapshot.section_count());
  for (std::size_t i = 0; i < snapshot.section_count(); ++i) {
    const hdc::io::SectionRecord& record = snapshot.section(i);
    const char* type = "?";
    switch (record.type) {
      case hdc::io::SectionType::BasisArena:
        type = "basis";
        break;
      case hdc::io::SectionType::ClassifierClassVectors:
        type = "classifier";
        break;
      case hdc::io::SectionType::RegressorModel:
        type = "regressor";
        break;
      case hdc::io::SectionType::ScalarEncoderConfig:
        type = "scalar-enc";
        break;
      case hdc::io::SectionType::MultiScaleEncoderConfig:
        type = "multiscale";
        break;
      case hdc::io::SectionType::FeatureEncoderConfig:
        type = "featureenc";
        break;
      case hdc::io::SectionType::PipelineHead:
        type = "pipeline";
        break;
      case hdc::io::SectionType::SequenceEncoderConfig:
        type = "sequence";
        break;
      case hdc::io::SectionType::ComposedEncoderConfig:
        type = "composed";
        break;
      case hdc::io::SectionType::DeltaPatch:
        type = "delta";
        break;
    }
    std::printf(
        "  [%zu] %-10s d=%llu rows=%llu offset=%llu bytes=%llu xxh64=%016llx",
        i, type, static_cast<unsigned long long>(record.dimension),
        static_cast<unsigned long long>(record.count),
        static_cast<unsigned long long>(record.payload_offset),
        static_cast<unsigned long long>(record.payload_bytes),
        static_cast<unsigned long long>(record.payload_checksum));
    switch (record.type) {
      case hdc::io::SectionType::BasisArena:
        std::printf(" kind=%s",
                    hdc::to_string(static_cast<hdc::BasisKind>(record.kind)));
        break;
      case hdc::io::SectionType::RegressorModel:
      case hdc::io::SectionType::ScalarEncoderConfig:
        if (record.label_encoder == hdc::io::LabelEncoderKind::Linear) {
          std::printf(" enc=linear[%g, %g]", record.param_a, record.param_b);
        } else {
          std::printf(" enc=circular period=%g", record.param_b);
        }
        std::printf(" basis=[%llu]",
                    static_cast<unsigned long long>(record.aux_section));
        break;
      case hdc::io::SectionType::MultiScaleEncoderConfig: {
        std::printf(" period=%g scales={", record.param_b);
        for (std::size_t s = 0; s < record.kind; ++s) {
          std::printf("%s%llu", s == 0 ? "" : ", ",
                      static_cast<unsigned long long>(record.scales[s]));
        }
        std::printf("} basis=[%llu]",
                    static_cast<unsigned long long>(record.aux_section));
        break;
      }
      case hdc::io::SectionType::FeatureEncoderConfig:
        std::printf(" keys=[%llu] values=[%llu]",
                    static_cast<unsigned long long>(record.aux_section),
                    static_cast<unsigned long long>(record.aux_section_b));
        break;
      case hdc::io::SectionType::PipelineHead:
        std::printf(" encoder=[%llu] model=[%llu]",
                    static_cast<unsigned long long>(record.aux_section),
                    static_cast<unsigned long long>(record.aux_section_b));
        break;
      case hdc::io::SectionType::SequenceEncoderConfig:
        if (record.kind == 0) {
          std::printf(" enc=sequence");
        } else {
          std::printf(" enc=ngram n=%u", static_cast<unsigned>(record.method));
        }
        break;
      case hdc::io::SectionType::ComposedEncoderConfig: {
        std::printf(" parts=[%llu, %llu",
                    static_cast<unsigned long long>(record.aux_section),
                    static_cast<unsigned long long>(record.aux_section_b));
        for (std::size_t s = 2; s < record.kind; ++s) {
          std::printf(", %llu",
                      static_cast<unsigned long long>(record.scales[s - 2] - 1));
        }
        std::printf("]");
        break;
      }
      case hdc::io::SectionType::DeltaPatch:
        std::printf(
            " target=%s base_section=[%llu] base_rows=%llu "
            "base_xxh64=%016llx",
            static_cast<hdc::io::SectionType>(record.kind) ==
                    hdc::io::SectionType::ClassifierClassVectors
                ? "classifier"
                : "regressor",
            static_cast<unsigned long long>(record.aux_section),
            static_cast<unsigned long long>(record.aux_section_b),
            static_cast<unsigned long long>(record.seed));
        break;
      case hdc::io::SectionType::ClassifierClassVectors:
        break;
    }
    std::printf("\n");
  }
  snapshot.verify();
  std::printf("checksums:  all sections OK\n");
  return 0;
}

/// `hdcgen delta BASE ADAPTED --out FILE`: recovers the changed-row patch
/// between two full snapshots of the same layout (the pair an offline
/// adapt-and-save pass produces) and writes it as a standalone delta file.
int cmd_delta(const FlagParser& flags, const std::string& base,
              const std::string& adapted) {
  const auto out = flags.value("--out");
  if (!out) {
    return usage();
  }
  const hdc::io::DeltaPatch patch = hdc::io::diff_snapshots(base, adapted);
  hdc::io::write_delta_file(patch, *out);
  std::printf("wrote %s: %llu of %llu rows changed vs %s (xxh64 %016llx)\n",
              out->c_str(),
              static_cast<unsigned long long>(patch.changed_rows()),
              static_cast<unsigned long long>(patch.base_rows), base.c_str(),
              static_cast<unsigned long long>(patch.base_hash));
  return 0;
}

/// `hdcgen patch BASE DELTA --out FILE`: applies a delta back onto its base
/// file; the output is byte-identical to the adapted snapshot the delta was
/// taken from.
int cmd_patch(const FlagParser& flags, const std::string& base,
              const std::string& delta) {
  const auto out = flags.value("--out");
  if (!out) {
    return usage();
  }
  hdc::io::apply_delta_file(base, delta, *out);
  std::printf("wrote %s: %s patched with %s\n", out->c_str(), base.c_str(),
              delta.c_str());
  return 0;
}

int cmd_snap_fixtures(const FlagParser& flags, const std::string& dir) {
  // FixtureSpec's member initializers are the single source of the default
  // shape; only explicit flags override them.
  const auto written =
      hdc::io::fixtures::write_all(dir, spec_from_args(flags));
  for (const std::string& path : written) {
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

#if !defined(_WIN32)
// Signal plumbing for the socket server: SIGHUP asks for a snapshot
// hot-reload (one async-signal-safe write to the server's notify pipe),
// SIGINT/SIGTERM wind the accept loop down for a summary exit.
int g_reload_notify_fd = -1;
hdc::serve::NetServer* g_net_server = nullptr;

extern "C" void hdcgen_on_sighup(int) {
  if (g_reload_notify_fd >= 0) {
    const char byte = 'r';
    [[maybe_unused]] const ssize_t ignored =
        ::write(g_reload_notify_fd, &byte, 1);
  }
}

extern "C" void hdcgen_on_terminate(int) {
  if (g_net_server != nullptr) {
    g_net_server->stop();  // lock-free flag + one pipe write: signal-safe
  }
}
#endif

/// Builds the ShardedServer behind --replicas/--shard/--backend; null when
/// none of the cluster flags are present.  Must run before any thread pool
/// exists: the fork backend forks its workers here (docs/cluster.md).
std::unique_ptr<hdc::cluster::ShardedServer> make_sharded(
    const FlagParser& flags, const std::string& path,
    hdc::io::SnapshotIntegrity integrity, hdc::io::MappingOptions mapping) {
  if (!flags.value("--replicas") && !flags.value("--shard") &&
      !flags.value("--backend")) {
    return nullptr;
  }
  hdc::cluster::ClusterOptions options;
  options.replicas = flags.count_or("--replicas", 1, 1);
  if (const auto scheme = flags.value("--shard")) {
    options.scheme = hdc::cluster::parse_shard_scheme(*scheme);
  }
#if !defined(_WIN32)
  options.backend = hdc::cluster::CommBackend::Fork;
#endif
  if (const auto backend = flags.value("--backend")) {
    options.backend = hdc::cluster::parse_comm_backend(*backend);
  }
  options.integrity = integrity;
  options.mapping = mapping;
  auto sharded =
      std::make_unique<hdc::cluster::ShardedServer>(path, options);
  std::string pids;
  for (const pid_t pid : sharded->worker_pids()) {
    pids += ' ' + std::to_string(pid);
  }
  // Scripts (and the fault-injection suite) parse this line for the pids.
  std::fprintf(stderr, "cluster: %zu replicas, shard=%s, backend=%s%s%s\n",
               sharded->replicas(), to_string(sharded->scheme()),
               sharded->backend(),
               pids.empty() ? "" : ", worker pids:", pids.c_str());
  return sharded;
}

/// Streams stdin feature rows through a snapshot pipeline to stdout, or
/// serves sockets with --listen/--unix — the `hdcgen serve` front end over
/// hdc::serve (docs/serving.md).
int cmd_serve(const FlagParser& flags, const std::string& path) {
#if !defined(_WIN32)
  // A downstream consumer closing early (head, a dying client) must
  // surface as a WriteError summary or a dropped connection, never kill
  // the process mid-batch with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
#endif
  if (const auto kernel = flags.value("--kernel")) {
    // Pin the SIMD kernel variant for this serving process; replaces the
    // startup auto-selection exactly like HDC_KERNELS (docs/kernels.md).
    hdc::bits::select_kernels(*kernel);
  }
  const auto integrity = flags.has("--trust")
                             ? hdc::io::SnapshotIntegrity::Trust
                             : hdc::io::SnapshotIntegrity::Checksum;
  hdc::serve::RowFormat input = hdc::serve::RowFormat::Csv;
  if (const auto name = flags.value("--input")) {
    input = hdc::serve::parse_row_format(*name);
  }
  hdc::serve::OutputFormat output = hdc::serve::OutputFormat::Plain;
  if (const auto name = flags.value("--format")) {
    output = hdc::serve::parse_output_format(*name);
  }
  hdc::io::MappingOptions mapping;
  mapping.lock_memory = flags.has("--mlock");

  // Cluster flags fork their workers here, before any thread pool exists.
  std::unique_ptr<hdc::cluster::ShardedServer> sharded =
      make_sharded(flags, path, integrity, mapping);
  // Every front end below predicts through one plane: the coordinator, or
  // the in-process plane over the mapped snapshot.
  std::unique_ptr<hdc::serve::LocalPlane> local;
  bool locked = false;
  if (!sharded) {
    hdc::io::LoadedPipeline loaded =
        hdc::io::load_pipeline(path, integrity, mapping);
    locked = loaded.snapshot.locked();
    local = std::make_unique<hdc::serve::LocalPlane>(
        std::make_shared<const hdc::serve::ServingState>(std::move(loaded), 0,
                                                         path),
        flags.count_or("--threads", 0, 0), mapping);
  }
  hdc::serve::PredictionPlane& plane =
      sharded ? static_cast<hdc::serve::PredictionPlane&>(*sharded) : *local;
  // Gate the input format here so the operator sees the flag to change,
  // not a reader internal.
  const bool wants_text = plane.input() == hdc::io::PipelineInput::Text;
  if (wants_text != (input == hdc::serve::RowFormat::Text)) {
    throw std::invalid_argument(
        wants_text
            ? "this pipeline reads raw text samples: pass --input text"
            : "--input text requires a text pipeline; this snapshot "
              "reads numeric rows");
  }
  const hdc::serve::HeadMode head =
      !flags.has("--head") ? hdc::serve::HeadMode::None
      : plane.kind() == hdc::io::PipelineKind::Classifier
          ? hdc::serve::HeadMode::Confidence
          : hdc::serve::HeadMode::Band;
  const std::size_t batch = flags.count_or("--batch", 1, 64);
  std::optional<std::chrono::microseconds> flush_interval;
  if (flags.value("--flush-us")) {
    flush_interval = std::chrono::microseconds(
        static_cast<long long>(flags.count("--flush-us", 0)));
  }

  const auto listen = flags.value("--listen");
  const auto unix_path = flags.value("--unix");
  if (listen || unix_path) {
    hdc::serve::NetServerOptions options;
    options.host.clear();
    if (listen) {
      const std::size_t colon = listen->rfind(':');
      if (colon == std::string::npos) {
        throw std::invalid_argument("--listen expects HOST:PORT, got '" +
                                    *listen + "'");
      }
      options.host = listen->substr(0, colon);
      options.port = static_cast<std::uint16_t>(
          std::stoul(listen->substr(colon + 1)));
      if (options.host.empty()) {
        options.host = "127.0.0.1";
      }
    }
    if (unix_path) {
      options.unix_path = *unix_path;
    }
    options.batch_size = batch;
    if (flush_interval) {
      options.flush_interval = *flush_interval;
    }
    options.max_connections =
        flags.count_or("--max-conns", 1, options.max_connections);
    options.input = input;
    options.output = output;
    options.with_latency = flags.has("--latency");
    options.head = head;
#if defined(_WIN32)
    std::fputs("hdcgen serve: sockets need a POSIX host\n", stderr);
    return 1;
#else
    hdc::serve::NetServer server(plane, options);
    // Scripts parse these lines to learn the ephemeral port.
    if (!options.host.empty()) {
      std::fprintf(stderr, "listening on %s:%u\n", options.host.c_str(),
                   static_cast<unsigned>(server.port()));
    }
    if (!options.unix_path.empty()) {
      std::fprintf(stderr, "listening on unix:%s\n",
                   options.unix_path.c_str());
    }
    std::fprintf(stderr,
                 "serving %s pipeline: d = %zu, %zu features/row, "
                 "kernels = %s (SIGHUP reloads %s)\n",
                 hdc::io::to_string(plane.kind()), plane.dimension(),
                 plane.num_features(), hdc::bits::active_kernels().name,
                 path.c_str());

    g_reload_notify_fd = server.reload_notify_fd();
    g_net_server = &server;
    std::signal(SIGHUP, hdcgen_on_sighup);
    std::signal(SIGINT, hdcgen_on_terminate);
    std::signal(SIGTERM, hdcgen_on_terminate);
    server.run();
    std::signal(SIGHUP, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    g_net_server = nullptr;
    g_reload_notify_fd = -1;

    const hdc::serve::NetServer::Stats stats = server.stats();
    std::fprintf(stderr,
                 "served %llu rows in %llu batches over %llu connections, "
                 "%llu reloads (%llu rejected), final generation %llu\n",
                 static_cast<unsigned long long>(stats.rows),
                 static_cast<unsigned long long>(stats.batches),
                 static_cast<unsigned long long>(stats.connections),
                 static_cast<unsigned long long>(stats.reloads),
                 static_cast<unsigned long long>(stats.rejected_reloads),
                 static_cast<unsigned long long>(server.generation()));
    return 0;
#endif
  }

  // A std::cin synchronized with stdio never reports buffered input, so
  // under --flush-us every read would seem to block and each row would be
  // flushed as its own batch.  Unsynchronizing is safe because this path
  // prints to stdout only through std::cout.
  std::ios::sync_with_stdio(false);
  hdc::serve::RowReader reader(std::cin, plane.num_features(), input);
  hdc::serve::PredictionWriter writer(std::cout, output,
                                      flags.has("--latency"), head);
  hdc::serve::ServerOptions options;
  options.batch_size = batch;
  if (flush_interval) {
    options.flush_interval = *flush_interval;
  }
  const hdc::serve::Server server(plane, options);
  hdc::serve::Server::Stats stats;
  try {
    stats = server.run(reader, writer);
  } catch (const hdc::serve::PlaneError& error) {
    // A dead worker: the rows answered before it are already flushed, and
    // the message names the input line where the stream stopped.
    std::fprintf(stderr, "hdcgen serve: %s\n", error.what());
    return 1;
  } catch (const hdc::serve::WriteError& error) {
    // Downstream hung up (EPIPE with SIGPIPE ignored): a clean summary
    // exit, not a crash — the rows already delivered stay delivered.
    std::fprintf(stderr,
                 "hdcgen serve: downstream closed after %zu rows: %s\n",
                 writer.rows_written(), error.what());
    return 1;
  }
  std::string replicas;
  if (sharded) {
    replicas = std::to_string(sharded->replicas()) + " replicas (" +
               sharded->backend() +
               ", shard=" + to_string(sharded->scheme()) + "), ";
  }
  std::fprintf(stderr,
               "served %zu rows in %zu batches: %s pipeline, d = %zu, "
               "%zu features/row, %.0f rows/s, %skernels = %s%s\n",
               stats.rows, stats.batches, hdc::io::to_string(plane.kind()),
               plane.dimension(), plane.num_features(),
               stats.seconds > 0.0
                   ? static_cast<double>(stats.rows) / stats.seconds
                   : 0.0,
               replicas.c_str(), hdc::bits::active_kernels().name,
               locked ? ", mlock" : "");
  return 0;
}

/// Reports the CPU's SIMD features and the kernel-variant dispatch state —
/// what was compiled in, what this CPU can run, and what is selected.
int cmd_kernels() {
  const hdc::bits::CpuFeatures features = hdc::bits::cpu_features();
  std::printf("cpu:       ");
  bool any = false;
  const struct {
    const char* name;
    bool present;
  } probes[] = {
      {"popcnt", features.popcnt},
      {"avx2", features.avx2},
      {"avx512f", features.avx512f},
      {"avx512bw", features.avx512bw},
      {"avx512vl", features.avx512vl},
      {"avx512vpopcntdq", features.avx512vpopcntdq},
      {"neon", features.neon},
  };
  for (const auto& probe : probes) {
    if (probe.present) {
      std::printf(" %s", probe.name);
      any = true;
    }
  }
  std::printf("%s\n", any ? "" : " (baseline only)");
  std::printf("compiled:  ");
  for (const hdc::bits::Kernels* variant : hdc::bits::compiled_kernels()) {
    std::printf(" %s", variant->name);
  }
  std::printf("\navailable: ");
  for (const hdc::bits::Kernels* variant : hdc::bits::available_kernels()) {
    std::printf(" %s", variant->name);
  }
  std::printf("\nactive:     %s\n", hdc::bits::active_kernels().name);
  std::printf("override:   HDC_KERNELS env var, or --kernel NAME on "
              "serve/bench\n");
  return 0;
}

int cmd_info(const std::string& path) {
  const hdc::Basis basis = load_basis(path);
  const hdc::BasisInfo& info = basis.info();
  std::printf("file:       %s\n", path.c_str());
  std::printf("kind:       %s\n", hdc::to_string(info.kind));
  std::printf("method:     %s\n", hdc::to_string(info.method));
  std::printf("size m:     %zu\n", info.size);
  std::printf("dimension:  %zu\n", info.dimension);
  std::printf("r:          %.4f\n", info.r);
  std::printf("seed:       %llu\n",
              static_cast<unsigned long long>(info.seed));

  // Summary of the off-diagonal distance distribution.
  const auto matrix = basis.pairwise_distances();
  double min = 1.0;
  double max = 0.0;
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    for (std::size_t j = i + 1; j < matrix.size(); ++j) {
      min = std::min(min, matrix[i][j]);
      max = std::max(max, matrix[i][j]);
      sum += matrix[i][j];
      ++count;
    }
  }
  if (count > 0) {
    std::printf("pairwise delta: min %.4f  mean %.4f  max %.4f\n", min,
                sum / static_cast<double>(count), max);
  }
  // Density sanity: each vector should be ~half ones.
  double ones = 0.0;
  for (const hdc::HypervectorView hv : basis) {
    ones += static_cast<double>(hv.count_ones()) /
            static_cast<double>(hv.dimension());
  }
  std::printf("mean bit density: %.4f\n",
              ones / static_cast<double>(basis.size()));
  return 0;
}

int cmd_dist(const std::string& path) {
  const hdc::Basis basis = load_basis(path);
  const auto matrix = basis.pairwise_distances();
  for (const auto& row : matrix) {
    for (const double value : row) {
      std::printf("%6.3f ", value);
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_heatmap(const std::string& path) {
  const hdc::Basis basis = load_basis(path);
  std::fputs(hdc::exp::render_heatmap(basis.pairwise_similarities(), 0.5, 1.0)
                 .c_str(),
             stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string_view command = argv[1];
  const FlagParser flags(argc, argv);
  try {
    if (command == "gen") {
      return cmd_gen(flags);
    }
    if (command == "snap") {
      return cmd_snap(flags);
    }
    if (command == "kernels") {
      return cmd_kernels();
    }
    if (argc >= 3 && command == "snap-info") {
      return cmd_snap_info(argv[2]);
    }
    if (argc >= 3 && command == "serve") {
      return cmd_serve(flags, argv[2]);
    }
    if (argc >= 3 && command == "snap-fixtures") {
      return cmd_snap_fixtures(flags, argv[2]);
    }
    if (argc >= 4 && command == "delta") {
      // Two positionals: flags start after them.
      return cmd_delta(FlagParser(argc, argv, 4), argv[2], argv[3]);
    }
    if (argc >= 4 && command == "patch") {
      return cmd_patch(FlagParser(argc, argv, 4), argv[2], argv[3]);
    }
    if (argc >= 3 && command == "info") {
      return cmd_info(argv[2]);
    }
    if (argc >= 3 && command == "dist") {
      return cmd_dist(argv[2]);
    }
    if (argc >= 3 && command == "heatmap") {
      return cmd_heatmap(argv[2]);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "hdcgen: %s\n", error.what());
    return 1;
  }
  return usage();
}
