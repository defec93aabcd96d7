// Socket front-end conformance: round-trip equivalence against the
// sequential oracle, the zero-downtime hot-swap protocol (every prediction
// a client ever sees is bit-identical to one of the two generations —
// never torn, never dropped), reload rejection leaving the incumbent
// serving, per-connection error isolation (malformed and over-long lines),
// the SIGHUP-style async reload, unix-domain sockets, control commands,
// adapted-side heads, and the poll-deadline flush bound.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hdc/io/fixture_models.hpp"
#include "hdc/io/io.hpp"
#include "hdc/serve/serve.hpp"

namespace {

using hdc::io::MappedSnapshot;
using hdc::io::Pipeline;
using hdc::io::SnapshotWriter;
using hdc::serve::NetServer;
using hdc::serve::NetServerOptions;
using hdc::serve::OutputFormat;
using hdc::serve::PredictionWriter;
namespace fixtures = hdc::io::fixtures;

std::string temp_file(const std::string& name) {
  const auto stamp = static_cast<unsigned long long>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  return (std::filesystem::path(testing::TempDir()) /
          ("net_" + std::to_string(stamp) + "_" + name))
      .string();
}

std::string write_beijing(const std::string& name, std::uint64_t seed) {
  const std::string path = temp_file(name);
  fixtures::FixtureSpec spec;
  spec.seed = seed;
  const fixtures::BeijingPipeline models =
      fixtures::make_beijing_pipeline(spec);
  SnapshotWriter writer;
  writer.add_pipeline(*models.encoder, models.model);
  writer.write_file(path);
  return path;
}

std::vector<std::vector<double>> beijing_rows(std::size_t count) {
  std::vector<std::vector<double>> rows;
  rows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    rows.push_back({static_cast<double>(i % 5),
                    static_cast<double>((i * 53) % 366),
                    0.5 * static_cast<double>((i * 7) % 48)});
  }
  return rows;
}

std::string as_csv(const std::vector<std::vector<double>>& rows) {
  std::ostringstream out;
  for (const auto& row : rows) {
    for (std::size_t f = 0; f < row.size(); ++f) {
      out << (f == 0 ? "" : ",") << row[f];
    }
    out << '\n';
  }
  return out.str();
}

/// The exact Plain-format line each row would get from \p snapshot_path —
/// the per-generation oracle the wire output must match byte for byte.
std::vector<std::string> oracle_lines(
    const std::string& snapshot_path,
    const std::vector<std::vector<double>>& rows) {
  const auto snapshot = MappedSnapshot::open(snapshot_path);
  const Pipeline pipeline = Pipeline::restore(snapshot);
  std::ostringstream out;
  PredictionWriter writer(out, OutputFormat::Plain);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    writer.write(i, pipeline.regress(rows[i]), 0.0);
  }
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  std::string line;
  while (std::getline(split, line)) {
    lines.push_back(line);
  }
  return lines;
}

/// NetServer + its run() thread with exception-safe teardown.
struct RunningServer {
  NetServer server;
  std::thread thread;

  RunningServer(const std::string& snapshot_path, NetServerOptions options)
      : server(hdc::io::load_pipeline(snapshot_path), snapshot_path,
               std::move(options)),
        thread([this] { server.run(); }) {}
  ~RunningServer() {
    server.stop();
    thread.join();
  }
};

/// Minimal blocking line client with a receive timeout so a server bug
/// fails the test instead of hanging ctest.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    open(AF_INET, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  }

  explicit Client(const std::string& unix_path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (unix_path.size() >= sizeof(addr.sun_path)) {
      ADD_FAILURE() << "unix path too long: " << unix_path;
      return;
    }
    std::copy(unix_path.begin(), unix_path.end(), addr.sun_path);
    open(AF_UNIX, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  }

  ~Client() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send(const std::string& text) const {
    std::size_t sent = 0;
    while (sent < text.size()) {
      const ssize_t n =
          ::send(fd_, text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << std::strerror(errno);
      sent += static_cast<std::size_t>(n);
    }
  }

  void shutdown_write() const { ::shutdown(fd_, SHUT_WR); }

  /// Next '\n'-terminated line, or nullopt on clean EOF.  A receive
  /// timeout (server stalled) fails the calling test.
  std::optional<std::string> read_line() {
    while (true) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got == 0) {
        EXPECT_TRUE(buffer_.empty()) << "EOF mid-line: " << buffer_;
        return std::nullopt;
      }
      if (got < 0) {
        ADD_FAILURE() << "recv: " << std::strerror(errno);
        return std::nullopt;
      }
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

 private:
  void open(int family, const sockaddr* addr, socklen_t len) {
    fd_ = ::socket(family, SOCK_STREAM, 0);
    if (fd_ < 0) {
      ADD_FAILURE() << "socket: " << std::strerror(errno);
      return;
    }
    if (::connect(fd_, addr, len) != 0) {
      ADD_FAILURE() << "connect: " << std::strerror(errno);
      ::close(fd_);
      fd_ = -1;
      return;
    }
    // A server bug must fail the test instead of hanging ctest.
    timeval timeout{};
    timeout.tv_sec = 20;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }

  int fd_ = -1;
  std::string buffer_;
};

TEST(NetServerTest, RoundTripMatchesSequentialOracle) {
  const std::string path = write_beijing("roundtrip.hdcs", 2023);
  const auto rows = beijing_rows(60);
  const auto expected = oracle_lines(path, rows);

  NetServerOptions options;
  options.batch_size = 7;  // never divides 60: partial tail batch
  RunningServer running(path, options);
  ASSERT_GT(running.server.port(), 0);

  Client client(running.server.port());
  client.send(as_csv(rows));
  client.shutdown_write();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value()) << "dropped row " << i;
    EXPECT_EQ(*line, expected[i]) << "row " << i;
  }
  EXPECT_FALSE(client.read_line().has_value());

  const NetServer::Stats stats = running.server.stats();
  EXPECT_EQ(stats.rows, rows.size());
  EXPECT_EQ(stats.connections, 1U);
  EXPECT_GE(stats.batches, (rows.size() + 6) / 7);
  std::filesystem::remove(path);
}

TEST(NetServerTest, HotSwapYieldsOnlyWholeGenerationPredictions) {
  const std::string path_a = write_beijing("swap_a.hdcs", 2023);
  const std::string path_b = write_beijing("swap_b.hdcs", 7777);
  const auto rows = beijing_rows(120);
  const auto oracle_a = oracle_lines(path_a, rows);
  const auto oracle_b = oracle_lines(path_b, rows);
  // The generations must be distinguishable for the test to mean anything.
  ASSERT_NE(oracle_a, oracle_b);

  NetServerOptions options;
  options.batch_size = 4;
  RunningServer running(path_a, options);
  const std::uint16_t port = running.server.port();

  // N client threads stream the same rows in small pulses while the main
  // thread hot-swaps the model mid-run.  Every client must receive exactly
  // one prediction per row (zero drops), every line must be bit-identical
  // to generation A's or generation B's oracle (never torn), and per
  // connection the generation may only move forward (A..A then B..B).
  constexpr std::size_t kClients = 3;
  std::vector<std::vector<std::string>> received(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(port);
      constexpr std::size_t kPulse = 6;
      for (std::size_t begin = 0; begin < rows.size(); begin += kPulse) {
        const std::size_t end = std::min(begin + kPulse, rows.size());
        const std::vector<std::vector<double>> pulse(
            rows.begin() + static_cast<std::ptrdiff_t>(begin),
            rows.begin() + static_cast<std::ptrdiff_t>(end));
        client.send(as_csv(pulse));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      client.shutdown_write();
      while (auto line = client.read_line()) {
        received[c].push_back(*line);
      }
    });
  }

  // Swap once the clients are demonstrably mid-stream.
  std::this_thread::sleep_for(std::chrono::milliseconds(4));
  {
    Client control(port);
    control.send("!reload " + path_b + "\n");
    const auto ack = control.read_line();
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->rfind("!ok reloaded generation=1", 0), 0U) << *ack;
  }
  for (std::thread& thread : clients) {
    thread.join();
  }
  EXPECT_EQ(running.server.generation(), 1U);

  for (std::size_t c = 0; c < kClients; ++c) {
    SCOPED_TRACE("client " + std::to_string(c));
    ASSERT_EQ(received[c].size(), rows.size()) << "dropped predictions";
    bool swapped = false;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::string& line = received[c][i];
      if (!swapped) {
        if (line == oracle_a[i]) {
          continue;
        }
        ASSERT_EQ(line, oracle_b[i]) << "torn prediction at row " << i;
        swapped = true;
      } else {
        ASSERT_EQ(line, oracle_b[i])
            << "generation went backwards at row " << i;
      }
    }
  }
  std::filesystem::remove(path_a);
  std::filesystem::remove(path_b);
}

TEST(NetServerTest, RejectedReloadLeavesIncumbentServing) {
  const std::string path = write_beijing("reject_a.hdcs", 2023);
  const auto rows = beijing_rows(10);
  const auto expected = oracle_lines(path, rows);

  RunningServer running(path, NetServerOptions{});
  Client client(running.server.port());

  // A corrupt snapshot: validation must fail before any flip.
  const std::string corrupt = temp_file("reject_corrupt.hdcs");
  {
    std::filesystem::copy_file(path, corrupt);
    std::filesystem::resize_file(corrupt,
                                 std::filesystem::file_size(corrupt) / 2);
  }
  client.send("!reload " + corrupt + "\n");
  auto reply = client.read_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("!error reload rejected:", 0), 0U) << *reply;

  // A valid snapshot of the wrong kind: the shape gate must reject it.
  const std::string classifier_path = temp_file("reject_classifier.hdcs");
  {
    const fixtures::ClassifierPipeline models =
        fixtures::make_classifier_pipeline();
    SnapshotWriter writer;
    writer.add_pipeline(models.encoder, models.model);
    writer.write_file(classifier_path);
  }
  client.send("!reload " + classifier_path + "\n");
  reply = client.read_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("!error reload rejected:", 0), 0U) << *reply;

  // Same connection, same generation, still bit-exact.
  EXPECT_EQ(running.server.generation(), 0U);
  EXPECT_EQ(running.server.stats().rejected_reloads, 2U);
  // `!stats` sends the connection and reload counters after generation=,
  // so every `!ok rows=` prefix check still holds.
  client.send("!stats\n");
  reply = client.read_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply,
            "!ok rows=0 batches=0 generation=0 connections=1 reloads=0 "
            "rejected_reloads=2");
  client.send(as_csv(rows));
  client.shutdown_write();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, expected[i]) << "row " << i;
  }
  for (const auto& file : {path, corrupt, classifier_path}) {
    std::filesystem::remove(file);
  }
}

TEST(NetServerTest, AsyncReloadNotifyReloadsTheServingPath) {
  // The SIGHUP deployment shape: the trainer overwrites the snapshot file
  // in place, the signal handler writes one byte to the notify pipe, the
  // server re-reads its own source path.
  const std::string path = write_beijing("sighup.hdcs", 2023);
  const std::string retrained = write_beijing("sighup_retrained.hdcs", 7777);
  const auto rows = beijing_rows(10);
  const auto expected = oracle_lines(retrained, rows);

  RunningServer running(path, NetServerOptions{});
  std::filesystem::copy_file(path, path + ".old");
  std::filesystem::rename(retrained, path);
  const char byte = 'r';
  ASSERT_EQ(::write(running.server.reload_notify_fd(), &byte, 1), 1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (running.server.generation() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(running.server.generation(), 1U) << "async reload never landed";

  Client client(running.server.port());
  client.send(as_csv(rows));
  client.shutdown_write();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, expected[i]) << "row " << i;
  }
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".old");
}

TEST(NetServerTest, MalformedRowClosesOnlyThatConnection) {
  const std::string path = write_beijing("isolate.hdcs", 2023);
  const auto rows = beijing_rows(4);
  const auto expected = oracle_lines(path, rows);

  RunningServer running(path, NetServerOptions{});
  Client bad(running.server.port());
  Client good(running.server.port());

  // Rows before the poison pill are served, then the reader's diagnostic
  // arrives as a control-style error and the connection closes.
  bad.send(as_csv({rows[0], rows[1]}) + "0.5,nan,3\n");
  auto line = bad.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, expected[0]);
  line = bad.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, expected[1]);
  line = bad.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("!error row 3:", 0), 0U) << *line;
  EXPECT_NE(line->find("not finite"), std::string::npos) << *line;
  EXPECT_FALSE(bad.read_line().has_value());  // closed

  // The sibling connection (and the server) are unaffected.
  good.send(as_csv(rows));
  good.shutdown_write();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    line = good.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, expected[i]) << "row " << i;
  }
  std::filesystem::remove(path);
}

TEST(NetServerTest, OverlongLineClosesOnlyThatConnection) {
  const std::string path = write_beijing("overlong.hdcs", 2023);
  const auto rows = beijing_rows(4);
  const auto expected = oracle_lines(path, rows);

  RunningServer running(path, NetServerOptions{});
  Client bystander(running.server.port());
  Client bad(running.server.port());

  // Rows before the unterminated line are served; past 1 MiB the line is
  // answered like a malformed row and the connection closes.
  bad.send(as_csv({rows[0], rows[1]}));
  bad.send(std::string((std::size_t{1} << 20) + 1, '7'));
  auto line = bad.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, expected[0]);
  line = bad.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, expected[1]);
  line = bad.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "!error row 3: line exceeds 1048576 bytes");
  EXPECT_FALSE(bad.read_line().has_value());  // closed

  bystander.send(as_csv(rows));
  bystander.shutdown_write();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    line = bystander.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, expected[i]) << "row " << i;
  }
  std::filesystem::remove(path);
}

TEST(NetServerTest, UnixSocketServesAndControlCommandsAnswer) {
  const std::string path = write_beijing("unix.hdcs", 2023);
  const auto rows = beijing_rows(5);
  const auto expected = oracle_lines(path, rows);

  NetServerOptions options;
  options.host.clear();  // unix-only: port() must stay 0
  options.unix_path = temp_file("hdc_serve.sock");
  RunningServer running(path, options);
  EXPECT_EQ(running.server.port(), 0);

  Client client(options.unix_path);
  client.send("!ping\n");
  auto line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "!ok pong generation=0");

  client.send(as_csv(rows));
  client.send("!stats\n");
  // The !stats ack is a sequencing point: every row sent before it is
  // predicted and delivered first.
  for (std::size_t i = 0; i < rows.size(); ++i) {
    line = client.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, expected[i]) << "row " << i;
  }
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("!ok rows=5 batches=", 0), 0U) << *line;

  client.send("!frobnicate\n");
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("!error unknown control command", 0), 0U) << *line;

  client.send("!quit\n");
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "!ok bye");
  EXPECT_FALSE(client.read_line().has_value());
  std::filesystem::remove(path);
}

TEST(NetServerTest, FlushDeadlineBoundsPartialBatchLatency) {
  // A batch that will never fill and a client that never closes: the only
  // thing that can deliver these predictions is the poll-deadline flush.
  const std::string path = write_beijing("deadline.hdcs", 2023);
  const auto rows = beijing_rows(3);
  const auto expected = oracle_lines(path, rows);

  NetServerOptions options;
  options.batch_size = 1024;
  options.flush_interval = std::chrono::milliseconds(5);
  RunningServer running(path, options);

  Client client(running.server.port());
  client.send(as_csv(rows));  // no shutdown, no further bytes
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value()) << "deadline flush never fired";
    EXPECT_EQ(*line, expected[i]) << "row " << i;
  }
  std::filesystem::remove(path);
}

TEST(NetServerTest, WorkerPoolFailureAnswersErrorInsteadOfClosing) {
  // The worker pool is created lazily on the first data batch; an
  // impossible thread count must therefore surface on the wire as an
  // `!error server error: ...` reply — not a silently dropped connection,
  // and never a dead server.
  const std::string path = write_beijing("badpool.hdcs", 2023);
  const auto rows = beijing_rows(2);
  const auto expected = oracle_lines(path, rows);

  NetServerOptions options;
  options.num_threads = 1'000'000;  // > ThreadPool::max_threads()
  RunningServer running(path, options);

  Client doomed(running.server.port());
  doomed.send(as_csv(rows));
  doomed.shutdown_write();
  auto line = doomed.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("!error server error:", 0), 0U) << *line;
  EXPECT_NE(line->find("exceeds the supported maximum"), std::string::npos)
      << *line;
  EXPECT_FALSE(doomed.read_line().has_value());  // that connection closes

  // The server survives: control commands (which need no pool) still
  // answer on a fresh connection.
  Client control(running.server.port());
  control.send("!ping\n");
  line = control.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "!ok pong generation=0");
  std::filesystem::remove(path);
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

std::vector<std::vector<double>> classifier_rows(std::size_t count) {
  std::vector<std::vector<double>> rows;
  rows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<double> row(4);
    for (std::size_t f = 0; f < row.size(); ++f) {
      row[f] = 23.0 * static_cast<double>(i) + 80.0 * static_cast<double>(f);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Plain-format oracle for a classifier snapshot (write_class lines).
std::vector<std::string> classifier_oracle_lines(
    const std::string& snapshot_path,
    const std::vector<std::vector<double>>& rows) {
  const auto snapshot = MappedSnapshot::open(snapshot_path);
  const Pipeline pipeline = Pipeline::restore(snapshot);
  std::ostringstream out;
  PredictionWriter writer(out, OutputFormat::Plain);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    writer.write_class(i, pipeline.classify(rows[i]), 0.0);
  }
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  std::string line;
  while (std::getline(split, line)) {
    lines.push_back(line);
  }
  return lines;
}

TEST(NetServerTest, AdaptDeltaAndABServingRoundTrip) {
  // The online-adaptation loop end to end over one socket: `!adapt`
  // feedback builds the overlay, `!delta` exports it, `!use` A/B-serves
  // base vs adapted from the same process, and `!reload DELTA` swaps the
  // default side to a model bit-identical to the overlay.
  const std::string base_path = write_jigsaws("adapt_base.hdcs");
  const auto rows = classifier_rows(10);
  const auto base_oracle = classifier_oracle_lines(base_path, rows);

  RunningServer running(base_path, NetServerOptions{});
  Client client(running.server.port());

  // Before any feedback nothing differs from the base: no delta to export.
  const std::string delta_path = temp_file("adapt.delta.hdcs");
  client.send("!delta " + delta_path + "\n");
  auto line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("!error delta rejected:", 0), 0U) << *line;

  // Malformed feedback is rejected without touching the overlay.
  const auto row_csv = [&](std::size_t i) {
    std::ostringstream out;
    for (std::size_t f = 0; f < rows[i].size(); ++f) {
      out << (f == 0 ? "" : ",") << rows[i][f];
    }
    return out.str();
  };
  for (const std::string& bad :
       {std::string("!adapt foo " + row_csv(0)),
        std::string("!adapt 1.5 " + row_csv(0)),
        std::string("!adapt 1 1,2"), std::string("!adapt 1 0.5,nan,3,4")}) {
    client.send(bad + "\n");
    line = client.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(line->rfind("!error adapt rejected:", 0), 0U)
        << bad << " -> " << *line;
  }

  // Poison the model: repeatedly insist every probe row belongs to the
  // next class over.  Deterministic, so the adapted side provably drifts
  // from the base.
  const auto base_snapshot = MappedSnapshot::open(base_path);
  const Pipeline base_pipeline = Pipeline::restore(base_snapshot);
  bool updated_once = false;
  for (std::size_t pass = 0; pass < 8; ++pass) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::size_t wrong = (base_pipeline.classify(rows[i]) + 1) % 3;
      client.send("!adapt " + std::to_string(wrong) + " " + row_csv(i) +
                  "\n");
      line = client.read_line();
      ASSERT_TRUE(line.has_value());
      ASSERT_EQ(line->rfind("!ok adapt predicted=", 0), 0U) << *line;
      EXPECT_NE(line->find(" generation=0"), std::string::npos) << *line;
      updated_once = updated_once ||
                     line->find(" updated=1 ") != std::string::npos;
    }
  }
  ASSERT_TRUE(updated_once) << "no feedback row ever changed the model";

  // Export the overlay and rebuild the adapted oracle from base + delta —
  // the wire's adapted side must match it bit for bit.
  client.send("!delta " + delta_path + "\n");
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  ASSERT_EQ(line->rfind("!ok delta rows=", 0), 0U) << *line;
  EXPECT_NE(line->find(" path=" + delta_path), std::string::npos) << *line;

  const std::string patched_path = temp_file("adapt.patched.hdcs");
  hdc::io::apply_delta_file(base_path, delta_path, patched_path);
  const auto adapted_oracle = classifier_oracle_lines(patched_path, rows);
  ASSERT_NE(adapted_oracle, base_oracle)
      << "poisoned feedback left the model unchanged";

  // A/B on one connection: `!use adapted` then `!use base`, with `!stats`
  // as the sequencing point between row pulses.
  const auto expect_rows = [&](const std::vector<std::string>& oracle) {
    client.send(as_csv(rows));
    client.send("!stats\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto got = client.read_line();
      ASSERT_TRUE(got.has_value()) << "dropped row " << i;
      EXPECT_EQ(*got, oracle[i]) << "row " << i;
    }
    const auto ack = client.read_line();
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->rfind("!ok rows=", 0), 0U) << *ack;
  };
  client.send("!use adapted\n");
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "!ok use adapted");
  expect_rows(adapted_oracle);

  client.send("!use base\n");
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "!ok use base");
  expect_rows(base_oracle);

  client.send("!use sideways\n");
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("!error use rejected:", 0), 0U) << *line;

  // The acceptance path: `!reload` with the delta file promotes the
  // adapted model to the default side for every connection.
  client.send("!reload " + delta_path + "\n");
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("!ok reloaded generation=1 source=" + delta_path, 0),
            0U)
      << *line;
  expect_rows(adapted_oracle);

  // Rows inherited from the delta reload stay exportable: a fresh `!delta`
  // against the (unchanged) base restores the same model again.
  const std::string delta2_path = temp_file("adapt.delta2.hdcs");
  client.send("!delta " + delta2_path + "\n");
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  ASSERT_EQ(line->rfind("!ok delta rows=", 0), 0U) << *line;
  const std::string patched2_path = temp_file("adapt.patched2.hdcs");
  hdc::io::apply_delta_file(base_path, delta2_path, patched2_path);
  EXPECT_EQ(classifier_oracle_lines(patched2_path, rows), adapted_oracle);

  for (const auto& file : {base_path, delta_path, patched_path, delta2_path,
                           patched2_path}) {
    std::filesystem::remove(file);
  }
}

/// Plain-format lines of \p rows through \p snapshot_path with \p head: a
/// confidence per classifier row or a band per regressor row.
std::vector<std::string> head_oracle_lines(
    const std::string& snapshot_path,
    const std::vector<std::vector<double>>& rows, hdc::serve::HeadMode head) {
  const auto snapshot = MappedSnapshot::open(snapshot_path);
  const Pipeline pipeline = Pipeline::restore(snapshot);
  std::ostringstream out;
  PredictionWriter writer(out, OutputFormat::Plain, /*with_latency=*/false,
                          head);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const hdc::Hypervector encoded = pipeline.encode(rows[i]);
    if (head == hdc::serve::HeadMode::Confidence) {
      const hdc::Top2 top = pipeline.classifier().predict_top2(encoded);
      writer.write_class(i, top.best.index, hdc::margin_confidence(top), 0.0);
    } else {
      writer.write_band(i, pipeline.regressor().predict(encoded),
                        pipeline.regressor().predict_band(encoded), 0.0);
    }
  }
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  std::string line;
  while (std::getline(split, line)) {
    lines.push_back(line);
  }
  return lines;
}

TEST(NetServerTest, AdaptedSideServesHeadsOfThePatchedSnapshot) {
  // `!use adapted` with a head on the wire: after a poisoning `!adapt`
  // stream, the adapted rows must carry exactly the heads a fresh restore
  // of base + the exported delta gives — a classifier with confidence and
  // a regressor with bands.
  struct Case {
    std::string path;
    std::vector<std::vector<double>> rows;
    hdc::serve::HeadMode head;
  };
  const std::vector<Case> cases = {
      {write_jigsaws("head_adapt_classifier.hdcs"), classifier_rows(10),
       hdc::serve::HeadMode::Confidence},
      {write_beijing("head_adapt_regressor.hdcs", 2023), beijing_rows(10),
       hdc::serve::HeadMode::Band}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.path);
    const auto base_snapshot = MappedSnapshot::open(c.path);
    const Pipeline base = Pipeline::restore(base_snapshot);
    NetServerOptions options;
    options.head = c.head;
    options.batch_size = 4;  // never divides 10: partial tail batch
    RunningServer running(c.path, options);
    Client client(running.server.port());

    for (std::size_t pass = 0; pass < 8; ++pass) {
      for (std::size_t i = 0; i < c.rows.size(); ++i) {
        const double wrong =
            c.head == hdc::serve::HeadMode::Confidence
                ? static_cast<double>((base.classify(c.rows[i]) + 1) % 3)
                : (base.regress(c.rows[i]) < 10.0 ? 40.0 : -20.0);
        std::string row = as_csv({c.rows[i]});
        row.pop_back();  // as_csv ends every row with '\n'
        client.send("!adapt " + std::to_string(wrong) + " " + row + "\n");
        const auto line = client.read_line();
        ASSERT_TRUE(line.has_value());
        ASSERT_EQ(line->rfind("!ok adapt predicted=", 0), 0U) << *line;
      }
    }
    const std::string delta_path = temp_file("head_adapt.delta.hdcs");
    client.send("!delta " + delta_path + "\n");
    auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    ASSERT_EQ(line->rfind("!ok delta rows=", 0), 0U) << *line;
    const std::string patched_path = temp_file("head_adapt.patched.hdcs");
    hdc::io::apply_delta_file(c.path, delta_path, patched_path);
    const auto adapted = head_oracle_lines(patched_path, c.rows, c.head);
    ASSERT_NE(adapted, head_oracle_lines(c.path, c.rows, c.head))
        << "poisoned feedback left the model unchanged";

    client.send("!use adapted\n");
    line = client.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, "!ok use adapted");
    client.send(as_csv(c.rows));
    client.shutdown_write();
    for (std::size_t i = 0; i < c.rows.size(); ++i) {
      line = client.read_line();
      ASSERT_TRUE(line.has_value()) << "dropped row " << i;
      EXPECT_EQ(*line, adapted[i]) << "row " << i;
    }
    EXPECT_FALSE(client.read_line().has_value());
    for (const auto& file : {c.path, delta_path, patched_path}) {
      std::filesystem::remove(file);
    }
  }
}

std::string write_text(const std::string& name) {
  const std::string path = temp_file(name);
  fixtures::TextPipeline models = fixtures::make_text_pipeline();
  SnapshotWriter writer;
  writer.add_pipeline(models.encoder, models.model);
  writer.write_file(path);
  return path;
}

TEST(NetServerTest, TextPipelineServesAndAdaptsOverTheWire) {
  // Raw-text serving end to end: one sample per line, commas and brackets
  // are payload, `!`-control lines still work, and `!adapt TARGET TEXT`
  // feeds the overlay exactly like its numeric twin.
  const std::string path = write_text("text_wire.hdcs");
  const std::vector<std::string> rows = {
      "lo vo miri", "zu ka pelo tir", "anda vestri olm",
      "1,2,3 not csv", "tir tir tir", "zz"};

  const auto snapshot = MappedSnapshot::open(path);
  const Pipeline oracle = Pipeline::restore(snapshot);
  std::vector<std::string> expected;
  {
    std::ostringstream out;
    PredictionWriter writer(out, OutputFormat::Plain);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      writer.write_class(i, oracle.classify_text(rows[i]), 0.0);
    }
    std::istringstream split(out.str());
    std::string line;
    while (std::getline(split, line)) {
      expected.push_back(line);
    }
  }

  NetServerOptions options;
  options.input = hdc::serve::RowFormat::Text;
  options.batch_size = 4;  // never divides 6: partial tail batch
  RunningServer running(path, options);

  Client client(running.server.port());
  client.send("!ping\n");
  auto line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "!ok pong generation=0");

  std::string payload;
  for (const std::string& row : rows) {
    payload += row + "\n";
  }
  client.send(payload);
  client.send("!stats\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    line = client.read_line();
    ASSERT_TRUE(line.has_value()) << "dropped row " << i;
    EXPECT_EQ(*line, expected[i]) << "row " << i;
  }
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("!ok rows=6 batches=", 0), 0U) << *line;

  // Feedback rides a control line; the sample may itself contain spaces.
  const std::size_t wrong = (oracle.classify_text(rows[0]) + 1) % 3;
  client.send("!adapt " + std::to_string(wrong) + " " + rows[0] + "\n");
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("!ok adapt predicted=", 0), 0U) << *line;

  // A blank sample is rejected without touching the overlay.
  client.send("!adapt 1 \n");
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("!error adapt rejected:", 0), 0U) << *line;
  std::filesystem::remove(path);
}

TEST(NetServerTest, ConfidenceHeadStreamsWithEveryPrediction) {
  const std::string path = write_text("conf_wire.hdcs");
  const std::vector<std::string> rows = {"lo vo miri", "zu ka pelo tir",
                                         "anda vestri olm", "zzz",
                                         "tir tir"};
  const auto snapshot = MappedSnapshot::open(path);
  const Pipeline oracle = Pipeline::restore(snapshot);
  std::vector<std::string> expected;
  {
    std::ostringstream out;
    PredictionWriter writer(out, OutputFormat::Plain, /*with_latency=*/false,
                            hdc::serve::HeadMode::Confidence);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const hdc::Top2 top =
          oracle.classifier().predict_top2(oracle.encode_text(rows[i]));
      writer.write_class(i, top.best.index, hdc::margin_confidence(top),
                         0.0);
    }
    std::istringstream split(out.str());
    std::string line;
    while (std::getline(split, line)) {
      expected.push_back(line);
    }
  }

  NetServerOptions options;
  options.input = hdc::serve::RowFormat::Text;
  options.head = hdc::serve::HeadMode::Confidence;
  options.batch_size = 2;
  RunningServer running(path, options);

  Client client(running.server.port());
  std::string payload;
  for (const std::string& row : rows) {
    payload += row + "\n";
  }
  client.send(payload);
  client.shutdown_write();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value()) << "dropped row " << i;
    EXPECT_EQ(*line, expected[i]) << "row " << i;
  }
  EXPECT_FALSE(client.read_line().has_value());
  std::filesystem::remove(path);
}

TEST(NetServerTest, BandHeadStreamsQuantilesWithEveryPrediction) {
  const std::string path = write_beijing("band_wire.hdcs", 2023);
  const auto rows = beijing_rows(9);
  const auto snapshot = MappedSnapshot::open(path);
  const Pipeline oracle = Pipeline::restore(snapshot);
  std::vector<std::string> expected;
  {
    std::ostringstream out;
    PredictionWriter writer(out, OutputFormat::Plain, /*with_latency=*/false,
                            hdc::serve::HeadMode::Band);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const hdc::Hypervector encoded = oracle.encode(rows[i]);
      writer.write_band(i, oracle.regressor().predict(encoded),
                        oracle.regressor().predict_band(encoded), 0.0);
    }
    std::istringstream split(out.str());
    std::string line;
    while (std::getline(split, line)) {
      expected.push_back(line);
    }
  }

  NetServerOptions options;
  options.head = hdc::serve::HeadMode::Band;
  options.batch_size = 4;
  RunningServer running(path, options);

  Client client(running.server.port());
  client.send(as_csv(rows));
  client.shutdown_write();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value()) << "dropped row " << i;
    EXPECT_EQ(*line, expected[i]) << "row " << i;
  }
  EXPECT_FALSE(client.read_line().has_value());
  std::filesystem::remove(path);
}

TEST(NetServerTest, WireFormatsMustMatchThePipeline) {
  const std::string text_path = write_text("gate_text.hdcs");
  const std::string beijing_path = write_beijing("gate_beijing.hdcs", 2023);

  // Input mode is checked at construction, both directions.
  EXPECT_THROW(NetServer(hdc::io::load_pipeline(text_path), text_path,
                         NetServerOptions{}),
               std::invalid_argument);
  NetServerOptions text_options;
  text_options.input = hdc::serve::RowFormat::Text;
  EXPECT_THROW(NetServer(hdc::io::load_pipeline(beijing_path), beijing_path,
                         text_options),
               std::invalid_argument);

  // Head kind is checked against the pipeline kind.
  NetServerOptions band_on_classifier;
  band_on_classifier.input = hdc::serve::RowFormat::Text;
  band_on_classifier.head = hdc::serve::HeadMode::Band;
  EXPECT_THROW(NetServer(hdc::io::load_pipeline(text_path), text_path,
                         band_on_classifier),
               std::invalid_argument);
  NetServerOptions confidence_on_regressor;
  confidence_on_regressor.head = hdc::serve::HeadMode::Confidence;
  EXPECT_THROW(NetServer(hdc::io::load_pipeline(beijing_path), beijing_path,
                         confidence_on_regressor),
               std::invalid_argument);
  std::filesystem::remove(text_path);
  std::filesystem::remove(beijing_path);
}

TEST(NetServerTest, ConstructorValidatesOptions) {
  const std::string path = write_beijing("ctor.hdcs", 2023);
  NetServerOptions no_listener;
  no_listener.host.clear();
  EXPECT_THROW(
      NetServer(hdc::io::load_pipeline(path), path, no_listener),
      std::invalid_argument);
  NetServerOptions zero_batch;
  zero_batch.batch_size = 0;
  EXPECT_THROW(
      NetServer(hdc::io::load_pipeline(path), path, zero_batch),
      std::invalid_argument);
  NetServerOptions bad_host;
  bad_host.host = "not-an-address";
  EXPECT_THROW(NetServer(hdc::io::load_pipeline(path), path, bad_host),
               std::runtime_error);
  std::filesystem::remove(path);
}

}  // namespace
