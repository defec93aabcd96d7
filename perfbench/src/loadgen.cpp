// The end-to-end run: a real `hdcgen serve` process driven by one
// single-threaded load generator (ppoll over every connection).
//
// Phases, against one server:
//  * saturate (half the run) — closed loop: every base connection keeps
//    kInflight rows in flight, so the server's CPU, not the window, limits
//    throughput;
//  * paced (the other half) — open loop at `paced_rate` rows/s; each row
//    is timed from its due time.
// The feedback connection, where there is one, sends `feedback_rate`
// lines/s in both phases.  Each phase is cut into windows; the first is
// warm-up, and the figures come from the windows in which the host stole
// no more CPU time than in the median one (see Selection).

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "hdc/base/rng.hpp"

extern char** environ;

namespace perfbench {

namespace {

// Windows per phase; window 0 is warm-up.  Short windows let the choice
// of windows (Selection) step around bursts of steal.
constexpr std::size_t kWindows = 21;
constexpr std::size_t kBaseConnections = 2;  // socket transport
constexpr std::size_t kInflight = 256;       // rows per base connection
constexpr std::size_t kSetupProbes = 31;
constexpr std::int64_t kDrainTimeoutNs = 20'000'000'000;
constexpr double kMaxSteal = 0.03;      // share of CPU time; see Selection

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

// ---------------------------------------------------------------- process

struct ServerProcess {
  pid_t pid = -1;
  int stdin_fd = -1;   // stdin-pipe transport only
  int stdout_fd = -1;  // stdin-pipe transport only
  std::string log_path;
  std::vector<pid_t> ranks;
};

std::vector<std::string> server_args(const Options& options,
                                     const Workload& workload,
                                     const std::string& socket_path) {
  const Shape& s = options.shape;
  std::vector<std::string> args = {options.hdcgen, "serve",
                                   workload.snapshot_path, "--batch",
                                   std::to_string(s.batch)};
  if (s.replicas > 0) {
    args.insert(args.end(), {"--replicas", std::to_string(s.replicas),
                             "--shard", "rows", "--backend", "fork"});
  } else {
    args.insert(args.end(), {"--threads", std::to_string(s.threads)});
  }
  if (s.head) {
    args.emplace_back("--head");
  }
  if (workload.text) {
    args.insert(args.end(), {"--input", "text"});
  }
  if (!s.stdin_pipe()) {
    args.insert(args.end(), {"--unix", socket_path});
  }
  return args;
}

ServerProcess spawn_server(const std::vector<std::string>& args,
                           bool stdin_pipe, const std::string& log_path) {
  ServerProcess server;
  server.log_path = log_path;
  int in_pipe[2] = {-1, -1};
  int out_pipe[2] = {-1, -1};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (stdin_pipe) {
    if (::pipe2(in_pipe, O_CLOEXEC) != 0 || ::pipe2(out_pipe, O_CLOEXEC) != 0) {
      fail_errno("pipe");
    }
    posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
    posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
  } else {
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  }
  posix_spawn_file_actions_addopen(&actions, 2, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> argv;
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  const int rc = ::posix_spawn(&server.pid, argv[0], &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    errno = rc;
    fail_errno("posix_spawn " + args[0]);
  }
  if (stdin_pipe) {
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    server.stdin_fd = in_pipe[1];
    server.stdout_fd = out_pipe[0];
  }
  return server;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Waits for the server to exit (SIGKILL after a grace period); returns
/// its exit status.
int reap(pid_t pid) {
  int status = 0;
  const std::int64_t deadline = now_ns() + 15'000'000'000;
  while (true) {
    const pid_t got = ::waitpid(pid, &status, WNOHANG);
    if (got == pid) {
      return status;
    }
    if (got < 0 && errno != EINTR) {
      fail_errno("waitpid");
    }
    if (now_ns() > deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return status;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// Stops the server the way an operator would (EOF on stdin, SIGTERM on a
/// socket server) and waits for it and its forked ranks to end.
bool stop_server(ServerProcess& server) {
  if (server.stdout_fd >= 0) {
    if (server.stdin_fd >= 0) {
      ::close(server.stdin_fd);
      server.stdin_fd = -1;
    }
    char buffer[4096];
    while (::read(server.stdout_fd, buffer, sizeof(buffer)) > 0) {
    }
  } else {
    ::kill(server.pid, SIGTERM);
  }
  const int status = reap(server.pid);
  if (server.stdout_fd >= 0) {
    ::close(server.stdout_fd);
    server.stdout_fd = -1;
  }
  // The server shuts its ranks down before it exits; make sure of it.
  for (const pid_t rank : server.ranks) {
    for (int i = 0; i < 500 && ::kill(rank, 0) == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (::kill(rank, 0) == 0) {
      ::kill(rank, SIGKILL);
    }
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// The forked ranks' pids, from the banner `hdcgen serve` prints for
/// scripts ("cluster: ..., worker pids: A B").
std::vector<pid_t> rank_pids(const std::string& log_path) {
  const std::string log = read_file(log_path);
  const std::size_t at = log.find("worker pids:");
  std::vector<pid_t> pids;
  if (at == std::string::npos) {
    return pids;
  }
  std::istringstream in(log.substr(at + 12, log.find('\n', at) - at - 12));
  pid_t pid = 0;
  while (in >> pid) {
    pids.push_back(pid);
  }
  return pids;
}

/// On-CPU time (user + system) of every live thread of \p pid in ns, from
/// the scheduler's per-task accounting (finer than clock ticks).
std::uint64_t cpu_ns(pid_t pid) {
  std::uint64_t total = 0;
  std::error_code error;
  const std::filesystem::path tasks =
      "/proc/" + std::to_string(pid) + "/task";
  for (const auto& task : std::filesystem::directory_iterator(tasks, error)) {
    std::istringstream in(read_file((task.path() / "schedstat").string()));
    std::uint64_t ns = 0;
    if (in >> ns) {
      total += ns;
    }
  }
  return total;
}

std::uint64_t server_cpu_ns(const ServerProcess& server) {
  std::uint64_t total = cpu_ns(server.pid);
  for (const pid_t rank : server.ranks) {
    total += cpu_ns(rank);
  }
  return total;
}

/// One boundary sample: wall time, server CPU and the machine's (steal,
/// total) CPU ticks from /proc/stat.
struct Sample {
  std::int64_t at = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

Sample sample(const ServerProcess& server) {
  Sample out;
  out.at = now_ns();
  out.cpu_ns = server_cpu_ns(server);
  std::istringstream in(read_file("/proc/stat"));
  std::string cpu;
  in >> cpu;
  std::uint64_t ticks = 0;
  for (int field = 0; field < 8 && in >> ticks; ++field) {
    out.total += ticks;
    out.steal = field == 7 ? ticks : out.steal;
  }
  return out;
}

/// Peak resident set (VmHWM) in kB of the server plus its ranks.
double peak_rss_kb(const ServerProcess& server) {
  double total = 0.0;
  std::vector<pid_t> pids = server.ranks;
  pids.push_back(server.pid);
  for (const pid_t pid : pids) {
    const std::string status =
        read_file("/proc/" + std::to_string(pid) + "/status");
    const std::size_t at = status.find("VmHWM:");
    if (at != std::string::npos) {
      total += std::stod(status.substr(at + 6));
    }
  }
  return total;
}

int connect_unix(const std::string& path, std::int64_t deadline) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  while (true) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      fail_errno("socket");
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    const int error = errno;
    ::close(fd);
    if ((error != ENOENT && error != ECONNREFUSED) || now_ns() > deadline) {
      errno = error;
      fail_errno("connect " + path);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

void write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t put = ::write(fd, bytes.data(), bytes.size());
    if (put < 0) {
      if (errno == EINTR) {
        continue;
      }
      fail_errno("write");
    }
    bytes.remove_prefix(static_cast<std::size_t>(put));
  }
}

std::string read_line(int fd) {
  std::string line;
  char c = 0;
  while (true) {
    const ssize_t got = ::read(fd, &c, 1);
    if (got < 0 && errno == EINTR) {
      continue;
    }
    if (got <= 0) {
      return line;  // EOF: an incomplete reply, which never matches.
    }
    line += c;
    if (c == '\n') {
      return line;
    }
  }
}

/// One setup probe: spawn -> first correct prediction, in seconds; a
/// negative value when the reply was wrong.
double probe_setup(const Options& options, const Workload& workload,
                   const std::string& socket_path) {
  const std::uint32_t ref = workload.order.front();
  const std::string log = options.work_dir + "/probe.log";
  const std::int64_t start = now_ns();
  ServerProcess server = spawn_server(
      server_args(options, workload, socket_path), options.shape.stdin_pipe(),
      log);
  std::string reply;
  if (options.shape.stdin_pipe()) {
    // Offline scoring flushes a partial batch only at end of input.
    write_all(server.stdin_fd, workload.lines[ref] + "\n");
    ::close(server.stdin_fd);
    server.stdin_fd = -1;
    reply = read_line(server.stdout_fd);
  } else {
    const int fd = connect_unix(socket_path, start + 30'000'000'000);
    write_all(fd, workload.lines[ref] + "\n");
    reply = read_line(fd);
    ::close(fd);
  }
  const double seconds = static_cast<double>(now_ns() - start) * 1e-9;
  server.ranks = rank_pids(log);
  const bool clean = stop_server(server);
  return reply == workload.expected[ref] && clean ? seconds : -1.0;
}

// ------------------------------------------------------------- generator

enum class Kind : std::uint8_t { Row, Feedback, Control };

struct Pending {
  Kind kind = Kind::Row;
  std::uint32_t ref = 0;  // pool index (Row) or feedback-line index
  std::int64_t due = 0;
};

struct Conn {
  int wfd = -1;
  int rfd = -1;
  bool feedback = false;
  bool dead = false;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<Pending> inflight;
  std::size_t next = 0;    // lines this connection has sent
  std::size_t offset = 0;  // start of its walk over workload.order
};

struct Window {
  std::uint64_t rows = 0;    // prediction rows answered correctly
  std::uint64_t adapts = 0;  // `!adapt` lines acknowledged
  Sample start;
  std::vector<double> latency_ms;
  std::vector<double> lateness_ms;  // paced sends due in this window
};

struct Phase {
  bool paced = false;
  std::int64_t t0 = 0;
  std::int64_t window_ns = 1;
  std::vector<Window> windows;
  Sample end;
  std::uint64_t sent = 0;

  [[nodiscard]] const Sample& window_end(std::size_t i) const {
    return i + 1 < windows.size() ? windows[i + 1].start : end;
  }
};

/// The windows the figures come from: after warm-up, every window that
/// lost no more CPU time to steal than the median window (steal is time
/// the hypervisor ran another guest on this VM's vCPUs).  That is all of
/// them on a quiet host and the cleaner half on a busy one.  A stolen vCPU
/// stalls whatever server or generator thread it was running, which moves
/// every figure, tail latency most.  The choice looks only at steal, never
/// at latency, so a stall the server causes itself still counts.  The
/// phase is flagged when even these windows lost kMaxSteal or more.
struct Selection {
  std::vector<std::size_t> windows;
  bool host_busy = false;
  double steal = 0.0;        // share in the chosen windows
  double phase_steal = 0.0;  // share over the whole phase
};

Selection clean_windows(const Phase& phase) {
  const auto ticks = [](const Sample& from, const Sample& to) {
    return std::pair{to.steal - from.steal, to.total - from.total};
  };
  const auto share = [](std::pair<std::uint64_t, std::uint64_t> t) {
    return t.second == 0 ? 0.0
                         : static_cast<double>(t.first) /
                               static_cast<double>(t.second);
  };
  std::vector<double> steals;
  for (std::size_t i = 1; i < phase.windows.size(); ++i) {
    steals.push_back(
        share(ticks(phase.windows[i].start, phase.window_end(i))));
  }
  const double limit = quantile(steals, 0.5);

  Selection selection;
  std::pair<std::uint64_t, std::uint64_t> chosen{0, 0};
  for (std::size_t i = 1; i < phase.windows.size(); ++i) {
    if (steals[i - 1] > limit) {
      continue;
    }
    selection.windows.push_back(i);
    const auto t = ticks(phase.windows[i].start, phase.window_end(i));
    chosen.first += t.first;
    chosen.second += t.second;
  }
  selection.steal = share(chosen);
  selection.phase_steal = share(ticks(phase.windows[0].start, phase.end));
  selection.host_busy = selection.steal >= kMaxSteal;
  return selection;
}

class Generator {
 public:
  Generator(const Options& options, const Workload& workload,
            const ServerProcess& server, std::vector<Conn>& conns)
      : options_(options), workload_(workload), server_(server),
        conns_(conns) {}

  /// Sends \p command on \p conn and returns its reply (blocking).
  std::string control(Conn& conn, const std::string& command);

  Phase run_phase(bool paced, double seconds);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Served vs in-process readout over every base row answered.
  double served_sum = 0.0;
  double oracle_sum = 0.0;
  std::uint64_t scored = 0;
  // The feedback connection's replies, in order, checked after the run.
  std::vector<std::string> feedback_replies;

 private:
  void send(Conn& conn, Kind kind, std::uint32_t ref, std::int64_t due,
            std::string_view bytes);
  void send_next(Conn& conn, std::int64_t due);
  void pump(std::int64_t until);
  void on_line(Conn& conn, std::string_view line, std::int64_t at);
  void kill_conn(Conn& conn);
  [[nodiscard]] std::size_t inflight_total() const;

  const Options& options_;
  const Workload& workload_;
  const ServerProcess& server_;
  std::vector<Conn>& conns_;
  Phase* phase_ = nullptr;
  std::string control_reply_;
};

void Generator::send(Conn& conn, Kind kind, std::uint32_t ref,
                     std::int64_t due, std::string_view bytes) {
  conn.out.append(bytes);
  conn.out += '\n';
  conn.inflight.push_back({kind, ref, due});
  if (kind != Kind::Control) {
    ++attempted;
    if (phase_ != nullptr) {
      ++phase_->sent;
    }
  }
}

void Generator::send_next(Conn& conn, std::int64_t due) {
  const std::size_t index = conn.next++;
  if (conn.feedback) {
    const FeedbackLine line =
        feedback_line(workload_, options_.shape.feedback_every, index);
    send(conn, Kind::Feedback, static_cast<std::uint32_t>(index), due,
         feedback_wire(workload_, line));
    return;
  }
  const std::uint32_t ref =
      workload_.order[(conn.offset + index) % workload_.order.size()];
  send(conn, Kind::Row, ref, due, workload_.lines[ref]);
}

void Generator::kill_conn(Conn& conn) {
  conn.dead = true;
  for (const Pending& pending : conn.inflight) {
    if (pending.kind != Kind::Control) {
      ++failed;
    }
  }
  conn.inflight.clear();
}

std::size_t Generator::inflight_total() const {
  std::size_t total = 0;
  for (const Conn& conn : conns_) {
    total += conn.inflight.size();
  }
  return total;
}

void Generator::on_line(Conn& conn, std::string_view line, std::int64_t at) {
  if (conn.inflight.empty()) {
    ++failed;  // An unsolicited line: the stream is out of step.
    return;
  }
  const Pending pending = conn.inflight.front();
  conn.inflight.pop_front();
  if (pending.kind == Kind::Control) {
    control_reply_.assign(line);
    return;
  }
  bool ok = true;
  bool adapt = false;
  if (pending.kind == Kind::Row) {
    const std::string& expected = workload_.expected[pending.ref];
    ok = line.size() + 1 == expected.size() &&
         std::memcmp(line.data(), expected.data(), line.size()) == 0;
    double served = 0.0;
    const char* end = line.data() + line.size();
    const auto parsed = std::from_chars(line.data(), end, served);
    if (parsed.ec == std::errc{}) {
      const double truth = workload_.truth[pending.ref];
      const double oracle = workload_.predicted[pending.ref];
      served_sum += workload_.classifier ? (served == truth ? 1.0 : 0.0)
                                         : (served - truth) * (served - truth);
      oracle_sum += workload_.classifier ? (oracle == truth ? 1.0 : 0.0)
                                         : (oracle - truth) * (oracle - truth);
      ++scored;
    }
  } else {
    adapt = line.rfind("!ok adapt ", 0) == 0;
    // Checked against the in-process replay after the run; the index keeps
    // the replies aligned with the lines sent.
    if (feedback_replies.size() <= pending.ref) {
      feedback_replies.resize(pending.ref + 1);
    }
    feedback_replies[pending.ref].assign(line);
    feedback_replies[pending.ref] += '\n';
  }
  if (!ok) {
    ++failed;
  }
  if (phase_ == nullptr) {
    return;
  }
  const std::int64_t stamp = phase_->paced ? pending.due : at;
  const std::int64_t index = (stamp - phase_->t0) / phase_->window_ns;
  if (index < 0 || index >= static_cast<std::int64_t>(phase_->windows.size())) {
    return;
  }
  Window& window = phase_->windows[static_cast<std::size_t>(index)];
  if (phase_->paced) {
    if (!adapt) {
      window.latency_ms.push_back(
          ok ? static_cast<double>(at - pending.due) * 1e-6
             : std::numeric_limits<double>::infinity());
    }
  } else if (ok && adapt) {
    ++window.adapts;
  } else if (ok) {
    ++window.rows;
  }
}

void Generator::pump(std::int64_t until) {
  std::vector<pollfd> fds;
  std::vector<std::pair<Conn*, bool>> owners;  // (conn, is_write)
  for (Conn& conn : conns_) {
    if (conn.dead) {
      continue;
    }
    fds.push_back({conn.rfd, POLLIN, 0});
    owners.emplace_back(&conn, false);
    if (conn.out_off < conn.out.size()) {
      fds.push_back({conn.wfd, POLLOUT, 0});
      owners.emplace_back(&conn, true);
    }
  }
  const std::int64_t wait = std::max<std::int64_t>(0, until - now_ns());
  timespec timeout{static_cast<time_t>(wait / 1'000'000'000),
                   static_cast<long>(wait % 1'000'000'000)};
  if (fds.empty()) {
    ::nanosleep(&timeout, nullptr);
    return;
  }
  if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0) {
    if (errno == EINTR) {
      return;
    }
    fail_errno("ppoll");
  }
  char buffer[65536];
  for (std::size_t i = 0; i < fds.size(); ++i) {
    Conn& conn = *owners[i].first;
    if (fds[i].revents == 0 || conn.dead) {
      continue;
    }
    if (owners[i].second) {
      // SIGPIPE is ignored (main), so a vanished server is an EPIPE here.
      const ssize_t put = ::write(conn.wfd, conn.out.data() + conn.out_off,
                                  conn.out.size() - conn.out_off);
      if (put > 0) {
        conn.out_off += static_cast<std::size_t>(put);
      } else if (errno != EAGAIN && errno != EINTR) {
        kill_conn(conn);
      }
      if (conn.out_off == conn.out.size()) {
        conn.out.clear();
        conn.out_off = 0;
      }
      continue;
    }
    const ssize_t got = ::read(conn.rfd, buffer, sizeof(buffer));
    if (got == 0 || (got < 0 && errno != EAGAIN && errno != EINTR)) {
      kill_conn(conn);
      continue;
    }
    if (got < 0) {
      continue;
    }
    const std::int64_t at = now_ns();
    conn.in.append(buffer, static_cast<std::size_t>(got));
    std::size_t begin = 0;
    std::size_t newline = 0;
    while ((newline = conn.in.find('\n', begin)) != std::string::npos) {
      on_line(conn, std::string_view(conn.in).substr(begin, newline - begin),
              at);
      begin = newline + 1;
    }
    conn.in.erase(0, begin);
  }
}

std::string Generator::control(Conn& conn, const std::string& command) {
  control_reply_.clear();
  send(conn, Kind::Control, 0, now_ns(), command);
  const std::int64_t deadline = now_ns() + kDrainTimeoutNs;
  while (control_reply_.empty() && !conn.dead && now_ns() < deadline) {
    pump(now_ns() + 100'000'000);
  }
  return control_reply_;
}

Phase Generator::run_phase(bool paced, double seconds) {
  const Shape& shape = options_.shape;
  Phase phase;
  phase.paced = paced;
  constexpr std::size_t windows = kWindows;
  phase.windows.resize(windows);
  phase.window_ns = static_cast<std::int64_t>(seconds * 1e9) /
                    static_cast<std::int64_t>(windows);
  phase_ = &phase;
  phase.t0 = now_ns();
  const std::int64_t end =
      phase.t0 + phase.window_ns * static_cast<std::int64_t>(windows);
  // Socket rows arrive one at a time as a seeded Poisson process, each on a
  // randomly chosen base connection: with evenly spaced rows the
  // connections' flush deadlines phase-lock for a whole run, and latency
  // would depend on which phase a run happened to start in.  The stdin
  // front end has no flush timer and answers only full batches, so there
  // whole batches arrive, evenly spaced, and a row's latency is queue wait
  // plus compute rather than the time the generator takes to fill a batch.
  const std::size_t burst = shape.stdin_pipe() ? shape.batch : 1;
  const double burst_rate = shape.paced_rate / static_cast<double>(burst);
  hdc::Rng arrivals(hdc::derive_seed(options_.seed, 0xA441ULL));
  const auto gap_ns = [&] {
    const double gap = shape.stdin_pipe()
                           ? 1.0
                           : -std::log1p(-arrivals.uniform());
    return static_cast<std::int64_t>(gap * 1e9 / burst_rate);
  };
  std::int64_t base_due = phase.t0 + gap_ns();
  const double feedback_period =
      shape.feedback_rate > 0.0 ? 1e9 / shape.feedback_rate : 0.0;
  std::uint64_t feedback_sent = 0;
  std::vector<Conn*> base_conns;
  for (Conn& conn : conns_) {
    if (!conn.feedback) {
      base_conns.push_back(&conn);
    }
  }
  std::size_t next_window = 0;
  while (true) {
    const std::int64_t now = now_ns();
    while (next_window < windows &&
           now >= phase.t0 + phase.window_ns *
                                 static_cast<std::int64_t>(next_window)) {
      phase.windows[next_window++].start = sample(server_);
    }
    if (now >= end) {
      break;
    }
    std::int64_t wake = phase.t0 + phase.window_ns *
                                       static_cast<std::int64_t>(next_window);
    if (paced) {
      // Open loop: everything due by now goes out, whatever is in flight.
      while (base_due <= now) {
        Conn& conn = *base_conns[arrivals.below(base_conns.size())];
        if (!conn.dead) {
          for (std::size_t i = 0; i < burst; ++i) {
            send_next(conn, base_due);
          }
          const auto index =
              static_cast<std::size_t>((base_due - phase.t0) / phase.window_ns);
          if (index < windows) {
            phase.windows[index].lateness_ms.push_back(
                static_cast<double>(now - base_due) * 1e-6);
          }
        }
        base_due += gap_ns();
      }
      wake = std::min(wake, base_due);
    } else {
      for (Conn* conn : base_conns) {
        while (!conn->dead && conn->inflight.size() < kInflight) {
          send_next(*conn, now);
        }
      }
    }
    // The feedback connection is open loop in both phases: a fixed rate of
    // writes beside the readers, so every phase carries the same mix.
    for (Conn& conn : conns_) {
      if (!conn.feedback || conn.dead || feedback_period <= 0.0) {
        continue;
      }
      while (true) {
        const std::int64_t due =
            phase.t0 + static_cast<std::int64_t>(
                           static_cast<double>(feedback_sent) *
                           feedback_period);
        if (due > now) {
          wake = std::min(wake, due);
          break;
        }
        send_next(conn, due);
        ++feedback_sent;
      }
    }
    pump(std::min(wake, end));
  }
  phase.end = sample(server_);
  if (shape.stdin_pipe()) {
    // Offline scoring flushes only full batches: complete the last one
    // (rows due after the phase end are outside every window).
    Conn& conn = conns_.front();
    while (!conn.dead && conn.next % shape.batch != 0) {
      send_next(conn, now_ns());
    }
  }
  // Drain: every line sent gets its reply (or counts as failed).
  const std::int64_t deadline = now_ns() + kDrainTimeoutNs;
  while (inflight_total() > 0 && now_ns() < deadline) {
    pump(now_ns() + 100'000'000);
  }
  for (Conn& conn : conns_) {
    if (!conn.inflight.empty()) {
      kill_conn(conn);
    }
  }
  phase_ = nullptr;
  return phase;
}

std::uint64_t stat_field(const std::string& reply, const char* key) {
  const std::size_t at = reply.find(key);
  return at == std::string::npos
             ? 0
             : std::stoull(reply.substr(at + std::strlen(key)));
}


}  // namespace

void run_end_to_end(const Options& options, const Workload& workload,
                    Result& result) {
  const Shape& shape = options.shape;
  const std::string socket_path = options.work_dir + "/serve.sock";

  // setup_s: spawn -> first correct prediction, median of several probes
  // (the pool and engines are built lazily on the first data row, so the
  // clock runs until a prediction, not until `!ping`).  Half the probes
  // run before the phases and half after, so the median spans two moments
  // of the host's drifting speed.
  std::vector<double> setups;
  const auto probe = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const double seconds = probe_setup(options, workload, socket_path);
      if (seconds < 0.0) {
        result.correct = false;
        ++result.failed;
      } else {
        setups.push_back(seconds);
      }
    }
  };
  probe(kSetupProbes / 2);

  ServerProcess server =
      spawn_server(server_args(options, workload, socket_path),
                   shape.stdin_pipe(), options.work_dir + "/serve.log");
  std::vector<Conn> conns;
  if (shape.stdin_pipe()) {
    Conn& conn = conns.emplace_back();
    conn.wfd = server.stdin_fd;
    conn.rfd = server.stdout_fd;
  } else {
    const std::int64_t deadline = now_ns() + 30'000'000'000;
    const std::size_t total =
        kBaseConnections + (shape.feedback_every > 0 ? 1 : 0);
    for (std::size_t c = 0; c < total; ++c) {
      Conn& conn = conns.emplace_back();
      conn.wfd = conn.rfd = connect_unix(socket_path, deadline);
      conn.feedback = c >= kBaseConnections;
      conn.offset = c * workload.order.size() / (kBaseConnections + 1);
    }
  }
  for (Conn& conn : conns) {
    ::fcntl(conn.rfd, F_SETFL, ::fcntl(conn.rfd, F_GETFL) | O_NONBLOCK);
    ::fcntl(conn.wfd, F_SETFL, ::fcntl(conn.wfd, F_GETFL) | O_NONBLOCK);
  }
  server.ranks = rank_pids(server.log_path);

  Generator gen(options, workload, server, conns);
  bool control_ok = true;
  for (Conn& conn : conns) {
    if (conn.feedback) {
      control_ok &= gen.control(conn, "!use adapted") == "!ok use adapted";
    }
  }
  const auto stats = [&](std::uint64_t& rows, std::uint64_t& batches) {
    if (shape.stdin_pipe()) {
      return;
    }
    const std::string reply = gen.control(conns.front(), "!stats");
    control_ok &= reply.rfind("!ok rows=", 0) == 0;
    rows = stat_field(reply, "rows=");
    batches = stat_field(reply, "batches=");
  };
  std::uint64_t rows1 = 0;
  std::uint64_t batches1 = 0;
  std::uint64_t rows2 = 0;
  std::uint64_t batches2 = 0;
  const Phase saturate = gen.run_phase(false, options.seconds * 0.5);
  stats(rows1, batches1);
  const Phase paced = gen.run_phase(true, options.seconds * 0.5);
  stats(rows2, batches2);
  const double rss_kb = peak_rss_kb(server);
  const bool clean_exit = stop_server(server);
  if (shape.stdin_pipe()) {
    // The stdin front end reports its totals only when it exits.
    const std::string log = read_file(server.log_path);
    const std::size_t at = log.find("served ");
    if (at != std::string::npos) {
      std::istringstream in(log.substr(at + 7));
      std::string word;
      in >> rows2 >> word >> word >> batches2;
    }
  }
  probe(kSetupProbes - kSetupProbes / 2);

  // The feedback connection's replies against the in-process replay.
  std::uint64_t feedback_failed = 0;
  if (!gen.feedback_replies.empty()) {
    FeedbackOracle oracle(workload, shape.head);
    for (std::size_t i = 0; i < gen.feedback_replies.size(); ++i) {
      const FeedbackLine line =
          feedback_line(workload, shape.feedback_every, i);
      const std::string expected = line.adapt
                                       ? oracle.adapt(workload, line.ref)
                                       : oracle.predict(workload, line.ref);
      feedback_failed += gen.feedback_replies[i] == expected ? 0 : 1;
    }
  }

  // Saturate: rows, `!adapt` acks and server CPU summed over the chosen
  // windows.  Paced: percentiles over every sample of the chosen windows.
  const Selection busy_saturate = clean_windows(saturate);
  const Selection busy_paced = clean_windows(paced);
  std::uint64_t rows = 0;
  std::uint64_t adapts = 0;
  std::uint64_t cpu = 0;
  std::int64_t span_ns = 0;
  for (const std::size_t i : busy_saturate.windows) {
    const Sample& start = saturate.windows[i].start;
    const Sample& stop = saturate.window_end(i);
    rows += saturate.windows[i].rows;
    adapts += saturate.windows[i].adapts;
    cpu += stop.cpu_ns - start.cpu_ns;
    span_ns += stop.at - start.at;
  }
  const double span_s = static_cast<double>(span_ns) * 1e-9;
  const double rows_per_s = static_cast<double>(rows) / span_s;
  const double adapt_per_s = static_cast<double>(adapts) / span_s;
  // Offline scoring runs the same whole batches in both phases, so a row
  // costs the same CPU in each, and the host's speed drifts on the scale
  // of a run: on the stdin pipe the CPU figure also sums the chosen paced
  // windows (rows counted by due time), which doubles the stretch of host
  // time it averages over.
  std::uint64_t cpu_lines = rows + adapts;
  if (shape.stdin_pipe()) {
    for (const std::size_t i : busy_paced.windows) {
      cpu += paced.window_end(i).cpu_ns - paced.windows[i].start.cpu_ns;
      cpu_lines += paced.windows[i].latency_ms.size();
    }
  }
  const double cpu_us_per_row =
      static_cast<double>(cpu) * 1e-3 /
      static_cast<double>(std::max<std::uint64_t>(cpu_lines, 1));
  std::vector<double> latency;
  std::vector<double> lateness;
  std::vector<double> window_p99s;  // for the report only
  for (const std::size_t i : busy_paced.windows) {
    const Window& window = paced.windows[i];
    latency.insert(latency.end(), window.latency_ms.begin(),
                   window.latency_ms.end());
    lateness.insert(lateness.end(), window.lateness_ms.begin(),
                    window.lateness_ms.end());
    window_p99s.push_back(quantile(window.latency_ms, 0.99));
  }
  const double p50_ms = quantile(latency, 0.5);
  const double p99_ms = quantile(latency, 0.99);
  // The generator fell behind when its own delay is comparable to the
  // latency it measures.
  const double lateness_p99 = quantile(lateness, 0.99);
  const bool paced_valid = lateness_p99 <= 0.5 * p50_ms;
  result.flags["saturate.host_busy"] = busy_saturate.host_busy;
  result.flags["paced.host_busy"] = busy_paced.host_busy;
  result.flags["paced.generator_late"] = !paced_valid;

  result.attempted += gen.attempted + kSetupProbes;
  result.failed += gen.failed + feedback_failed;
  const bool scores_equal = gen.served_sum == gen.oracle_sum;
  result.correct = result.correct && result.failed == 0 && control_ok &&
                   clean_exit && scores_equal;

  result.metrics["rows_per_s"] = rows_per_s;
  result.metrics["p50_ms"] = p50_ms;
  result.metrics["p99_ms"] = p99_ms;
  result.metrics["cpu_us_per_row"] = cpu_us_per_row;
  result.metrics["setup_s"] = quantile(setups, 0.5);
  result.metrics["peak_rss_mb"] = rss_kb / 1024.0;
  const double fill = [&] {
    // Paced-phase batch fill from the `!stats` deltas (whole run for the
    // stdin front end, which has no control channel).
    const std::uint64_t rows = rows2 - (shape.stdin_pipe() ? 0 : rows1);
    const std::uint64_t batches =
        batches2 - (shape.stdin_pipe() ? 0 : batches1);
    return batches == 0 ? 0.0
                        : static_cast<double>(rows) /
                              static_cast<double>(batches) /
                              static_cast<double>(shape.batch);
  }();
  result.metrics["serve.batch_fill"] = fill;

  const double n = static_cast<double>(gen.scored);
  const auto readout = [&](double sum) {
    if (n == 0.0) {
      return 0.0;
    }
    return workload.classifier ? sum / n : std::sqrt(sum / n);
  };
  std::vector<std::string>& r = result.report;
  r.push_back("saturate: " + fixed(rows_per_s, 0) + " rows/s over " +
              std::to_string(busy_saturate.windows.size()) +
              " windows, cpu " + fixed(cpu_us_per_row, 2) + " us/row" +
              (shape.stdin_pipe() ? " (with the paced windows)" : "") +
              ", " + std::to_string(saturate.sent) + " lines sent");
  if (shape.feedback_every > 0) {
    r.push_back("saturate: adapt_per_s " +
                fixed(adapt_per_s, 1) + " lines/s");
  }
  const auto [p99_low, p99_high] =
      std::minmax_element(window_p99s.begin(), window_p99s.end());
  r.push_back("paced " + fixed(shape.paced_rate, 0) + " rows/s" +
              (shape.stdin_pipe() ? " in whole batches" : "") + ": p50 " +
              fixed(p50_ms, 3) + " ms, p99 " + fixed(p99_ms, 3) + " ms over " +
              std::to_string(latency.size()) + " samples in " +
              std::to_string(window_p99s.size()) + " windows (per-window p99 " +
              fixed(*p99_low, 3) + ".." + fixed(*p99_high, 3) + " ms)");
  for (const auto& [name, selection] :
       {std::pair{"saturate", &busy_saturate},
        std::pair{"paced", &busy_paced}}) {
    r.push_back(std::string(name) + " cpu steal " +
                fixed(100.0 * selection->phase_steal, 2) + "%, " +
                fixed(100.0 * selection->steal, 2) + "% in the " +
                std::to_string(selection->windows.size()) + " of " +
                std::to_string(kWindows - 1) + " windows used" +
                (selection->host_busy
                     ? ": HOST BUSY, at least " + fixed(100.0 * kMaxSteal, 0) +
                           "% even there"
                     : ""));
  }
  r.push_back(std::string("paced generator lateness p99 ") +
              fixed(lateness_p99, 3) + " ms over " +
              std::to_string(lateness.size()) + " sends: " +
              (paced_valid ? "valid" : "INVALID (generator fell behind)"));
  r.push_back("batch fill " + fixed(fill, 3) + " (rows/batches/batch " +
              std::to_string(shape.batch) +
              (shape.stdin_pipe() ? ", whole run)" : ", paced phase)"));
  r.push_back("setup " + fixed(result.metrics["setup_s"] * 1e3, 3) +
              " ms (median of " + std::to_string(setups.size()) +
              " spawns), peak rss " + fixed(rss_kb / 1024.0, 1) + " MB");
  r.push_back(std::string(workload.score_name) + ": served " +
              fixed(readout(gen.served_sum), 6) + " vs in-process " +
              fixed(readout(gen.oracle_sum), 6) + " over " +
              std::to_string(gen.scored) + " rows" +
              (scores_equal ? " (equal)" : " (DIFFER)") +
              "; whole test pool in-process " +
              fixed(workload.pool_score, 6));
  r.push_back("failed_ratio " +
              fixed(static_cast<double>(result.failed) /
                        static_cast<double>(result.attempted),
                    6) +
              " (" + std::to_string(result.failed) + " of " +
              std::to_string(result.attempted) + " lines; feedback replay " +
              std::to_string(gen.feedback_replies.size()) + " lines)");
}

}  // namespace perfbench
