// softfet_server: persistent simulation daemon speaking NDJSON.
//
//   $ ./softfet_server [--socket /path/daemon.sock] [--workers N]
//                      [--queue-depth N] [--state-dir DIR]
//                      [--cache-entries N] [--default-timeout seconds]
//                      [--isolation thread|process]
//                      [--worker-memory bytes] [--once] [--version]
//
// Requests arrive one JSON object per line on stdin and (when --socket is
// given) on a Unix domain socket; responses leave the same way. Job lines
// look like
//
//   {"id":"j1","type":"netlist","netlist":"* rc\nV1 in 0 1\nR1 in out 1k\n
//    C1 out 0 1n\n.tran 1u 10u\n.end","signals":["v(out)"]}
//   {"id":"j2","type":"monte_carlo","samples":32,"seed":7}
//
// and control lines like {"id":"c1","type":"ping"} / "stats" /
// {"id":"c2","type":"cancel","job":"j1"} /
// {"id":"c3","type":"shutdown","mode":"drain"|"now"}.
//
// Robustness contract (see src/service/server.hpp): bounded admission with
// structured `overloaded` rejections, per-job wall-clock budgets and
// cooperative cancel, one immediate tightened rerun for convergence
// trouble, a 64 MiB cap on each attempt's streamed output, structured
// NDJSON errors for everything else — a poisoned job can never take the
// daemon down. With --state-dir, admitted jobs journal their request and
// Monte-Carlo jobs checkpoint samples, so a killed daemon restarted with
// the same --state-dir resumes in-flight jobs and finishes them
// bitwise-identically. SIGTERM and SIGINT both drain: stop admissions,
// cancel in-flight jobs cooperatively (checkpoints flush), emit their
// `cancelled` responses, exit 143/130.
//
// --isolation process forks sandboxed worker processes (rlimits, crash
// handler, heartbeats; see src/service/supervisor.hpp): a SIGSEGV, OOM, or
// infinite loop in a job kills a disposable worker, the job terminates
// with a `worker_crashed` error carrying crash forensics, and the daemon
// keeps serving. The ops runbook in README.md documents exit codes, signal
// semantics, the --state-dir layout, and the crash-report schema.
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "service/server.hpp"
#include "util/budget.hpp"
#include "util/build_info.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace {

using namespace softfet;

/// stdout sink shared by every transport: one mutex so response lines from
/// worker threads and transport threads never interleave.
class StdoutSink {
 public:
  void operator()(const std::string& line) {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::fwrite(line.data(), 1, line.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  }

 private:
  std::mutex mutex_;
};

/// Per-connection socket sink: write() the line + newline; a dead peer
/// (EPIPE) just drops the line — the job itself keeps running and its
/// journal/checkpoint survive for a reconnecting client.
void write_line_fd(int fd, const std::string& line) {
  std::string out = line;
  out += '\n';
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::write(fd, out.data() + off, out.size() - off);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

struct Options {
  std::string socket_path;
  std::string state_dir;
  service::ServerConfig config;
  bool once = false;  ///< exit after stdin EOF even with --socket
};

[[nodiscard]] bool stop_wanted(const service::Server& server) {
  return server.stop_requested() || util::sigint_cancel_token().requested();
}

/// Poll-driven stdin reader: wakes every 200 ms (and on signals — poll is
/// never restarted) so a SIGTERM on an idle daemon drains promptly instead
/// of hanging in a blocking read. Returns at EOF or when a stop is wanted.
void serve_stdin(service::Server& server, const service::Sink& sink) {
  std::string buffer;
  char block[4096];
  while (!stop_wanted(server)) {
    pollfd pfd{};
    pfd.fd = STDIN_FILENO;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const ssize_t n = ::read(STDIN_FILENO, block, sizeof block);
    if (n <= 0) break;  // EOF (or error): stop reading, caller drains
    buffer.append(block, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      server.handle_line(buffer.substr(start, nl - start), sink);
      start = nl + 1;
    }
    buffer.erase(0, start);
  }
  if (!buffer.empty() && !stop_wanted(server)) {
    server.handle_line(buffer, sink);
  }
}

/// Accept-loop for the Unix socket transport. One thread per connection —
/// connections are expected to be few (drivers, dashboards); the bounded
/// admission queue is the actual concurrency limiter.
void serve_socket(service::Server& server, int listen_fd) {
  std::vector<std::thread> connections;
  while (!server.stop_requested() &&
         !util::sigint_cancel_token().requested()) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    connections.emplace_back([&server, fd] {
      auto sink_mutex = std::make_shared<std::mutex>();
      const service::Sink sink = [fd, sink_mutex](const std::string& line) {
        const std::lock_guard<std::mutex> lock(*sink_mutex);
        write_line_fd(fd, line);
      };
      std::string buffer;
      char block[4096];
      for (;;) {
        const ssize_t n = ::read(fd, block, sizeof block);
        if (n <= 0) break;
        buffer.append(block, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (std::size_t nl = buffer.find('\n', start);
             nl != std::string::npos; nl = buffer.find('\n', start)) {
          server.handle_line(buffer.substr(start, nl - start), sink);
          start = nl + 1;
        }
        buffer.erase(0, start);
        if (server.stop_requested()) break;
      }
      if (!buffer.empty()) server.handle_line(buffer, sink);
      ::close(fd);
    });
  }
  for (auto& t : connections) {
    if (t.joinable()) t.join();
  }
}

int run(int argc, char** argv) {
  Options opt;
  opt.config.workers = util::hardware_threads();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      opt.socket_path = need_value("--socket");
    } else if (arg == "--workers") {
      opt.config.workers =
          static_cast<std::size_t>(std::strtoul(need_value("--workers"),
                                                nullptr, 10));
    } else if (arg == "--queue-depth") {
      opt.config.queue_capacity = static_cast<std::size_t>(
          std::strtoul(need_value("--queue-depth"), nullptr, 10));
    } else if (arg == "--state-dir") {
      opt.config.state_dir = need_value("--state-dir");
    } else if (arg == "--cache-entries") {
      opt.config.cache_entries = static_cast<std::size_t>(
          std::strtoul(need_value("--cache-entries"), nullptr, 10));
    } else if (arg == "--default-timeout") {
      opt.config.default_timeout_seconds =
          std::strtod(need_value("--default-timeout"), nullptr);
    } else if (arg == "--isolation") {
      const std::string mode = need_value("--isolation");
      if (mode == "thread") {
        opt.config.isolation = service::IsolationMode::kThread;
      } else if (mode == "process") {
        opt.config.isolation = service::IsolationMode::kProcess;
      } else {
        std::fprintf(stderr, "--isolation must be 'thread' or 'process'\n");
        return 2;
      }
    } else if (arg == "--worker-memory") {
      opt.config.worker_memory_bytes = static_cast<std::size_t>(
          std::strtoull(need_value("--worker-memory"), nullptr, 10));
    } else if (arg == "--once") {
      opt.once = true;
    } else if (arg == "--version") {
      std::printf("%s\n", util::build_info_line().c_str());
      return 0;
    } else {
      std::fprintf(
          stderr,
          "usage: softfet_server [--socket path] [--workers N] "
          "[--queue-depth N] [--state-dir dir] [--cache-entries N] "
          "[--default-timeout seconds] [--isolation thread|process] "
          "[--worker-memory bytes] [--once] [--version]\n");
      return 2;
    }
  }

  // First SIGINT/SIGTERM: cooperative drain (jobs cancel, checkpoints
  // flush, terminal responses go out). Second signal: hard exit 128+signo.
  util::install_signal_cancel();
  std::signal(SIGPIPE, SIG_IGN);  // dead socket peers must not kill us

  service::Server server(opt.config);
  auto out = std::make_shared<StdoutSink>();
  const service::Sink sink = [out](const std::string& line) { (*out)(line); };

  // Hello line: first NDJSON line out, so clients (and crash forensics
  // consumers) can attribute the session to a build before any response.
  {
    const util::BuildInfo& b = util::build_info();
    service::JsonValue hello = service::JsonValue::object();
    hello.set("event", service::JsonValue::string("hello"));
    hello.set("server", service::JsonValue::string("softfet_server"));
    hello.set("version", service::JsonValue::string(b.project_version));
    hello.set("git_sha", service::JsonValue::string(b.git_sha));
    hello.set("compiler", service::JsonValue::string(b.compiler));
    hello.set("build_type", service::JsonValue::string(b.build_type));
    hello.set("sanitizer", service::JsonValue::string(b.sanitizer));
    hello.set("isolation",
              service::JsonValue::string(
                  opt.config.isolation == service::IsolationMode::kProcess
                      ? "process"
                      : "thread"));
    hello.set("pid",
              service::JsonValue::number(static_cast<double>(::getpid())));
    sink(hello.dump());
  }

  const std::size_t resumed = server.resume_journaled(sink);
  if (resumed > 0) {
    std::fprintf(stderr, "softfet_server: resumed %zu journaled job(s)\n",
                 resumed);
  }

  int listen_fd = -1;
  std::thread socket_thread;
  if (!opt.socket_path.empty()) {
    listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0) {
      std::perror("socket");
      return 1;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opt.socket_path.size() >= sizeof addr.sun_path) {
      std::fprintf(stderr, "--socket path too long\n");
      return 2;
    }
    std::strncpy(addr.sun_path, opt.socket_path.c_str(),
                 sizeof addr.sun_path - 1);
    ::unlink(opt.socket_path.c_str());
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
            0 ||
        ::listen(listen_fd, 16) < 0) {
      std::perror("bind/listen");
      ::close(listen_fd);
      return 1;
    }
    std::fprintf(stderr, "softfet_server: listening on %s\n",
                 opt.socket_path.c_str());
    socket_thread =
        std::thread([&server, listen_fd] { serve_socket(server, listen_fd); });
  }

  serve_stdin(server, sink);

  // With a socket transport, stdin EOF does not end the daemon (clients
  // come and go); only a shutdown request or a signal does. --once keeps
  // the scriptable one-shot behavior.
  while (listen_fd >= 0 && !opt.once && !stop_wanted(server)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  if (listen_fd >= 0) {
    // Unblock accept() so the socket thread observes the stop.
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
    if (socket_thread.joinable()) socket_thread.join();
    ::unlink(opt.socket_path.c_str());
  }

  // Drain: a signal or {"type":"shutdown","mode":"now"} cancels in-flight
  // jobs cooperatively (their checkpoints flush and journals survive for a
  // restart); a plain shutdown/EOF lets them finish.
  const bool now = server.stop_cancels_inflight() ||
                   util::sigint_cancel_token().requested();
  server.shutdown(/*cancel_inflight=*/now);
  return util::sigint_cancel_token().requested() ? util::cancel_exit_code() : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "softfet_server: fatal: %s\n", e.what());
    return 1;
  }
}
