#include "service/supervisor.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <deque>
#include <filesystem>
#include <fstream>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include "util/crash_handler.hpp"

namespace softfet::service {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Respawn backoff of a crash-looping slot: doubles per consecutive crash
/// from the base, capped at the max.
constexpr double kRespawnBackoffBaseSeconds = 0.05;
constexpr double kRespawnBackoffMaxSeconds = 2.0;

[[nodiscard]] Clock::duration seconds_of(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(std::max(0.0, s)));
}

[[nodiscard]] JsonValue frame_object(const char* kind) {
  JsonValue f = JsonValue::object();
  f.set("kind", JsonValue::string(kind));
  return f;
}

// ---------------------------------------------------------------------------
// Worker child. Everything below the fork: fresh objects only (its own
// cache, tokens, threads); the parent's Server state — mutexes, sinks,
// sockets — is never touched, and the only exit is _exit() via
// spawn_child(). The handler map and ServerConfig are read through const
// pointers into the (copy-on-write) parent image; both are frozen before
// the first job is served, so the fork sees a complete, immutable view.
// ---------------------------------------------------------------------------

struct ChildState {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<JsonValue> jobs;     ///< job frames queued by the reader
  bool eof = false;               ///< job pipe closed → shut down
  bool job_active = false;
  std::string active_job;
  util::CancelToken* active_cancel = nullptr;

  /// Guards result-pipe writes: event frames can exceed PIPE_BUF, and the
  /// heartbeat thread must not interleave a frame into the middle of one.
  std::mutex write_mutex;
  int result_fd = -1;
};

bool child_send(ChildState& st, const JsonValue& frame) {
  const std::string payload = frame.dump();
  const std::lock_guard<std::mutex> lock(st.write_mutex);
  return util::write_frame(st.result_fd, payload);
}

/// The sole reader of the job pipe. Job frames queue for the main loop;
/// cancel frames trip the active job's token immediately (that is the
/// point of the side thread — the main thread is busy computing). Poll
/// timeouts double as the heartbeat tick: while a job is active, each
/// quiet interval emits a heartbeat frame proving the process is alive
/// and scheduled. Idle workers stay silent so an unread result pipe can
/// never fill up between jobs.
void child_reader_loop(ChildState& st, int job_fd, int heartbeat_ms) {
  util::FrameReader reader(job_fd);
  std::string payload;
  for (;;) {
    const util::FrameRead got = reader.poll_frame(heartbeat_ms, payload);
    if (got == util::FrameRead::kTimeout) {
      bool active = false;
      {
        const std::lock_guard<std::mutex> lock(st.mutex);
        active = st.job_active;
      }
      if (active) (void)child_send(st, frame_object("heartbeat"));
      continue;
    }
    if (got != util::FrameRead::kFrame) break;  // EOF/error → shutdown
    JsonValue frame;
    try {
      frame = json_parse(payload);
    } catch (...) {
      continue;  // corrupt frame from a dying parent: ignore
    }
    const std::string kind = frame.string_or("kind", "");
    if (kind == "cancel") {
      const std::lock_guard<std::mutex> lock(st.mutex);
      if (st.job_active && st.active_cancel != nullptr &&
          frame.string_or("job", "") == st.active_job) {
        st.active_cancel->request();
      }
      continue;
    }
    if (kind == "job") {
      const std::lock_guard<std::mutex> lock(st.mutex);
      st.jobs.push_back(std::move(frame));
      st.cv.notify_all();
    }
  }
  const std::lock_guard<std::mutex> lock(st.mutex);
  st.eof = true;
  st.cv.notify_all();
}

/// The terminal frame's `outcome`, indexed by AttemptOutcome::Kind. A
/// crashed worker sends no terminal frame, so kCrashed has no name.
constexpr const char* kTerminalOutcomes[] = {"result", "error", "cancelled"};

void child_send_terminal(ChildState& st, const char* outcome, bool rerun,
                         const std::string& message, JsonValue fields) {
  JsonValue t = frame_object("terminal");
  t.set("outcome", JsonValue::string(outcome));
  t.set("rerun", JsonValue::boolean(rerun));
  if (!message.empty()) t.set("message", JsonValue::string(message));
  t.set("fields", std::move(fields));
  (void)child_send(st, t);
}

void child_run_one_job(const SupervisorConfig& cfg, ChildState& st,
                       NetlistCache& cache, const JsonValue& frame) {
  const std::string id = frame.string_or("job", "");
  const std::string line = frame.string_or("line", "");
  const int attempt =
      std::max(1, static_cast<int>(frame.number_or("attempt", 1)));
  const double timeout = frame.number_or("timeout_seconds", 30.0);

  util::CancelToken cancel;
  {
    const std::lock_guard<std::mutex> lock(st.mutex);
    st.active_job = id;
    st.active_cancel = &cancel;
    st.job_active = true;
  }

  util::crash_set_stage("parse");
  Request request;
  bool parsed = false;
  try {
    request = parse_request(line);
    parsed = true;
  } catch (const std::exception& e) {
    // The parent admitted this line, so it parsed once already; failing
    // here means the job frame was damaged in transit. Terminal, never
    // retried.
    child_send_terminal(st, "error", /*rerun=*/false, e.what(),
                        error_event_fields(e, line));
  }

  if (parsed) {
    const JsonValue* netlist = request.payload.get("netlist");
    const std::uint64_t work_hash =
        fnv1a64(netlist != nullptr && netlist->is_string()
                    ? netlist->as_string()
                    : request.raw_line);
    util::crash_set_job(id.c_str(), work_hash);
    // Kernel CPU backstop: heartbeats prove liveness and the parent's job
    // deadline catches hangs, but both need the supervisor to be healthy;
    // RLIMIT_CPU fires even if it is not. Soft-only, re-armed per job.
    util::limit_cpu_seconds_from_now(
        timeout + cfg.server_config->hang_grace_seconds + 1.0);

    const auto handler = cfg.handlers->find(request.type);
    if (handler == cfg.handlers->end()) {
      const Error error("no handler for '" + request.type + "'");
      child_send_terminal(st, "error", /*rerun=*/false, error.what(),
                          error_event_fields(error, line));
    } else {
      AttemptContext actx;
      actx.config = cfg.server_config;
      actx.cache = &cache;
      actx.cancel = &cancel;
      actx.attempt = attempt;
      actx.timeout_seconds = timeout;
      actx.checkpoint_path = frame.string_or("checkpoint_path", "");
      std::uint64_t emitted = 0;
      actx.emit = [&](const char* event, const std::string& fields_json) {
        util::crash_set_last_seq(++emitted);
        // Raw event frame: 'E' + name + '\n' + the handler's serialized
        // fields, as-is; the parent splices the bytes straight into its
        // response line instead of paying a parse + re-dump on every
        // (potentially multi-KB chunk) event.
        std::string payload;
        payload.reserve(2 + std::char_traits<char>::length(event) +
                        fields_json.size());
        payload.push_back('E');
        payload += event;
        payload.push_back('\n');
        payload += fields_json;
        const std::lock_guard<std::mutex> lock(st.write_mutex);
        (void)util::write_frame(st.result_fd, payload);
        return payload.size();
      };

      util::crash_set_stage(("handler:" + request.type).c_str());
      AttemptOutcome out = run_handler_attempt(handler->second, request, actx);
      child_send_terminal(st, kTerminalOutcomes[static_cast<int>(out.kind)],
                          out.rerun, out.message, std::move(out.fields));
    }
  }

  util::crash_clear_job();
  const std::lock_guard<std::mutex> lock(st.mutex);
  st.job_active = false;
  st.active_cancel = nullptr;
  st.active_job.clear();
}

int worker_child_main(const SupervisorConfig& cfg, int job_fd, int result_fd,
                      int crash_fd) {
  util::install_crash_handler(crash_fd, cfg.build.c_str());
  util::crash_set_stage("startup");
  if (cfg.server_config->worker_memory_bytes > 0) {
    util::limit_address_space(cfg.server_config->worker_memory_bytes);
  }
  std::signal(SIGPIPE, SIG_IGN);

  ChildState st;
  st.result_fd = result_fd;
  // Fresh per-worker cache: netlist ASTs amortize across this worker's
  // jobs but are rebuilt after a respawn (a crashed worker's cache is
  // suspect by definition).
  NetlistCache cache(cfg.server_config->cache_entries,
                     cfg.server_config->cache_bytes);

  JsonValue ready = frame_object("ready");
  ready.set("pid", JsonValue::number(static_cast<double>(::getpid())));
  if (!child_send(st, ready)) return 1;

  const int heartbeat_ms = std::max(
      10, static_cast<int>(
              cfg.server_config->heartbeat_interval_seconds * 1000.0));
  std::thread reader(
      [&st, job_fd, heartbeat_ms] { child_reader_loop(st, job_fd, heartbeat_ms); });

  util::crash_set_stage("idle");
  for (;;) {
    JsonValue frame;
    {
      std::unique_lock<std::mutex> lock(st.mutex);
      st.cv.wait(lock, [&st] { return st.eof || !st.jobs.empty(); });
      if (st.jobs.empty()) break;  // EOF and drained → clean shutdown
      frame = std::move(st.jobs.front());
      st.jobs.pop_front();
    }
    child_run_one_job(cfg, st, cache, frame);
  }
  reader.join();
  return 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Parent side.
// ---------------------------------------------------------------------------

Supervisor::Supervisor(SupervisorConfig config) : config_(std::move(config)) {
  if (config_.slots == 0) config_.slots = 1;
  // A worker dying mid-write leaves the parent writing to a widowed pipe;
  // that must surface as write_frame() == false, not SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  scratch_dir_ = config_.crash_dir;
  std::error_code ec;
  if (scratch_dir_.empty()) {
    scratch_dir_ = (fs::temp_directory_path(ec) /
                    ("softfet-crash-" + std::to_string(::getpid())))
                       .string();
  }
  fs::create_directories(scratch_dir_, ec);
  slots_.reserve(config_.slots);
  for (std::size_t i = 0; i < config_.slots; ++i) {
    slots_.push_back(std::make_unique<Slot>());
    slots_.back()->crash_path =
        scratch_dir_ + "/crash-worker-" + std::to_string(i) + ".json";
  }
}

Supervisor::~Supervisor() { shutdown(); }

bool Supervisor::spawn_worker(std::size_t slot_index) {
  const std::lock_guard<std::mutex> lock(spawn_mutex_);
  Slot& slot = *slots_[slot_index];

  int job_pipe[2] = {-1, -1};
  int result_pipe[2] = {-1, -1};
  if (::pipe(job_pipe) != 0) return false;
  if (::pipe(result_pipe) != 0) {
    ::close(job_pipe[0]);
    ::close(job_pipe[1]);
    return false;
  }
  const int crash_fd =
      ::open(slot.crash_path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0600);
  if (crash_fd < 0) {
    ::close(job_pipe[0]);
    ::close(job_pipe[1]);
    ::close(result_pipe[0]);
    ::close(result_pipe[1]);
    return false;
  }

  // The child must not hold other workers' pipe ends: a dead worker's EOF
  // detection depends on *all* write-end copies closing, and stray read
  // ends could steal frames. Snapshot under spawn_mutex_ so the list is
  // consistent with the fds actually open at fork time.
  std::vector<int> close_in_child = {job_pipe[1], result_pipe[0]};
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (i == slot_index) continue;
    const Slot& other = *slots_[i];
    if (other.job_fd >= 0) close_in_child.push_back(other.job_fd);
    if (other.reader.fd() >= 0) close_in_child.push_back(other.reader.fd());
  }

  const SupervisorConfig* cfg = &config_;
  const int job_rd = job_pipe[0];
  const int result_wr = result_pipe[1];
  const pid_t pid = util::spawn_child([&close_in_child, cfg, job_rd,
                                       result_wr, crash_fd] {
    for (const int fd : close_in_child) ::close(fd);
    return worker_child_main(*cfg, job_rd, result_wr, crash_fd);
  });
  ::close(job_pipe[0]);
  ::close(result_pipe[1]);
  ::close(crash_fd);
  if (pid < 0) {
    ::close(job_pipe[1]);
    ::close(result_pipe[0]);
    return false;
  }

  slot.job_fd = job_pipe[1];
  slot.reader.reset(result_pipe[0]);
  slot.pid.store(pid, std::memory_order_release);
  ++spawned_;
  if (slot.ever_spawned) ++respawned_;
  slot.ever_spawned = true;
  return true;
}

bool Supervisor::ensure_worker(std::size_t slot_index,
                               const util::CancelToken& cancel) {
  Slot& slot = *slots_[slot_index];
  if (slot.pid.load(std::memory_order_acquire) > 0) return true;

  // Respawn backoff: sleep in small slices so a cancel or shutdown during
  // the window aborts the wait instead of stalling the worker thread.
  while (Clock::now() < slot.earliest_respawn) {
    if (cancel.requested() || shutdown_.load(std::memory_order_acquire)) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  for (int tries = 0; tries < 3; ++tries) {
    if (cancel.requested() || shutdown_.load(std::memory_order_acquire)) {
      return false;
    }
    if (spawn_worker(slot_index)) {
      // Spawn handshake: the first frame must be `ready`. A worker that
      // dies during startup (broken image, rlimit too tight for statics)
      // is caught here rather than poisoning the first job.
      const auto deadline = Clock::now() + std::chrono::seconds(10);
      std::string payload;
      for (;;) {
        const util::FrameRead got = slot.reader.poll_frame(100, payload);
        if (got == util::FrameRead::kFrame) {
          JsonValue frame;
          try {
            frame = json_parse(payload);
          } catch (...) {
            continue;
          }
          if (frame.string_or("kind", "") == "ready") return true;
          continue;  // tolerate stray frames
        }
        if (got == util::FrameRead::kTimeout && Clock::now() < deadline) {
          continue;
        }
        break;  // EOF, error, or handshake deadline
      }
      WorkerJob none;
      (void)retire_worker(slot_index, none, "spawn_failed",
                          /*kill_first=*/true);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

AttemptOutcome Supervisor::retire_worker(std::size_t slot_index,
                                          const WorkerJob& job,
                                          const std::string& reason,
                                          bool kill_first) {
  Slot& slot = *slots_[slot_index];
  const pid_t pid = slot.pid.load(std::memory_order_acquire);

  AttemptOutcome verdict;
  verdict.kind = AttemptOutcome::Kind::kCrashed;
  verdict.crash.reason = reason;

  if (pid > 0) {
    if (kill_first) util::kill_child(pid, SIGKILL);
    if (const auto status = util::wait_child(pid, /*block=*/true)) {
      verdict.crash.status = *status;
    }
  }
  if (reason == "signal" || reason == "exit") {
    // Caller saw EOF but not the cause; refine from the wait status.
    verdict.crash.reason = verdict.crash.status.signaled ? "signal" : "exit";
  }

  // Last-gasp record: written by the worker's crash handler into the
  // pre-opened scratch file. Absent for SIGKILL (heartbeat/deadline kills
  // of a stopped or hung process) — the wait status is all there is then.
  std::string raw;
  {
    std::ifstream file(slot.crash_path);
    if (file) {
      std::getline(file, raw);
    }
  }
  if (!raw.empty()) {
    verdict.crash.raw_report = raw;
    try {
      verdict.crash.last_gasp = json_parse(raw);
    } catch (...) {
      verdict.crash.last_gasp = JsonValue::null();
    }
    if (!job.crash_archive_path.empty()) {
      std::ofstream archive(job.crash_archive_path, std::ios::trunc);
      if (archive) {
        archive << raw << '\n';
        verdict.crash.report_path = job.crash_archive_path;
      }
    }
  }

  verdict.message = "worker " + verdict.crash.status.describe() +
                    " (reason: " + verdict.crash.reason + ")";

  {
    const std::lock_guard<std::mutex> lock(spawn_mutex_);
    if (slot.job_fd >= 0) ::close(slot.job_fd);
    if (slot.reader.fd() >= 0) ::close(slot.reader.fd());
    slot.job_fd = -1;
    slot.reader.reset(-1);
    slot.pid.store(-1, std::memory_order_release);
  }

  ++crashes_;
  ++slot.consecutive_crashes;
  const double backoff =
      std::min(kRespawnBackoffMaxSeconds,
               kRespawnBackoffBaseSeconds *
                   static_cast<double>(1u << std::min(
                       slot.consecutive_crashes - 1, 16)));
  slot.earliest_respawn = Clock::now() + seconds_of(backoff);
  return verdict;
}

AttemptOutcome Supervisor::run_job(
    std::size_t slot_index, const WorkerJob& job,
    const std::function<void(std::string_view event,
                             std::string_view fields_json)>& emit,
    const util::CancelToken& cancel) {
  Slot& slot = *slots_[slot_index];

  if (!ensure_worker(slot_index, cancel)) {
    if (cancel.requested()) {
      AttemptOutcome verdict;
      verdict.kind = AttemptOutcome::Kind::kCancelled;
      verdict.message = "cancelled while waiting for a worker";
      return verdict;
    }
    AttemptOutcome verdict;
    verdict.kind = AttemptOutcome::Kind::kCrashed;
    verdict.crash.reason = "spawn_failed";
    verdict.message = "no worker available (spawn failed)";
    return verdict;
  }

  JsonValue frame = frame_object("job");
  frame.set("job", JsonValue::string(job.id));
  frame.set("line", JsonValue::string(job.request_line));
  frame.set("attempt", JsonValue::number(job.attempt));
  frame.set("timeout_seconds", JsonValue::number(job.timeout_seconds));
  if (!job.checkpoint_path.empty()) {
    frame.set("checkpoint_path", JsonValue::string(job.checkpoint_path));
  }
  if (!util::write_frame(slot.job_fd, frame.dump())) {
    return retire_worker(slot_index, job, "exit", /*kill_first=*/true);
  }

  const auto start = Clock::now();
  const auto job_deadline =
      start +
      seconds_of(job.timeout_seconds +
                 config_.server_config->hang_grace_seconds);
  const auto heartbeat_timeout =
      seconds_of(config_.server_config->heartbeat_timeout_seconds);
  auto heartbeat_deadline = start + heartbeat_timeout;
  bool cancel_sent = false;
  std::string payload;

  for (;;) {
    if (!cancel_sent && cancel.requested()) {
      JsonValue c = frame_object("cancel");
      c.set("job", JsonValue::string(job.id));
      (void)util::write_frame(slot.job_fd, c.dump());
      cancel_sent = true;
    }

    const util::FrameRead got = slot.reader.poll_frame(50, payload);
    const auto now = Clock::now();

    if (got == util::FrameRead::kFrame) {
      heartbeat_deadline = now + heartbeat_timeout;
      // Raw event fast path ('E' + name + '\n' + fields JSON): hand the
      // already-serialized fields through verbatim, as views into the
      // frame — chunk frames are the hot path and are neither parsed nor
      // copied here.
      if (!payload.empty() && payload[0] == 'E') {
        const std::size_t nl = payload.find('\n');
        if (nl != std::string::npos) {
          const std::string_view raw(payload);
          emit(raw.substr(1, nl - 1), raw.substr(nl + 1));
        }
        continue;
      }
      JsonValue reply;
      try {
        reply = json_parse(payload);
      } catch (...) {
        continue;
      }
      const std::string kind = reply.string_or("kind", "");
      if (kind == "terminal") {
        slot.consecutive_crashes = 0;
        AttemptOutcome verdict;  // kError unless the outcome names another
        const std::string outcome = reply.string_or("outcome", "error");
        for (std::size_t k = 0; k < std::size(kTerminalOutcomes); ++k) {
          if (outcome == kTerminalOutcomes[k]) {
            verdict.kind = static_cast<AttemptOutcome::Kind>(k);
          }
        }
        verdict.rerun = reply.bool_or("rerun", false);
        verdict.message = reply.string_or("message", "");
        if (const JsonValue* fields = reply.get("fields")) {
          verdict.fields = *fields;
        }
        return verdict;
      }
      continue;  // heartbeat / stray ready
    }

    if (got == util::FrameRead::kTimeout) {
      if (now >= heartbeat_deadline) {
        ++heartbeat_kills_;
        return retire_worker(slot_index, job, "heartbeat_timeout",
                             /*kill_first=*/true);
      }
      if (now >= job_deadline) {
        ++deadline_kills_;
        return retire_worker(slot_index, job, "deadline_timeout",
                             /*kill_first=*/true);
      }
      continue;
    }

    // kEof / kError: the worker died mid-job. Reap and let the wait
    // status name the cause.
    return retire_worker(slot_index, job, "signal", /*kill_first=*/false);
  }
}

void Supervisor::shutdown() {
  if (shutdown_.exchange(true)) {
    // Idempotent, but late calls still sweep stragglers below.
  }
  const std::lock_guard<std::mutex> lock(spawn_mutex_);
  // Phase 1: EOF every job pipe — the worker main loop drains and _exits.
  for (const auto& slot : slots_) {
    if (slot->job_fd >= 0) {
      ::close(slot->job_fd);
      slot->job_fd = -1;
    }
  }
  // Phase 2: bounded wait, then SIGKILL. No job is in flight (the server
  // drains before shutting the supervisor down), so clean exits are fast.
  for (const auto& slot : slots_) {
    const pid_t pid = slot->pid.load(std::memory_order_acquire);
    if (pid <= 0) continue;
    bool reaped = false;
    const auto deadline = Clock::now() + std::chrono::seconds(2);
    while (Clock::now() < deadline) {
      if (util::wait_child(pid, /*block=*/false).has_value()) {
        reaped = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!reaped) {
      util::kill_child(pid, SIGKILL);
      (void)util::wait_child(pid, /*block=*/true);
    }
    if (slot->reader.fd() >= 0) {
      ::close(slot->reader.fd());
      slot->reader.reset(-1);
    }
    slot->pid.store(-1, std::memory_order_release);
    std::error_code ec;
    fs::remove(slot->crash_path, ec);
  }
}

SupervisorStats Supervisor::stats() const {
  SupervisorStats s;
  s.spawned = spawned_.load(std::memory_order_relaxed);
  s.respawned = respawned_.load(std::memory_order_relaxed);
  s.crashes = crashes_.load(std::memory_order_relaxed);
  s.heartbeat_kills = heartbeat_kills_.load(std::memory_order_relaxed);
  s.deadline_kills = deadline_kills_.load(std::memory_order_relaxed);
  return s;
}

std::vector<pid_t> Supervisor::worker_pids() const {
  std::vector<pid_t> pids;
  pids.reserve(slots_.size());
  for (const auto& slot : slots_) {
    pids.push_back(slot->pid.load(std::memory_order_acquire));
  }
  return pids;
}

}  // namespace softfet::service
