#include "service/server.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>
#include <vector>

#include "core/failure.hpp"
#include "service/supervisor.hpp"
#include "util/build_info.hpp"
#include "util/parallel.hpp"
#include "util/subprocess.hpp"

namespace softfet::service {

namespace {

namespace fs = std::filesystem;

/// Filesystem-safe job-state stem: the id's safe characters (bounded) plus
/// an FNV hash of the full id so distinct ids never collide on disk.
[[nodiscard]] std::string sanitize_id(const std::string& id) {
  std::string safe;
  for (const char c : id) {
    const auto u = static_cast<unsigned char>(c);
    if (std::isalnum(u) != 0 || c == '-' || c == '_') safe += c;
    if (safe.size() >= 40) break;
  }
  char hash[20];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(fnv1a64(id)));
  if (!safe.empty()) safe += '-';
  return safe + hash;
}

/// Journal write: tmp + rename, same-directory. The journal is an intent
/// record (the authoritative durable state is the Checkpoint, which fsyncs);
/// a torn journal line merely fails request parsing on resume.
void write_journal(const std::string& path, const std::string& line) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::trunc);
    if (!file) return;
    file << line << '\n';
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) fs::remove(tmp, ec);
}

void remove_quiet(const std::string& path) {
  if (path.empty()) return;
  std::error_code ec;
  fs::remove(path, ec);
}

[[nodiscard]] bool blank_line(const std::string& line) {
  return line.find_first_not_of(" \t\r\n") == std::string::npos;
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_entries, config_.cache_bytes),
      queue_(config_.queue_capacity) {
  if (config_.workers == 0) config_.workers = 1;
  handlers_["netlist"] = netlist_job_handler();
  handlers_["monte_carlo"] = monte_carlo_job_handler();
  if (!config_.state_dir.empty()) {
    std::error_code ec;
    fs::create_directories(config_.state_dir, ec);
  }
  if (config_.isolation == IsolationMode::kProcess) {
    SupervisorConfig sup;
    sup.slots = config_.workers;
    sup.crash_dir = config_.state_dir;
    sup.build = util::build_info_line();
    sup.server_config = &config_;
    sup.handlers = &handlers_;
    // Workers fork lazily, per slot, on first dispatch — after the caller
    // has registered its handlers (the forked image must hold the final
    // handler map).
    supervisor_ = std::make_unique<Supervisor>(std::move(sup));
  }
  // The worker pool is util::parallel_for run to its natural conclusion on
  // one carrier thread: `workers` indices over `workers` threads, each body
  // a pop-until-closed loop, so the pool drains and joins exactly when the
  // queue is closed and empty. The index doubles as the thread's exclusive
  // supervisor slot in process mode.
  pool_ = std::thread([this] {
    util::parallel_for(
        config_.workers, [this](std::size_t slot) { worker_loop(slot); },
        config_.workers);
  });
}

Server::~Server() {
  shutdown(/*cancel_inflight=*/true);
  if (pool_.joinable()) pool_.join();
}

void Server::register_handler(std::string type, JobHandler handler) {
  handlers_[std::move(type)] = std::move(handler);
}

void Server::reply(const Sink& sink, const JsonValue& value) {
  const std::lock_guard<std::mutex> lock(emit_mutex_);
  sink(value.dump());
}

void Server::handle_line(const std::string& line, const Sink& sink) {
  if (blank_line(line)) return;  // NDJSON keepalive

  if (line.size() > config_.max_line_bytes) {
    ++rejected_invalid_;
    JsonValue event = make_event("", 0, "rejected");
    event.set("code", JsonValue::string(kRejectInvalid));
    event.set("message",
              JsonValue::string("request line exceeds " +
                                std::to_string(config_.max_line_bytes) +
                                " bytes"));
    reply(sink, event);
    return;
  }

  Request request;
  try {
    request = parse_request(line);
  } catch (const ParseError& e) {
    ++rejected_invalid_;
    JsonValue event = make_event("", 0, "rejected");
    event.set("code", JsonValue::string(kRejectInvalid));
    event.set("message", JsonValue::string(e.what()));
    event.set("line", JsonValue::number(e.line()));
    if (e.column() > 0) event.set("column", JsonValue::number(e.column()));
    reply(sink, event);
    return;
  } catch (const std::exception& e) {
    ++rejected_invalid_;
    JsonValue event = make_event("", 0, "rejected");
    event.set("code", JsonValue::string(kRejectInvalid));
    event.set("message", JsonValue::string(e.what()));
    reply(sink, event);
    return;
  }

  // Control requests: answered synchronously, never queued.
  if (request.type == "ping") {
    JsonValue event = make_event(request.id, 0, "result");
    event.set("pong", JsonValue::boolean(true));
    reply(sink, event);
    return;
  }
  if (request.type == "stats") {
    JsonValue event = make_event(request.id, 0, "result");
    event.set("stats", stats_json());
    reply(sink, event);
    return;
  }
  if (request.type == "cancel") {
    const std::string target = request.payload.string_or("job", "");
    bool found = false;
    {
      const std::lock_guard<std::mutex> lock(active_mutex_);
      const auto it = active_.find(target);
      if (it != active_.end()) {
        it->second->client_cancel.store(true, std::memory_order_release);
        it->second->cancel.request();
        found = true;
      }
    }
    JsonValue event = make_event(request.id, 0, "result");
    event.set("job", JsonValue::string(target));
    event.set("state", JsonValue::string(found ? "cancelling" : "unknown"));
    reply(sink, event);
    return;
  }
  if (request.type == "shutdown") {
    const bool now = request.payload.string_or("mode", "drain") == "now";
    if (now) stop_now_.store(true, std::memory_order_release);
    stop_requested_.store(true, std::memory_order_release);
    JsonValue event = make_event(request.id, 0, "result");
    event.set("draining", JsonValue::boolean(true));
    event.set("mode", JsonValue::string(now ? "now" : "drain"));
    reply(sink, event);
    return;
  }

  // Job requests: validate, then admit-or-shed.
  const auto rejected = [&](const char* code, const std::string& message,
                            bool overloaded = false) {
    if (overloaded) {
      ++rejected_overloaded_;
    } else {
      ++rejected_invalid_;
    }
    JsonValue event = make_event(request.id, 0, "rejected");
    event.set("code", JsonValue::string(code));
    event.set("message", JsonValue::string(message));
    if (overloaded) {
      event.set("retry_after_ms", JsonValue::number(dynamic_retry_after_ms()));
      event.set("queue_depth",
                JsonValue::number(static_cast<double>(queue_.depth())));
      event.set("queue_capacity",
                JsonValue::number(static_cast<double>(queue_.capacity())));
    }
    reply(sink, event);
  };

  const auto handler = handlers_.find(request.type);
  if (handler == handlers_.end()) {
    rejected(kRejectInvalid, "unknown request type '" + request.type + "'");
    return;
  }
  if (request.id.empty()) {
    rejected(kRejectInvalid, "job requests need a non-empty \"id\"");
    return;
  }
  if (const JsonValue* netlist = request.payload.get("netlist");
      netlist != nullptr && netlist->is_string() &&
      netlist->as_string().size() > config_.max_netlist_bytes) {
    rejected(kRejectInvalid,
             "embedded netlist exceeds " +
                 std::to_string(config_.max_netlist_bytes) + " bytes");
    return;
  }

  const std::lock_guard<std::mutex> admission(admission_mutex_);
  if (stop_requested_.load(std::memory_order_acquire) || queue_.closed()) {
    rejected(kRejectShuttingDown, "server is shutting down");
    return;
  }
  // Pre-check the bound under the admission lock: pops only shrink the
  // queue, so a passing check guarantees the push below admits and the
  // `accepted` line can be emitted first (lifecycle order).
  if (queue_.depth() >= queue_.capacity()) {
    rejected(kRejectOverloaded, "admission queue is full",
             /*overloaded=*/true);
    return;
  }

  {
    // Duplicate check before the id is moved out of `request`. Inserts are
    // serialized behind admission_mutex_ (workers only erase), so the
    // check-then-emplace below cannot race another admission.
    const std::lock_guard<std::mutex> lock(active_mutex_);
    if (active_.count(request.id) != 0) {
      rejected(kRejectInvalid,
               "a job with id '" + request.id + "' is still active");
      return;
    }
  }

  auto job = std::make_shared<JobState>();
  job->request = std::move(request);
  job->sink = sink;
  job->admitted_at = std::chrono::steady_clock::now();
  job->journal_path = journal_path_for(job->request);

  {
    const std::lock_guard<std::mutex> lock(active_mutex_);
    active_.emplace(job->request.id, job);
  }
  // Journal before `accepted`: once the client has seen the admission, a
  // daemon crash must not lose the job (resume_journaled re-admits it).
  if (!job->journal_path.empty()) {
    write_journal(job->journal_path, job->request.raw_line);
  }

  ++admitted_;
  JsonValue accepted_fields = JsonValue::object();
  accepted_fields.set("queue_depth",
                      JsonValue::number(static_cast<double>(queue_.depth())));
  emit_event(job, "accepted", accepted_fields, false);

  if (queue_.try_push(job) != PushResult::kAdmitted) {
    // Unreachable by construction (bound pre-checked, close serialized
    // behind the admission lock) — but never strand an accepted job.
    emit_event(job, "cancelled", JsonValue::object(), true);
    ++cancelled_;
    finish_job(job, /*keep_journal=*/false);
  }
}

std::size_t Server::resume_journaled(const Sink& sink) {
  if (config_.state_dir.empty()) return 0;
  std::vector<fs::path> journals;
  std::error_code ec;
  for (fs::directory_iterator it(config_.state_dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->path().extension() == ".req") journals.push_back(it->path());
  }
  std::sort(journals.begin(), journals.end());  // deterministic replay order
  std::size_t count = 0;
  for (const auto& path : journals) {
    std::ifstream file(path);
    std::string line;
    if (!file || !std::getline(file, line) || blank_line(line)) {
      remove_quiet(path.string());
      continue;
    }
    // Torn-tail hardening: a daemon killed mid-write can leave a journal
    // whose line is a truncated prefix of the request (no rename barrier
    // survives every filesystem). Validate before replaying: a line that
    // no longer parses is dropped silently — recovery proceeds with the
    // remaining journals instead of emitting a spurious anonymous
    // `rejected` for a job no client is waiting on.
    try {
      (void)parse_request(line);
    } catch (...) {
      remove_quiet(path.string());
      continue;
    }
    const std::size_t before = admitted_.load(std::memory_order_relaxed);
    handle_line(line, sink);
    if (admitted_.load(std::memory_order_relaxed) > before) {
      ++count;
      ++resumed_;
    } else {
      // Rejected on replay (malformed after a torn write, or the queue is
      // too small) — drop the journal so restarts do not loop on it.
      remove_quiet(path.string());
    }
  }
  return count;
}

void Server::shutdown(bool cancel_inflight) {
  {
    const std::lock_guard<std::mutex> admission(admission_mutex_);
    stop_requested_.store(true, std::memory_order_release);
    if (cancel_inflight) stop_now_.store(true, std::memory_order_release);
    queue_.close();
  }
  if (cancel_inflight) {
    const std::lock_guard<std::mutex> lock(active_mutex_);
    for (auto& [id, job] : active_) job->cancel.request();
  }
  wait_idle();
  // Workers are idle now (queue closed and drained), so the supervisor can
  // EOF its worker processes without racing an in-flight dispatch.
  if (supervisor_) supervisor_->shutdown();
  shut_down_.store(true, std::memory_order_release);
}

void Server::wait_idle() {
  std::unique_lock<std::mutex> lock(idle_mutex_);
  idle_cv_.wait(lock, [this] {
    const std::lock_guard<std::mutex> active(active_mutex_);
    return active_.empty();
  });
}

ServerStats Server::stats() const {
  ServerStats s;
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.rejected_overloaded = rejected_overloaded_.load(std::memory_order_relaxed);
  s.rejected_invalid = rejected_invalid_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.resumed = resumed_.load(std::memory_order_relaxed);
  s.queue_depth = queue_.depth();
  {
    const std::lock_guard<std::mutex> lock(idle_mutex_);
    s.active_jobs = running_;
  }
  s.worker_crashes = worker_crashes_.load(std::memory_order_relaxed);
  if (supervisor_) {
    const SupervisorStats sup = supervisor_->stats();
    s.workers_spawned = sup.spawned;
    s.workers_respawned = sup.respawned;
    s.heartbeat_kills = sup.heartbeat_kills;
    s.deadline_kills = sup.deadline_kills;
  }
  s.cache = cache_.stats();
  return s;
}

JsonValue Server::stats_json() const {
  const ServerStats s = stats();
  const auto num = [](std::size_t v) {
    return JsonValue::number(static_cast<double>(v));
  };
  JsonValue out = JsonValue::object();
  out.set("admitted", num(s.admitted));
  out.set("rejected_overloaded", num(s.rejected_overloaded));
  out.set("rejected_invalid", num(s.rejected_invalid));
  out.set("completed", num(s.completed));
  out.set("failed", num(s.failed));
  out.set("cancelled", num(s.cancelled));
  out.set("retries", num(s.retries));
  out.set("resumed", num(s.resumed));
  out.set("queue_depth", num(s.queue_depth));
  out.set("queue_capacity", num(queue_.capacity()));
  out.set("active_jobs", num(s.active_jobs));
  out.set("workers", num(config_.workers));
  out.set("isolation",
          JsonValue::string(config_.isolation == IsolationMode::kProcess
                                ? "process"
                                : "thread"));
  if (config_.isolation == IsolationMode::kProcess) {
    JsonValue iso = JsonValue::object();
    iso.set("worker_crashes", num(s.worker_crashes));
    iso.set("workers_spawned", num(s.workers_spawned));
    iso.set("workers_respawned", num(s.workers_respawned));
    iso.set("heartbeat_kills", num(s.heartbeat_kills));
    iso.set("deadline_kills", num(s.deadline_kills));
    out.set("isolation_stats", std::move(iso));
  }
  {
    const util::BuildInfo& b = util::build_info();
    JsonValue build = JsonValue::object();
    build.set("version", JsonValue::string(b.project_version));
    build.set("git_sha", JsonValue::string(b.git_sha));
    build.set("compiler", JsonValue::string(b.compiler));
    build.set("build_type", JsonValue::string(b.build_type));
    build.set("sanitizer", JsonValue::string(b.sanitizer));
    out.set("build", std::move(build));
  }
  JsonValue cache = JsonValue::object();
  cache.set("hits", num(s.cache.hits));
  cache.set("misses", num(s.cache.misses));
  cache.set("evictions", num(s.cache.evictions));
  cache.set("entries", num(s.cache.entries));
  cache.set("bytes", num(s.cache.bytes));
  out.set("cache", std::move(cache));
  return out;
}

std::string Server::journal_path_for(const Request& request) const {
  if (config_.state_dir.empty()) return {};
  return config_.state_dir + "/job-" + sanitize_id(request.id) + ".req";
}

std::string Server::checkpoint_path_for(const Request& request) const {
  if (config_.state_dir.empty()) return {};
  return config_.state_dir + "/job-" + sanitize_id(request.id) + ".ckpt";
}

void Server::worker_loop(std::size_t slot) {
  while (auto job = queue_.pop()) {
    {
      const std::lock_guard<std::mutex> lock(idle_mutex_);
      ++running_;
    }
    try {
      run_job(*job, slot);
    } catch (...) {
      // run_job's own catch blocks handle everything a handler can throw;
      // this is the "never kill the pool" backstop (e.g. a sink that
      // throws). The job is forcibly finished so no slot leaks.
      try {
        emit_terminal_error(*job, Error("job runner failed"));
      } catch (...) {
      }
      finish_job(*job, /*keep_journal=*/false);
    }
    {
      const std::lock_guard<std::mutex> lock(idle_mutex_);
      --running_;
    }
    idle_cv_.notify_all();
  }
}

AttemptOutcome run_handler_attempt(const JobHandler& handler,
                                   const Request& request,
                                   const AttemptContext& actx) {
  AttemptOutcome out;
  JobContext ctx;
  ctx.options = actx.attempt > 1 ? core::tightened_options(sim::SimOptions{})
                                 : sim::SimOptions{};
  ctx.options.budget.max_wall_seconds = actx.timeout_seconds;
  ctx.options.budget.cancel = actx.cancel;
  ctx.config = actx.config;
  ctx.cache = actx.cache;
  ctx.cancel = actx.cancel;
  ctx.attempt = actx.attempt;
  ctx.checkpoint_path = actx.checkpoint_path;
  bool finished = false;
  std::size_t streamed = 0;
  ctx.emit = [&](const char* event, const std::string& fields_json) {
    if (finished) return;  // terminal latch: nothing streams past finish()
    if (actx.emit) streamed += actx.emit(event, fields_json);
    if (streamed > kMaxStreamedBytes) {
      throw BudgetExceededError(
          "job output exceeded " + std::to_string(kMaxStreamedBytes) +
              " bytes",
          util::BudgetStop::kOutputBytes);
    }
  };
  ctx.finish = [&](JsonValue fields) {
    if (finished) return;
    finished = true;
    out.fields = std::move(fields);
  };

  try {
    handler(request, ctx);
    if (!finished) {
      throw Error("handler for '" + request.type +
                  "' returned without a result");
    }
    out.kind = AttemptOutcome::Kind::kResult;
  } catch (const std::exception& e) {
    if (finished) {
      // The handler delivered its result and then threw; the result wins
      // (the old terminal latch dropped the late error the same way).
      out.kind = AttemptOutcome::Kind::kResult;
      return out;
    }
    out.message = e.what();
    const core::FailureClass cls = core::classify_failure(e);
    if (cls == core::FailureClass::kCancelled) {
      out.kind = AttemptOutcome::Kind::kCancelled;
      out.fields = JsonValue::object();
    } else {
      out.kind = AttemptOutcome::Kind::kError;
      out.rerun = cls == core::FailureClass::kRerun;
      out.fields = error_event_fields(e, request.raw_line);
    }
  } catch (...) {
    const Error error("unknown exception in handler");
    out.kind = AttemptOutcome::Kind::kError;
    out.message = error.what();
    out.fields = error_event_fields(error, request.raw_line);
  }
  return out;
}

namespace {

/// `error` event fields for a dead worker: code worker_crashed plus the
/// crash forensics object (supervisor-side reason/status merged with the
/// worker's own last-gasp record when it managed to write one).
[[nodiscard]] JsonValue crash_error_fields(const AttemptOutcome& verdict) {
  JsonValue out = JsonValue::object();
  out.set("code", JsonValue::string(kErrorWorkerCrashed));
  out.set("message", JsonValue::string(verdict.message));
  JsonValue crash = JsonValue::object();
  crash.set("reason", JsonValue::string(verdict.crash.reason));
  crash.set("status", JsonValue::string(verdict.crash.status.describe()));
  if (verdict.crash.status.signaled) {
    crash.set("signal", JsonValue::number(verdict.crash.status.term_signal));
    crash.set("signal_name",
              JsonValue::string(
                  util::signal_name(verdict.crash.status.term_signal)));
  } else if (verdict.crash.status.exited) {
    crash.set("exit_code",
              JsonValue::number(verdict.crash.status.exit_code));
  }
  if (verdict.crash.last_gasp.is_object()) {
    // The last gasp's own signal/signal_name take precedence: for an
    // SIGXCPU-then-rekill or an abort the faulting signal is what the
    // handler recorded, not what finally reaped the process.
    for (const auto& [key, value] : verdict.crash.last_gasp.members()) {
      crash.set(key, value);
    }
  }
  if (!verdict.crash.report_path.empty()) {
    crash.set("report_path", JsonValue::string(verdict.crash.report_path));
  }
  out.set("crash", std::move(crash));
  return out;
}

}  // namespace

void Server::run_job(const JobPtr& job, std::size_t slot) {
  const auto handler = handlers_.find(job->request.type);
  if (handler == handlers_.end()) {
    emit_terminal_error(job,
                        Error("no handler for '" + job->request.type + "'"));
    finish_job(job, /*keep_journal=*/false);
    return;
  }

  const auto emit_cancelled = [&](const std::string& reason) {
    JsonValue fields = JsonValue::object();
    if (!reason.empty()) fields.set("message", JsonValue::string(reason));
    emit_event(job, "cancelled", fields, true);
    ++cancelled_;
    // A client cancel is final — drop the job's state. A shutdown cancel
    // keeps journal + checkpoint so a restarted daemon resumes the job.
    const bool client = job->client_cancel.load(std::memory_order_acquire);
    finish_job(job, /*keep_journal=*/!client);
  };

  if (job->cancel.requested()) {
    emit_cancelled("cancelled before start");
    return;
  }

  double timeout =
      job->request.payload.number_or("timeout_seconds",
                                     config_.default_timeout_seconds);
  if (!(timeout > 0.0)) timeout = config_.default_timeout_seconds;
  if (config_.max_timeout_seconds > 0.0 && timeout > config_.max_timeout_seconds)
    timeout = config_.max_timeout_seconds;

  // In process mode `started` means a live worker is about to take the
  // job: spawn the slot's worker (and wait out its handshake) first, so a
  // client that acts on `started` never races a lazy fork. A failed spawn
  // is reported by the attempt below.
  if (supervisor_) (void)supervisor_->ensure_worker(slot, job->cancel);
  {
    JsonValue fields = JsonValue::object();
    fields.set("type", JsonValue::string(job->request.type));
    fields.set("timeout_seconds", JsonValue::number(timeout));
    emit_event(job, "started", fields, false);
  }

  // At most two attempts: a failure core::classify_failure grants a rerun
  // runs once more, at once, under tightened options. Every later rerun
  // would repeat the same deterministic input under the same options.
  for (int attempt = 1;; ++attempt) {
    // One attempt, in this thread or in the slot's worker process; both
    // paths classify into the same outcome, so the rerun decision and the
    // emitted event stream are isolation-independent.
    AttemptOutcome verdict;
    if (supervisor_) {
      WorkerJob wjob;
      wjob.id = job->request.id;
      wjob.request_line = job->request.raw_line;
      wjob.attempt = attempt;
      wjob.timeout_seconds = timeout;
      wjob.checkpoint_path = checkpoint_path_for(job->request);
      if (!config_.state_dir.empty()) {
        wjob.crash_archive_path = config_.state_dir + "/crash-" +
                                  sanitize_id(job->request.id) + ".json";
      }
      verdict = supervisor_->run_job(
          slot, wjob,
          [this, job](std::string_view event, std::string_view fields_json) {
            emit_event_raw(job, event, fields_json, false);
          },
          job->cancel);
    } else {
      AttemptContext actx;
      actx.config = &config_;
      actx.cache = &cache_;
      actx.cancel = &job->cancel;
      actx.attempt = attempt;
      actx.timeout_seconds = timeout;
      actx.checkpoint_path = checkpoint_path_for(job->request);
      actx.emit = [this, job](const char* event,
                              const std::string& fields_json) {
        return emit_event_raw(job, event, fields_json, false);
      };
      verdict = run_handler_attempt(handler->second, job->request, actx);
    }

    switch (verdict.kind) {
      case AttemptOutcome::Kind::kResult:
        emit_event(job, "result", verdict.fields, true);
        ++completed_;
        finish_job(job, /*keep_journal=*/false);
        return;
      case AttemptOutcome::Kind::kCancelled:
        emit_cancelled(verdict.message);
        return;
      case AttemptOutcome::Kind::kError:
        if (verdict.rerun && attempt == 1) {
          ++retries_;
          JsonValue fields = JsonValue::object();
          fields.set("attempt", JsonValue::number(2));
          fields.set("message", JsonValue::string(verdict.message));
          emit_event(job, "retrying", fields, false);
          if (job->cancel.requested()) {
            emit_cancelled("cancelled before retry");
            return;
          }
          continue;
        }
        ++failed_;
        emit_event(job, "error", verdict.fields, true);
        finish_job(job, /*keep_journal=*/false);
        return;
      case AttemptOutcome::Kind::kCrashed:
        // A crash is usually deterministic, so it is never retried:
        // retrying would double the blast radius.
        ++worker_crashes_;
        ++failed_;
        emit_event(job, "error", crash_error_fields(verdict), true);
        finish_job(job, /*keep_journal=*/false);
        return;
    }
  }
}

std::size_t Server::emit_event_raw(const JobPtr& job, std::string_view event,
                                   std::string_view fields_json,
                                   bool terminal) {
  // Sink calls happen under the emit lock: response lines are serialized
  // process-wide and every job's seq order equals its line order. Sinks
  // must not call back into the Server.
  const std::lock_guard<std::mutex> lock(emit_mutex_);
  if (job->terminal) return 0;  // never emit past a terminal event
  if (terminal) job->terminal = true;
  std::string line = make_event(job->request.id, job->seq++, event).dump();
  // Splice the fields object's members into the event object. They were
  // printed by this process's own canonical serializer (a handler, a
  // JsonValue::dump() or a worker's frame), so the line is byte-identical
  // to dumping one merged object, without building or parsing it.
  if (fields_json.size() > 2 && fields_json.front() == '{') {
    line.back() = ',';
    line.append(fields_json, 1);
  }
  job->sink(line);
  return line.size();
}

JsonValue error_event_fields(const std::exception& error,
                             const std::string& raw_line) {
  const char* code = kErrorInternal;
  JsonValue fields = JsonValue::object();
  const SolverDiagnostics* diagnostics = nullptr;

  if (const auto* parse = dynamic_cast<const ParseError*>(&error)) {
    code = kErrorParse;
    const NetlistErrorPosition pos = map_netlist_error(*parse, raw_line);
    fields.set("netlist_line", JsonValue::number(pos.netlist_line));
    if (pos.netlist_column > 0)
      fields.set("netlist_column", JsonValue::number(pos.netlist_column));
    if (pos.request_column.has_value()) {
      fields.set("request_column",
                 JsonValue::number(static_cast<double>(*pos.request_column)));
    }
  } else if (dynamic_cast<const InvalidCircuitError*>(&error) != nullptr) {
    code = kErrorInvalidCircuit;
  } else if (dynamic_cast<const RequestError*>(&error) != nullptr) {
    code = kErrorInvalidRequest;
  } else if (const auto* budget =
                 dynamic_cast<const BudgetExceededError*>(&error)) {
    code = kErrorBudget;
    fields.set("stop", JsonValue::string(util::to_string(budget->stop())));
    if (budget->has_diagnostics()) diagnostics = &budget->diagnostics();
  } else if (const auto* conv =
                 dynamic_cast<const ConvergenceError*>(&error)) {
    code = kErrorConvergence;
    if (conv->has_diagnostics()) diagnostics = &conv->diagnostics();
  }

  JsonValue out = JsonValue::object();
  out.set("code", JsonValue::string(code));
  out.set("message", JsonValue::string(error.what()));
  for (const auto& [key, value] : fields.members()) out.set(key, value);
  if (diagnostics != nullptr)
    out.set("diagnostics", diagnostics_to_json(*diagnostics));
  return out;
}

void Server::emit_terminal_error(const JobPtr& job,
                                 const std::exception& error) {
  ++failed_;
  emit_event(job, "error", error_event_fields(error, job->request.raw_line),
             true);
}

void Server::record_latency(const JobPtr& job) {
  const double ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - job->admitted_at)
          .count();
  const std::lock_guard<std::mutex> lock(latency_mutex_);
  latency_ms_[latency_count_ % kLatencyWindow] = ms;
  ++latency_count_;
}

unsigned Server::dynamic_retry_after_ms() const {
  // The static floor is the configured hint; on top of it, estimate how
  // long the backlog actually takes to drain: queue_depth jobs at the mean
  // recent latency, spread over the worker pool. A client backing off by
  // the hint should find a queue slot free with high probability instead
  // of bouncing off `overloaded` again.
  double mean = 0.0;
  std::size_t n = 0;
  {
    const std::lock_guard<std::mutex> lock(latency_mutex_);
    n = std::min(latency_count_, kLatencyWindow);
    for (std::size_t i = 0; i < n; ++i) mean += latency_ms_[i];
  }
  if (n == 0) return config_.retry_after_ms;
  mean /= static_cast<double>(n);
  const double depth = static_cast<double>(queue_.depth());
  const double workers = static_cast<double>(std::max<std::size_t>(
      1, config_.workers));
  const double hint = depth * mean / workers;
  const double floor = static_cast<double>(config_.retry_after_ms);
  constexpr double kCeilingMs = 60000.0;  // never tell clients "go away"
  return static_cast<unsigned>(std::clamp(hint, floor, kCeilingMs));
}

void Server::finish_job(const JobPtr& job, bool keep_journal) {
  record_latency(job);
  {
    const std::lock_guard<std::mutex> lock(active_mutex_);
    active_.erase(job->request.id);
  }
  if (!keep_journal) {
    remove_quiet(job->journal_path);
    remove_quiet(checkpoint_path_for(job->request));
  }
  // The empty idle_mutex_ section pairs with wait_idle's predicate check:
  // a waiter is either before the check (and sees the erased entry) or
  // already parked (and this notify wakes it) — never between.
  { const std::lock_guard<std::mutex> lock(idle_mutex_); }
  idle_cv_.notify_all();
}

}  // namespace softfet::service
