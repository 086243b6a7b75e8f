// The softfet simulation service: a crash-tolerant job server behind the
// NDJSON protocol (see protocol.hpp).
//
// Composition of the robustness layers the library already has, behind one
// long-lived surface:
//
//   admission   bounded JobQueue, explicit `overloaded` shedding with
//               retry_after_ms — heavy traffic degrades into rejections,
//               never OOM or unbounded latency;
//   execution   a util::parallel_for-backed worker pool; every job runs
//               under its own RunBudget (wall clock) and CancelToken, so a
//               poisoned job times out or cancels without touching its
//               neighbors, and every throw — ParseError to std::bad_alloc —
//               maps to a structured `error` response (a job can never take
//               the process down);
//   reruns      a failure core::classify_failure grants a rerun (a
//               ConvergenceError) runs once more, at once, under
//               core::tightened_options; parse/validation errors and budget
//               exhaustion are final;
//   output      each attempt streams at most kMaxStreamedBytes of events,
//               then the job ends in a `budget_exhausted` error;
//   caching     a content-addressed NetlistCache shares parsed ASTs across
//               requests of the same netlist, LRU-bounded, bitwise-neutral;
//   resilience  admitted jobs journal their request line into state_dir and
//               Monte-Carlo jobs checkpoint per-sample via util::Checkpoint;
//               a killed daemon re-admits journaled jobs on restart through
//               resume_journaled() and finishes them bitwise-identically
//               (the PR 4 resume contract);
//   drainage    shutdown(cancel_inflight) stops admissions, optionally
//               cancels what is running (checkpoints flush), and waits
//               until every admitted job has produced its terminal
//               response — the SIGTERM/SIGINT path of the daemon binary.
//
// The Server is transport-agnostic: handle_line() takes one request line
// and a Sink for the response lines; examples/softfet_server.cpp wires it
// to stdin/stdout and a Unix socket.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "service/cache.hpp"
#include "service/job_queue.hpp"
#include "service/protocol.hpp"
#include "sim/options.hpp"
#include "util/budget.hpp"
#include "util/subprocess.hpp"

namespace softfet::service {

class Supervisor;

/// Where job handlers execute.
///
/// kThread (default): handlers run on the server's worker threads. Cheap
/// and sufficient when handlers are trusted to fail only via exceptions.
///
/// kProcess: each worker thread drives a forked, sandboxed worker process
/// (service/supervisor.hpp) and ships jobs to it over pipes. A SIGSEGV, an
/// OOM, or a non-terminating loop in a handler kills that worker — never
/// the daemon — and surfaces as a structured `worker_crashed` error with
/// the worker's last-gasp forensics attached.
enum class IsolationMode { kThread, kProcess };

struct ServerConfig {
  std::size_t workers = 2;            ///< worker pool width
  std::size_t queue_capacity = 64;    ///< admission bound (then: overloaded)
  unsigned retry_after_ms = 250;      ///< advisory backoff in rejections
  std::size_t max_line_bytes = 4u << 20;     ///< request line hard cap
  std::size_t max_netlist_bytes = 1u << 20;  ///< embedded netlist cap
  int max_samples = 100000;                  ///< Monte-Carlo sample cap
  double default_timeout_seconds = 30.0;     ///< per-job budget default
  double max_timeout_seconds = 300.0;        ///< per-job budget ceiling
  std::size_t chunk_rows = 256;       ///< waveform rows per `chunk` event
  std::string state_dir;              ///< journal/checkpoint dir ("" = off)
  std::size_t cache_entries = 32;     ///< NetlistCache entry bound
  std::size_t cache_bytes = 8u << 20; ///< NetlistCache byte bound

  IsolationMode isolation = IsolationMode::kThread;
  /// Process-isolation knobs (ignored in thread mode).
  double heartbeat_interval_seconds = 0.1;  ///< worker heartbeat cadence
  double heartbeat_timeout_seconds = 2.0;   ///< silence before SIGKILL
  double hang_grace_seconds = 2.0;    ///< slack past the job timeout
  std::size_t worker_memory_bytes = 0;  ///< RLIMIT_AS per worker (0 = off)
};

/// Point-in-time counters (all lifetime totals except the two gauges).
struct ServerStats {
  std::size_t admitted = 0;
  std::size_t rejected_overloaded = 0;
  std::size_t rejected_invalid = 0;
  std::size_t completed = 0;   ///< terminal `result`
  std::size_t failed = 0;      ///< terminal `error`
  std::size_t cancelled = 0;   ///< terminal `cancelled`
  std::size_t retries = 0;     ///< `retrying` events emitted
  std::size_t resumed = 0;     ///< jobs re-admitted by resume_journaled
  std::size_t queue_depth = 0;   ///< gauge
  std::size_t active_jobs = 0;   ///< gauge (popped, not yet terminal)
  std::size_t worker_crashes = 0;     ///< process mode: attempts lost to worker death
  std::size_t workers_spawned = 0;    ///< process mode: fork() successes
  std::size_t workers_respawned = 0;  ///< process mode: replacement forks
  std::size_t heartbeat_kills = 0;    ///< workers killed for silence
  std::size_t deadline_kills = 0;     ///< workers killed past job deadline
  NetlistCacheStats cache;
};

/// Cap on the non-terminal event bytes one job attempt may stream. Past it
/// the attempt throws BudgetExceededError(kOutputBytes): a budget-stopped
/// transient would otherwise stream its whole partial waveform.
inline constexpr std::size_t kMaxStreamedBytes = std::size_t{64} << 20;

/// Response-line consumer. Must be callable from worker threads; the
/// server serializes calls (one line at a time, never interleaved).
using Sink = std::function<void(const std::string& line)>;

/// Execution context a job handler runs under. `options` is pre-armed with
/// the per-attempt budget and the job's cancel token; handlers stream via
/// emit() and MUST end a successful run with exactly one finish(). emit()
/// takes the event's fields as one serialized JSON object ("{...}", as
/// JsonValue::dump() prints it); its members are spliced unchanged into
/// the response line in both isolation modes, so a handler that writes
/// the text itself (waveform chunks) never builds a JsonValue tree. The
/// fields must not repeat the line's own `id`, `seq` or `event` keys.
struct JobContext {
  sim::SimOptions options;
  const ServerConfig* config = nullptr;
  NetlistCache* cache = nullptr;
  util::CancelToken* cancel = nullptr;
  int attempt = 1;               ///< 1-based; >1 runs tightened options
  std::string checkpoint_path;   ///< per-job ("" when state_dir is off)
  std::function<void(const char* event, const std::string& fields_json)> emit;
  std::function<void(JsonValue fields)> finish;
};

using JobHandler = std::function<void(const Request&, JobContext&)>;

/// Forensics for a dead worker.
struct WorkerCrash {
  util::ExitStatus status;  ///< decoded wait status
  /// "signal" | "exit" | "heartbeat_timeout" | "deadline_timeout" |
  /// "spawn_failed"
  std::string reason;
  JsonValue last_gasp;      ///< parsed crash-handler record (null if none)
  std::string raw_report;   ///< the record's raw line ("" if none)
  std::string report_path;  ///< archived copy ("" when not archived)
};

/// Outcome of one handler attempt, independent of where it ran. The shared
/// attempt layer below is the single implementation both execution modes
/// use: thread mode calls it on a worker thread; process mode calls it
/// inside the forked worker and ships the outcome back over the pipe — so
/// the rerun decision, error shaping, and the emit/finish contract stay
/// byte-for-byte identical across isolation modes. Only process mode adds
/// kCrashed: the worker died and `crash` says how.
struct AttemptOutcome {
  enum class Kind { kResult, kError, kCancelled, kCrashed };
  Kind kind = Kind::kError;
  /// kError only: core::classify_failure granted one tightened rerun.
  bool rerun = false;
  std::string message;
  /// kResult: the handler's finish() payload; kError: the full `error`
  /// event fields; kCancelled: an empty object.
  JsonValue fields;
  WorkerCrash crash;  ///< kCrashed only
};

/// What one attempt needs from its surroundings (a strict subset of the
/// Server so a forked worker can build it from the job frame alone).
struct AttemptContext {
  const ServerConfig* config = nullptr;
  NetlistCache* cache = nullptr;
  util::CancelToken* cancel = nullptr;
  int attempt = 1;
  double timeout_seconds = 0.0;
  std::string checkpoint_path;
  /// Non-terminal event pass-through (chunk/progress; the fields arrive
  /// serialized, as JobContext::emit got them); returns the bytes it
  /// wrote, which count against kMaxStreamedBytes. Events arriving after
  /// the handler's finish() are dropped, matching the server's terminal
  /// latch.
  std::function<std::size_t(const char* event,
                            const std::string& fields_json)>
      emit;
};

/// Run one handler attempt to a classified outcome. Never throws: every
/// exception is folded into kError/kCancelled with the same structured
/// fields Server::emit_terminal_error used to produce.
[[nodiscard]] AttemptOutcome run_handler_attempt(const JobHandler& handler,
                                                 const Request& request,
                                                 const AttemptContext& ctx);

/// The structured fields of an `error` event for a caught exception:
/// code, message, error-specific extras (netlist positions, budget stop),
/// and solver diagnostics when the error carries them.
[[nodiscard]] JsonValue error_event_fields(const std::exception& error,
                                           const std::string& raw_line);

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Register (or replace) a job-type handler. The built-ins ("netlist",
  /// "monte_carlo") are registered by the constructor; tests register
  /// fault-injection types. Not thread-safe against in-flight handling —
  /// register before serving.
  void register_handler(std::string type, JobHandler handler);

  /// Process one NDJSON request line. Control responses and admission
  /// verdicts reach `sink` before returning; job events follow
  /// asynchronously from worker threads through the same sink.
  void handle_line(const std::string& line, const Sink& sink);

  /// Re-admit journaled jobs left by a killed daemon (call after handlers
  /// are registered, before serving traffic). Monte-Carlo jobs resume from
  /// their checkpoint bitwise-identically. Returns the number re-admitted.
  std::size_t resume_journaled(const Sink& sink);

  /// Stop admissions and wait for every admitted job's terminal response.
  /// cancel_inflight=false drains (jobs run to completion);
  /// cancel_inflight=true cancels running and queued jobs cooperatively
  /// (their checkpoints flush; journals survive for a restart's resume).
  /// Idempotent.
  void shutdown(bool cancel_inflight);

  /// Block until the queue is empty and no job is running.
  void wait_idle();

  /// True once a `shutdown` request was received (transports use this to
  /// exit their read loops, then call shutdown()).
  [[nodiscard]] bool stop_requested() const noexcept {
    return stop_requested_.load(std::memory_order_acquire);
  }
  /// The mode the `shutdown` request asked for (true = "now").
  [[nodiscard]] bool stop_cancels_inflight() const noexcept {
    return stop_now_.load(std::memory_order_acquire);
  }

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] const ServerConfig& config() const noexcept {
    return config_;
  }
  /// The process-isolation supervisor (nullptr in thread mode). Exposed
  /// for lifecycle tests: worker pids, crash/kill counters.
  [[nodiscard]] Supervisor* supervisor() noexcept { return supervisor_.get(); }

 private:
  struct JobState {
    Request request;
    Sink sink;
    std::uint64_t seq = 0;             ///< guarded by emit_mutex_
    bool terminal = false;             ///< guarded by emit_mutex_
    util::CancelToken cancel;
    std::atomic<bool> client_cancel{false};  ///< cancel request vs shutdown
    std::string journal_path;          ///< "" when journaling is off
    std::chrono::steady_clock::time_point admitted_at;
  };
  using JobPtr = std::shared_ptr<JobState>;

  void worker_loop(std::size_t slot);
  void run_job(const JobPtr& job, std::size_t slot);
  /// Write one event line: id, seq and event name, then the members of
  /// the serialized fields object `fields_json` spliced in unchanged (a
  /// handler's chunk text or a worker frame, never re-parsed). Returns the
  /// bytes of the line written (0 past a terminal event).
  std::size_t emit_event_raw(const JobPtr& job, std::string_view event,
                             std::string_view fields_json, bool terminal);
  /// emit_event_raw with `fields` serialized by JsonValue::dump().
  std::size_t emit_event(const JobPtr& job, const char* event,
                         const JsonValue& fields, bool terminal) {
    return emit_event_raw(job, event, fields.dump(), terminal);
  }
  void record_latency(const JobPtr& job);
  [[nodiscard]] unsigned dynamic_retry_after_ms() const;
  void emit_terminal_error(const JobPtr& job, const std::exception& error);
  void finish_job(const JobPtr& job, bool keep_journal);
  [[nodiscard]] std::string journal_path_for(const Request& request) const;
  [[nodiscard]] std::string checkpoint_path_for(const Request& request) const;
  void reply(const Sink& sink, const JsonValue& value);
  [[nodiscard]] JsonValue stats_json() const;

  ServerConfig config_;
  NetlistCache cache_;
  std::map<std::string, JobHandler> handlers_;
  JobQueue<JobPtr> queue_;

  /// Serializes the admission section (active-map insert, journal write,
  /// `accepted` emission, queue push) so the capacity pre-check cannot race
  /// another admission and the `accepted` line always precedes `started`.
  std::mutex admission_mutex_;

  mutable std::mutex active_mutex_;
  std::map<std::string, JobPtr> active_;  ///< admitted, not yet terminal

  std::mutex emit_mutex_;  ///< serializes sink writes + seq/terminal state

  mutable std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::size_t running_ = 0;  ///< jobs popped and executing

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> stop_now_{false};
  std::atomic<bool> shut_down_{false};

  std::atomic<std::size_t> admitted_{0};
  std::atomic<std::size_t> rejected_overloaded_{0};
  std::atomic<std::size_t> rejected_invalid_{0};
  std::atomic<std::size_t> completed_{0};
  std::atomic<std::size_t> failed_{0};
  std::atomic<std::size_t> cancelled_{0};
  std::atomic<std::size_t> retries_{0};
  std::atomic<std::size_t> resumed_{0};
  std::atomic<std::size_t> worker_crashes_{0};

  /// Last-N terminal-job latencies (ms), feeding the retry_after_ms hint
  /// in `overloaded` rejections: hint = queue_depth × mean latency /
  /// workers, floored at config.retry_after_ms. Guarded by latency_mutex_.
  mutable std::mutex latency_mutex_;
  static constexpr std::size_t kLatencyWindow = 32;
  double latency_ms_[kLatencyWindow] = {};
  std::size_t latency_count_ = 0;  ///< total recorded (ring index derives)

  /// Process-isolation worker pool (null in thread mode). Worker thread i
  /// exclusively drives supervisor slot i, so job dispatch needs no
  /// cross-thread slot locking.
  std::unique_ptr<Supervisor> supervisor_;

  std::thread pool_;  ///< runs util::parallel_for over the worker loops
};

/// Built-in handlers (exposed for benches and tests that want to invoke
/// them without a Server).
[[nodiscard]] JobHandler netlist_job_handler();
[[nodiscard]] JobHandler monte_carlo_job_handler();

}  // namespace softfet::service
