// Process-isolation supervisor: a pool of forked, sandboxed worker
// processes that run job handler attempts so hard faults — SIGSEGV in a
// device model, an allocation bomb, a non-terminating Newton loop — kill a
// disposable worker instead of the daemon.
//
// Topology: supervisor slot i is driven exclusively by server worker
// thread i (the util::parallel_for index), so dispatch is lock-free per
// slot; only spawn/teardown (which snapshot other slots' fds for the
// child's fd hygiene) serialize on a mutex. Each slot owns one worker
// process connected by two pipes carrying length-prefixed JSON frames
// (util/subprocess.hpp):
//
//   parent → child   {"kind":"job", job, line, attempt, timeout_seconds,
//                     checkpoint_path}            one handler attempt
//                    {"kind":"cancel", job}       cooperative cancel
//                    EOF                          clean shutdown
//   child → parent   {"kind":"ready", pid}        spawn handshake
//                    {"kind":"heartbeat"}         liveness while busy
//                    E<name>\n<fields JSON>       chunk/progress (raw:
//                                                 spliced, never re-parsed)
//                    {"kind":"terminal", outcome, rerun, message, fields}
//
// The rerun decision stays in the parent: a worker runs exactly one
// attempt per job frame and reports its outcome plus one `rerun` bit, so
// thread and process mode share the same attempt semantics
// (service::run_handler_attempt) and the client-visible event stream is
// byte-for-byte identical.
//
// Worker death is detected three ways, each mapped to a reason string in
// the crash forensics:
//   - wait status        the pipe EOFs mid-job; the child died (signal or
//                        nonzero exit — its crash handler's last-gasp
//                        record says where);
//   - heartbeat timeout  the *process* went silent (stopped, swapped out,
//                        deadlocked in a signal handler) → SIGKILL;
//   - job deadline       the process is alive and heartbeating but the
//                        attempt outran timeout + hang_grace (infinite
//                        compute loop) → SIGKILL; RLIMIT_CPU backstops
//                        this in the kernel via SIGXCPU.
// Dead workers are respawned lazily with per-slot exponential backoff so
// a crash-looping input cannot turn the pool into a fork bomb.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "service/server.hpp"
#include "util/budget.hpp"
#include "util/subprocess.hpp"

namespace softfet::service {

struct SupervisorConfig {
  std::size_t slots = 2;
  std::string crash_dir;  ///< last-gasp scratch files ("" = temp dir)
  std::string build;      ///< build stamp embedded in crash reports
  /// Handler environment and the process-isolation knobs (heartbeats,
  /// hang grace, worker memory cap).
  const ServerConfig* server_config = nullptr;
  const std::map<std::string, JobHandler>* handlers = nullptr;
};

struct SupervisorStats {
  std::size_t spawned = 0;          ///< successful forks
  std::size_t respawned = 0;        ///< forks replacing a dead worker
  std::size_t crashes = 0;          ///< attempts lost to worker death
  std::size_t heartbeat_kills = 0;  ///< SIGKILLs for heartbeat silence
  std::size_t deadline_kills = 0;   ///< SIGKILLs for a blown job deadline
};

/// One handler attempt to ship to a worker.
struct WorkerJob {
  std::string id;
  std::string request_line;    ///< the raw NDJSON request (re-parsed there)
  int attempt = 1;
  double timeout_seconds = 0.0;
  std::string checkpoint_path;
  /// Where to archive the worker's last-gasp record if it crashes
  /// ("" = don't archive; the outcome still carries the parsed record).
  std::string crash_archive_path;
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorConfig config);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Run one attempt on slot `slot`'s worker (spawning/respawning it as
  /// needed), streaming non-terminal events through `emit` — the fields
  /// arrive as views of the worker's own serialized JSON object inside
  /// the received frame (valid for the call only), ready to splice into a
  /// response line without re-parsing or copying. Blocks until a terminal
  /// frame, worker death, or a kill decision. `cancel` is watched
  /// throughout and forwarded to the worker as a cancel frame. MUST only
  /// be called by the one thread that owns `slot`.
  [[nodiscard]] AttemptOutcome run_job(
      std::size_t slot, const WorkerJob& job,
      const std::function<void(std::string_view event,
                               std::string_view fields_json)>& emit,
      const util::CancelToken& cancel);

  /// Make slot `slot`'s worker live: after its respawn backoff, spawn it
  /// and complete the `ready` handshake, unless it is live already. False
  /// on cancel, shutdown, or repeated spawn failure (run_job then reports
  /// it). MUST only be called by the one thread that owns `slot`.
  [[nodiscard]] bool ensure_worker(std::size_t slot,
                                   const util::CancelToken& cancel);

  /// EOF every worker's job pipe (clean exit), escalate stragglers to
  /// SIGKILL, reap everything. Idempotent. Call only when no run_job is in
  /// flight (the server drains first).
  void shutdown();

  [[nodiscard]] SupervisorStats stats() const;

  /// Live worker pids, one entry per slot (-1 = not spawned). For
  /// lifecycle tests that kill workers externally.
  [[nodiscard]] std::vector<pid_t> worker_pids() const;

 private:
  struct Slot {
    std::atomic<pid_t> pid{-1};
    int job_fd = -1;            ///< parent write end (job/cancel frames)
    util::FrameReader reader;   ///< parent read end (result frames)
    std::string crash_path;     ///< this worker's last-gasp scratch file
    int consecutive_crashes = 0;
    bool ever_spawned = false;
    std::chrono::steady_clock::time_point earliest_respawn{};
  };

  [[nodiscard]] bool spawn_worker(std::size_t slot);
  /// SIGKILL (when still alive), reap, collect forensics, close fds, and
  /// arm the respawn backoff. Returns the kCrashed outcome.
  [[nodiscard]] AttemptOutcome retire_worker(std::size_t slot,
                                              const WorkerJob& job,
                                              const std::string& reason,
                                              bool kill_first);

  SupervisorConfig config_;
  std::string scratch_dir_;  ///< resolved crash_dir
  std::vector<std::unique_ptr<Slot>> slots_;
  /// Serializes fork against fd teardown: the child's close-other-slots
  /// list must be a consistent snapshot, so spawn, retire, and shutdown
  /// all hold this while touching any slot's fds.
  std::mutex spawn_mutex_;
  std::atomic<bool> shutdown_{false};

  std::atomic<std::size_t> spawned_{0};
  std::atomic<std::size_t> respawned_{0};
  std::atomic<std::size_t> crashes_{0};
  std::atomic<std::size_t> heartbeat_kills_{0};
  std::atomic<std::size_t> deadline_kills_{0};
};

}  // namespace softfet::service
