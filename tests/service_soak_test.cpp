// Fault-injected soak harness for the simulation service (ctest label
// "service-soak").
//
// Thousands of queued jobs — healthy, transiently failing, poisoned,
// malformed, oversized, cancelled, plus real netlist and fault-injected
// device simulations — flow through one Server from several submitter
// threads. The harness then audits the full response transcript against the
// protocol's lifecycle contract: per-job seq numbers contiguous and in
// arrival order, exactly one terminal event per admitted job, standalone
// `rejected` for everything never admitted, zero leaked queue slots, and a
// process that is still healthy afterwards. Separate cases prove the
// service's answers are bitwise-equal to direct library calls and that a
// killed daemon resumes journaled Monte-Carlo jobs to bitwise-identical
// results.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "cells/inverter.hpp"
#include "core/variation.hpp"
#include "devices/capacitor.hpp"
#include "devices/ptm.hpp"
#include "devices/resistor.hpp"
#include "devices/sources.hpp"
#include "fault_injection.hpp"
#include "netlist/elaborate.hpp"
#include "netlist/run.hpp"
#include "service/server.hpp"
#include "service/supervisor.hpp"
#include "sim/analyses.hpp"
#include "util/error.hpp"

namespace ss = softfet::service;
namespace fs = std::filesystem;
using softfet::BudgetExceededError;
using softfet::ConvergenceError;
using softfet::util::BudgetStop;

namespace {

/// Thread-safe transcript collector with per-id views.
class Transcript {
 public:
  ss::Sink sink() {
    return [this](const std::string& line) {
      const std::lock_guard<std::mutex> lock(mutex_);
      lines_.push_back(line);
    };
  }
  [[nodiscard]] std::vector<std::string> lines() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return lines_;
  }
  [[nodiscard]] std::map<std::string, std::vector<ss::JsonValue>> by_id()
      const {
    std::map<std::string, std::vector<ss::JsonValue>> out;
    for (const auto& line : lines()) {
      ss::JsonValue v = ss::json_parse(line);
      out[v.string_or("id", "")].push_back(std::move(v));
    }
    return out;
  }
  [[nodiscard]] std::vector<ss::JsonValue> events(const std::string& id) const {
    std::vector<ss::JsonValue> out;
    for (const auto& line : lines()) {
      ss::JsonValue v = ss::json_parse(line);
      if (v.string_or("id", "") == id) out.push_back(std::move(v));
    }
    return out;
  }
  [[nodiscard]] std::size_t count(const std::string& id,
                                  const std::string& event) const {
    std::size_t n = 0;
    for (const auto& ev : events(id)) {
      if (ev.string_or("event", "") == event) ++n;
    }
    return n;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> lines_;
};

[[nodiscard]] bool is_terminal(const std::string& event) {
  return event == "result" || event == "error" || event == "cancelled";
}

/// Audit one admitted-or-rejected job transcript against the lifecycle
/// contract. Returns the terminal event name ("rejected" for non-admitted).
std::string check_lifecycle(const std::string& id,
                            const std::vector<ss::JsonValue>& events) {
  EXPECT_FALSE(events.empty()) << id << " produced no response at all";
  if (events.empty()) return "missing";
  const std::string first = events.front().string_or("event", "");
  if (first == "rejected") {
    EXPECT_EQ(events.size(), 1u) << id << " got events past its rejection";
    return "rejected";
  }
  EXPECT_EQ(first, "accepted") << id;
  bool started = false;
  std::size_t terminals = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].number_or("seq", -1), static_cast<double>(i))
        << id << " seq gap at position " << i;
    const std::string event = events[i].string_or("event", "");
    if (i == 0) continue;
    if (event == "started") {
      EXPECT_FALSE(started) << id << " started twice";
      EXPECT_EQ(terminals, 0u) << id;
      started = true;
    } else if (event == "chunk" || event == "progress" ||
               event == "retrying") {
      EXPECT_TRUE(started) << id << " streamed before start";
      EXPECT_EQ(terminals, 0u) << id;
    } else if (is_terminal(event)) {
      ++terminals;
      EXPECT_EQ(i, events.size() - 1)
          << id << " emitted past its terminal " << event;
    } else {
      ADD_FAILURE() << id << " unexpected event '" << event << "'";
    }
  }
  EXPECT_EQ(terminals, 1u) << id << " needs exactly one terminal event";
  const std::string last = events.back().string_or("event", "");
  if (last == "result") {
    EXPECT_TRUE(started) << id;
  }
  return last;
}

/// Small linear RC netlists (note the mandatory SPICE title line) — a few
/// variants so the content-addressed cache sees both hits and misses.
[[nodiscard]] std::string rc_netlist(int variant) {
  return "soak rc " + std::to_string(variant) +
         "\\nV1 in 0 1\\nR1 in out " + std::to_string(1 + variant) +
         "k\\nC1 out 0 1n\\n.tran 1u 10u\\n.end";
}

/// Register the cheap fault-injection handlers the soak mixes in. All of
/// them are driven by the request payload, so one server serves every mode.
void register_fault_handlers(ss::Server& server) {
  server.register_handler("ok", [](const ss::Request& req,
                                   ss::JobContext& ctx) {
    ss::JsonValue result = ss::JsonValue::object();
    result.set("value", ss::JsonValue::number(req.payload.number_or("n", 0)));
    ctx.finish(std::move(result));
  });
  server.register_handler("flaky", [](const ss::Request&, ss::JobContext& ctx) {
    if (ctx.attempt < 2) throw ConvergenceError("injected transient failure");
    ctx.finish(ss::JsonValue::object());
  });
  server.register_handler("fatal", [](const ss::Request&, ss::JobContext&) {
    throw ConvergenceError("injected permanent divergence");
  });
  server.register_handler("internal", [](const ss::Request&, ss::JobContext&) {
    throw std::runtime_error("injected handler bug");
  });
  server.register_handler("budget", [](const ss::Request&, ss::JobContext&) {
    throw BudgetExceededError("injected wall-clock exhaustion",
                              BudgetStop::kWallClock);
  });
  server.register_handler(
      "cancelme", [](const ss::Request&, ss::JobContext& ctx) {
        // Wait (bounded) for the client's cancel; a cancel that never
        // arrives — or arrived before the pop — still terminates cleanly.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(400);
        while (!ctx.cancel->requested() &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (ctx.cancel->requested()) {
          throw BudgetExceededError("cancelled", BudgetStop::kCancel);
        }
        ctx.finish(ss::JsonValue::object());
      });
  server.register_handler(
      "fault_rc", [](const ss::Request& req, ss::JobContext& ctx) {
        // A real fault-injected device simulation: NaN residuals sabotage
        // the Newton solves mid-transient. A bounded fault budget is cured
        // by the recovery ladder; an unlimited one diverges terminally.
        namespace sd = softfet::devices;
        namespace sim = softfet::sim;
        const int budget = static_cast<int>(req.payload.number_or("fault_budget", 1));
        sim::Circuit circuit;
        const auto in = circuit.node("in");
        const auto out = circuit.node("out");
        circuit.add<sd::VSource>("Vin", in, sim::kGroundNode,
                                 sd::SourceSpec::ramp(0.0, 1.0, 100e-12,
                                                      30e-12));
        circuit.add<sd::Resistor>("R1", in, out, 1e3);
        circuit.add<sd::Capacitor>("C1", out, sim::kGroundNode, 1e-15);
        circuit.add<softfet::testing::FaultDevice>(
            "FLT1", out, softfet::testing::FaultMode::kNanResidual, 200e-12,
            1e-9, budget);
        circuit.prepare();
        const auto tran = sim::run_transient(circuit, 2e-9, ctx.options);
        ss::JsonValue result = ss::JsonValue::object();
        result.set("accepted_steps",
                   ss::JsonValue::number(
                       static_cast<double>(tran.accepted_steps)));
        ctx.finish(std::move(result));
      });
}

/// Process-isolation config with test-speed heartbeats. Hard-fault cases
/// (ServiceHardFault.*) run ONLY under this mode: in thread mode a single
/// SIGSEGV would take the whole test binary down.
[[nodiscard]] ss::ServerConfig process_config(std::size_t workers) {
  ss::ServerConfig config;
  config.workers = workers;
  config.isolation = ss::IsolationMode::kProcess;
  config.heartbeat_interval_seconds = 0.05;
  config.heartbeat_timeout_seconds = 1.0;
  config.hang_grace_seconds = 0.4;
  return config;
}

/// RLIMIT_AS cap for sandboxed workers: the test binary's own address
/// space (forked children inherit it wholesale — gtest, thread stacks,
/// allocator arenas) plus 320 MB of real headroom for the allocation bomb
/// to chew through. An absolute cap would either dwarf the machine or sit
/// below the parent's footprint and starve healthy jobs.
[[nodiscard]] std::size_t worker_memory_cap() {
  std::size_t pages = 0;
  std::ifstream statm("/proc/self/statm");
  if (!(statm >> pages) || pages == 0) return std::size_t{2} << 30;
  return pages * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)) +
         (std::size_t{320} << 20);
}

/// Handlers whose faults no thread can survive: they crash, stall, or
/// freeze the worker *process*. "hard_fault" drives a FaultDevice inside a
/// real transient so the crash happens mid-solve, exactly where a buggy
/// device model would fire; "sleepy" and "freeze" give lifecycle tests a
/// busy resp. heartbeat-silent worker to shoot at.
void register_hard_fault_handlers(ss::Server& server) {
  server.register_handler(
      "hard_fault", [](const ss::Request& req, ss::JobContext& ctx) {
        namespace sd = softfet::devices;
        namespace sim = softfet::sim;
        using softfet::testing::FaultMode;
        const std::string mode_name = req.payload.string_or("mode", "");
        FaultMode mode = FaultMode::kCrashAbort;
        if (mode_name == "abort") {
          mode = FaultMode::kCrashAbort;
        } else if (mode_name == "segv") {
          mode = FaultMode::kCrashNullDeref;
        } else if (mode_name == "alloc_bomb") {
          mode = FaultMode::kAllocBomb;
        } else if (mode_name == "spin") {
          mode = FaultMode::kInfiniteLoop;
        } else {
          throw softfet::Error("unknown hard_fault mode '" + mode_name + "'");
        }
        sim::Circuit circuit;
        const auto in = circuit.node("in");
        const auto out = circuit.node("out");
        circuit.add<sd::VSource>(
            "Vin", in, sim::kGroundNode,
            sd::SourceSpec::ramp(0.0, 1.0, 100e-12, 30e-12));
        circuit.add<sd::Resistor>("R1", in, out, 1e3);
        circuit.add<sd::Capacitor>("C1", out, sim::kGroundNode, 1e-15);
        circuit.add<softfet::testing::FaultDevice>("FLT1", out, mode, 200e-12,
                                                   1e-9, 1);
        circuit.prepare();
        const auto tran = sim::run_transient(circuit, 2e-9, ctx.options);
        ss::JsonValue result = ss::JsonValue::object();
        result.set("accepted_steps",
                   ss::JsonValue::number(
                       static_cast<double>(tran.accepted_steps)));
        ctx.finish(std::move(result));
      });
  server.register_handler(
      "sleepy", [](const ss::Request& req, ss::JobContext& ctx) {
        const int ms = static_cast<int>(req.payload.number_or("ms", 500));
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
        while (std::chrono::steady_clock::now() < deadline &&
               !ctx.cancel->requested()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        ss::JsonValue result = ss::JsonValue::object();
        result.set("slept", ss::JsonValue::number(ms));
        ctx.finish(std::move(result));
      });
  server.register_handler("freeze", [](const ss::Request&, ss::JobContext&) {
    // SIGSTOP freezes the whole worker process — heartbeats included — so
    // only the supervisor's heartbeat-silence SIGKILL can reclaim the slot.
    ::raise(SIGSTOP);
  });
}

}  // namespace

TEST(ServiceSoak, ThousandsOfFaultInjectedJobsKeepTheContract) {
  ss::ServerConfig config;
  config.workers = 4;
  config.queue_capacity = 256;
  config.max_netlist_bytes = 1024;  // small cap so oversized lines are cheap
  const auto owned = std::make_unique<ss::Server>(config);
  ss::Server& server = *owned;
  register_fault_handlers(server);

  Transcript out;
  const ss::Sink sink = out.sink();

  constexpr int kThreads = 3;
  constexpr int kPerThread = 700;  // 2100 submissions total
  std::mutex ids_mutex;
  std::vector<std::string> job_ids;
  std::vector<std::string> control_ids;
  std::atomic<std::size_t> unaddressed_rejections{0};

  const auto submitter = [&](int tid) {
    std::vector<std::string> my_jobs;
    std::vector<std::string> my_controls;
    for (int i = 0; i < kPerThread; ++i) {
      const std::string id = std::string("j")
                                 .append(std::to_string(tid))
                                 .append("-")
                                 .append(std::to_string(i));
      const std::string idq = "\"id\":\"" + id + "\"";
      switch (i % 20) {
        case 0:  // malformed NDJSON -> standalone rejection with empty id
          server.handle_line("{\"id\": " + id, sink);
          ++unaddressed_rejections;
          continue;
        case 1:  // blank keepalive -> no response at all
          server.handle_line("   \t ", sink);
          continue;
        case 2: {  // oversized embedded netlist -> rejected invalid
          server.handle_line("{" + idq + ",\"type\":\"netlist\",\"netlist\":\"" +
                                 std::string(2000, 'x') + "\"}",
                             sink);
          my_jobs.push_back(id);
          continue;
        }
        case 3:  // real netlist simulation through the cache
          server.handle_line("{" + idq + ",\"type\":\"netlist\",\"netlist\":\"" +
                                 rc_netlist(i % 3) + "\"}",
                             sink);
          my_jobs.push_back(id);
          continue;
        case 4: {  // mid-job (or pre-pop) cooperative cancel
          server.handle_line("{" + idq + ",\"type\":\"cancelme\"}", sink);
          const std::string ctl =
              "c" + std::to_string(tid) + "-" + std::to_string(i);
          server.handle_line("{\"id\":\"" + ctl +
                                 "\",\"type\":\"cancel\",\"job\":\"" + id +
                                 "\"}",
                             sink);
          my_jobs.push_back(id);
          my_controls.push_back(ctl);
          continue;
        }
        case 5:
          server.handle_line("{" + idq + ",\"type\":\"flaky\"}", sink);
          break;
        case 6:
          server.handle_line("{" + idq + ",\"type\":\"fatal\"}", sink);
          break;
        case 7:
          server.handle_line("{" + idq + ",\"type\":\"internal\"}", sink);
          break;
        case 8:
          server.handle_line("{" + idq + ",\"type\":\"budget\"}", sink);
          break;
        case 9:  // fault-injected device sim, cured by the recovery ladder
          server.handle_line(
              "{" + idq + ",\"type\":\"fault_rc\",\"fault_budget\":1}", sink);
          break;
        case 19:
          if (i % 400 == 19) {  // a few terminally diverging device sims
            server.handle_line(
                "{" + idq + ",\"type\":\"fault_rc\",\"fault_budget\":-1}",
                sink);
            break;
          }
          [[fallthrough]];
        default:
          server.handle_line(
              "{" + idq + ",\"type\":\"ok\",\"n\":" + std::to_string(i) + "}",
              sink);
          break;
      }
      my_jobs.push_back(id);
    }
    const std::lock_guard<std::mutex> lock(ids_mutex);
    job_ids.insert(job_ids.end(), my_jobs.begin(), my_jobs.end());
    control_ids.insert(control_ids.end(), my_controls.begin(),
                       my_controls.end());
  };

  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) submitters.emplace_back(submitter, t);
  for (auto& t : submitters) t.join();
  server.wait_idle();

  // Every submitted job reached exactly one ending; tally them.
  const auto transcript = out.by_id();
  std::map<std::string, std::size_t> endings;
  for (const auto& id : job_ids) {
    const auto it = transcript.find(id);
    ASSERT_NE(it, transcript.end()) << id << " left no transcript";
    ++endings[check_lifecycle(id, it->second)];
  }
  // Control requests answer exactly once, synchronously.
  for (const auto& id : control_ids) {
    const auto it = transcript.find(id);
    ASSERT_NE(it, transcript.end()) << id;
    EXPECT_EQ(it->second.size(), 1u) << id;
    EXPECT_EQ(it->second.front().string_or("event", ""), "result") << id;
  }
  // Malformed lines produced their standalone empty-id rejections.
  const auto anonymous = transcript.find("");
  ASSERT_NE(anonymous, transcript.end());
  EXPECT_EQ(anonymous->second.size(), unaddressed_rejections.load());
  for (const auto& ev : anonymous->second) {
    EXPECT_EQ(ev.string_or("event", ""), "rejected");
  }

  // Global accounting: no leaked queue slots, no stuck jobs, counters add
  // up to the transcript.
  const ss::ServerStats stats = server.stats();
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.admitted, stats.completed + stats.failed + stats.cancelled);
  EXPECT_EQ(stats.admitted,
            endings["result"] + endings["error"] + endings["cancelled"]);
  EXPECT_EQ(stats.completed, endings["result"]);
  EXPECT_EQ(stats.failed, endings["error"]);
  EXPECT_EQ(stats.cancelled, endings["cancelled"]);
  EXPECT_GT(stats.completed, 0u);
  EXPECT_GT(stats.failed, 0u);       // fatal/internal/budget modes
  EXPECT_GT(stats.retries, 0u);      // flaky mode
  EXPECT_GT(stats.rejected_invalid, 0u);
  EXPECT_GT(stats.cache.hits, 0u);   // repeated RC netlists hit the cache
  EXPECT_LE(stats.cache.entries, config.cache_entries);

  // The server is still healthy: a fresh job runs clean after the storm.
  Transcript after;
  server.handle_line(R"({"id":"after","type":"ok"})", after.sink());
  server.wait_idle();
  EXPECT_EQ(after.count("after", "result"), 1u);
}

namespace {

/// `rc_netlist(variant)` with its JSON `\n` escapes decoded.
[[nodiscard]] std::string rc_netlist_text(int variant) {
  std::string text = rc_netlist(variant);
  for (std::size_t nl = text.find("\\n"); nl != std::string::npos;
       nl = text.find("\\n")) {
    text.replace(nl, 2, 1, '\n');
  }
  return text;
}

/// The text of one of the example netlists shipped with the repository.
[[nodiscard]] std::string example_netlist(const std::string& name) {
  std::ifstream file(fs::path(SOFTFET_SOURCE_DIR) / "examples" / "netlists" /
                     name);
  EXPECT_TRUE(file) << "cannot open example netlist " << name;
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

/// An RC ladder of `sections` 1k/1p sections driven by a pulse, with a
/// short .tran: sections + 2 unknowns, so 126 sections or more reach the
/// sparse LU's AMD path.
[[nodiscard]] std::string rc_ladder_text(int sections) {
  std::string text = "rc ladder, " + std::to_string(sections) +
                     " sections\nV1 n0 0 PULSE(0 1 0 1n 1n 5n 20n)\n";
  for (int k = 1; k <= sections; ++k) {
    const std::string prev = "n" + std::to_string(k - 1);
    const std::string node = "n" + std::to_string(k);
    text += "R" + std::to_string(k) + " " + prev + " " + node + " 1k\n";
    text += "C" + std::to_string(k) + " " + node + " 0 1p\n";
  }
  return text + ".tran 0.1n 20n\n.end\n";
}

/// Differential check: stream `deck` through a server under `config`
/// twice (the second job parses nothing: the AST comes from the cache) and
/// demand each reassembled chunked waveform and its .measure values be
/// bitwise-equal to the direct library calls, and netlist::run's as well.
/// Shared by the thread-mode and process-isolation cases: the
/// client-visible numbers must not depend on where the handler ran.
/// `reordered`: whether the deck is big enough for the AMD ordering.
void check_netlist_bitwise(ss::ServerConfig config, const std::string& deck,
                           bool reordered = false) {
  config.chunk_rows = 7;  // force multi-chunk reassembly
  const auto owned = std::make_unique<ss::Server>(config);
  ss::Server& server = *owned;

  // The direct library call under the rule netlist::run documents:
  // default SimOptions plus dtmax = 10 * tstep.
  auto net = softfet::netlist::compile_netlist(deck);
  softfet::sim::SimOptions options;
  options.dtmax = net.tran->tstep * 10.0;
  const auto tran =
      softfet::sim::run_transient(*net.circuit, net.tran->tstop, options);
  const auto measures =
      softfet::netlist::evaluate_measures(net.measures, tran);
  EXPECT_EQ(tran.diagnostics.reordered, reordered);

  // netlist::run, the path both entry points take, gives the same doubles.
  auto fresh = softfet::netlist::compile_netlist(deck);
  std::size_t tables = 0;
  softfet::netlist::run(
      fresh, {}, [&](const softfet::netlist::AnalysisTable& t) {
        ++tables;
        ASSERT_EQ(t.kind, softfet::netlist::Analysis::kTran);
        EXPECT_EQ(t.tran->diagnostics.reordered, reordered);
        EXPECT_EQ(t.axis, tran.time);
        ASSERT_EQ(t.table.names(), tran.table.names());
        for (std::size_t c = 0; c < t.table.columns(); ++c) {
          EXPECT_EQ(t.table.column(c), tran.table.column(c))
              << t.table.names()[c];
        }
        ASSERT_EQ(t.measures.size(), measures.size());
        for (std::size_t m = 0; m < measures.size(); ++m) {
          EXPECT_EQ(t.measures[m].value, measures[m].value)
              << measures[m].name;
        }
      });
  EXPECT_EQ(tables, 1u);

  for (const std::string id : {"deck", "again"}) {
    SCOPED_TRACE(id);
    ss::JsonValue request = ss::JsonValue::object();
    request.set("id", ss::JsonValue::string(id));
    request.set("type", ss::JsonValue::string("netlist"));
    request.set("netlist", ss::JsonValue::string(deck));
    Transcript out;
    server.handle_line(request.dump(), out.sink());
    server.wait_idle();

    const auto events = out.events(id);
    ASSERT_FALSE(events.empty());
    ASSERT_EQ(events.back().string_or("event", ""), "result");

    // Reassemble the streamed chunks into columns.
    std::vector<std::string> columns;
    std::vector<std::vector<double>> data;
    std::size_t rows_seen = 0;
    for (const auto& ev : events) {
      if (ev.string_or("event", "") != "chunk") continue;
      ASSERT_EQ(ev.string_or("kind", ""), "tran");
      if (columns.empty()) {
        for (const auto& name : ev.get("columns")->items()) {
          columns.push_back(name.as_string());
          data.emplace_back();
        }
      }
      EXPECT_EQ(ev.number_or("row_offset", -1),
                static_cast<double>(rows_seen));  // monotone chunk order
      for (const auto& row : ev.get("rows")->items()) {
        ASSERT_EQ(row.items().size(), columns.size());
        for (std::size_t c = 0; c < columns.size(); ++c) {
          data[c].push_back(row.items()[c].as_number());
        }
        ++rows_seen;
      }
    }
    ASSERT_GT(rows_seen, 0u);
    ASSERT_FALSE(columns.empty());
    EXPECT_EQ(columns.front(), "time");

    // The served chunks and .measure values against the direct call.
    ASSERT_EQ(rows_seen, tran.time.size());
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const std::vector<double>& direct =
          c == 0 ? tran.time : tran.table.signal(columns[c]);
      for (std::size_t row = 0; row < rows_seen; ++row) {
        // Bitwise: %.17g JSON numbers round-trip doubles exactly.
        EXPECT_EQ(data[c][row], direct[row])
            << columns[c] << " row " << row << " differs from the direct call";
      }
    }
    const ss::JsonValue* summary = events.back().get("tran");
    ASSERT_NE(summary, nullptr);
    EXPECT_EQ(summary->number_or("accepted_steps", -1),
              static_cast<double>(tran.accepted_steps));
    const ss::JsonValue* served = events.back().get("measures");
    ASSERT_EQ(served != nullptr, !measures.empty());
    for (const auto& m : measures) {
      EXPECT_EQ(served->number_or(m.name, -1), m.value) << m.name;
    }
  }
  // Thread mode parses in this process, so its cache shows the hit (a
  // process-mode worker keeps its own cache).
  if (config.isolation == ss::IsolationMode::kThread) {
    EXPECT_EQ(server.stats().cache.hits, 1u);
  }
}

/// Kill-and-restart Monte-Carlo resume under `config` (state_dir is filled
/// in here, keyed by `tag` so concurrent cases never share a directory).
/// The resumed result must be bitwise-identical to the uninterrupted
/// direct library call, whichever isolation mode ran the attempts.
void check_mc_resume(ss::ServerConfig config, const std::string& tag) {
  const std::string state_dir =
      (fs::path(::testing::TempDir()) / ("softfet-soak-" + tag)).string();
  fs::remove_all(state_dir);

  const char* kJob =
      R"({"id":"mc1","type":"monte_carlo","samples":12,"seed":9,"lanes":1,)"
      R"("checkpoint_every":1,"timeout_seconds":240})";

  config.workers = 1;
  config.state_dir = state_dir;
  config.max_timeout_seconds = 300.0;

  // Phase 1: admit the job, let it make progress, then kill the daemon the
  // cooperative way a SIGTERM would (cancel in-flight, flush checkpoints,
  // keep journals).
  Transcript first;
  {
    const auto owned = std::make_unique<ss::Server>(config);
  ss::Server& server = *owned;
    server.handle_line(kJob, first.sink());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (first.count("mc1", "progress") == 0 &&
           first.count("mc1", "result") == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    server.shutdown(/*cancel_inflight=*/true);
  }
  ASSERT_EQ(first.count("mc1", "result"), 0u)
      << "job finished before the kill; nothing left to resume";
  ASSERT_EQ(first.count("mc1", "cancelled"), 1u);
  ASSERT_TRUE(fs::exists(state_dir));

  // Phase 2: a fresh daemon over the same state dir re-admits the journaled
  // job and finishes it from the checkpoint.
  Transcript second;
  ss::JsonValue result;
  {
    const auto owned = std::make_unique<ss::Server>(config);
  ss::Server& server = *owned;
    const std::size_t resumed = server.resume_journaled(second.sink());
    EXPECT_EQ(resumed, 1u);
    server.wait_idle();
    const auto events = second.events("mc1");
    ASSERT_FALSE(events.empty());
    result = events.back();
    EXPECT_EQ(server.stats().resumed, 1u);
    server.shutdown(/*cancel_inflight=*/false);
  }
  ASSERT_EQ(result.string_or("event", ""), "result");
  // Terminal success removed the job's journal and checkpoint.
  EXPECT_TRUE(fs::is_empty(state_dir));

  // The direct, uninterrupted library call with the same study parameters.
  softfet::cells::InverterTestbenchSpec base;
  base.input_rising = false;
  base.dut.ptm = softfet::devices::PtmParams{};
  softfet::core::MonteCarloSpec mc;
  mc.samples = 12;
  mc.seed = 9;
  mc.lanes = 1;
  mc.threads = 1;
  const auto direct = softfet::core::ptm_monte_carlo(base, mc, {});

  EXPECT_EQ(result.number_or("samples", -1),
            static_cast<double>(direct.samples));
  EXPECT_EQ(result.number_or("failed_samples", -1),
            static_cast<double>(direct.failed_samples));
  // Bitwise equality of every statistic: the resumed run must reproduce the
  // uninterrupted study exactly (%.17g survives the JSON round trip).
  EXPECT_EQ(result.number_or("imax_mean", -1), direct.imax_mean);
  EXPECT_EQ(result.number_or("imax_std", -1), direct.imax_std);
  EXPECT_EQ(result.number_or("imax_worst", -1), direct.imax_worst);
  EXPECT_EQ(result.number_or("delay_mean", -1), direct.delay_mean);
  EXPECT_EQ(result.number_or("delay_std", -1), direct.delay_std);
  EXPECT_EQ(result.number_or("delay_worst", -1), direct.delay_worst);
  EXPECT_EQ(result.number_or("fraction_below_baseline", -1),
            direct.fraction_below_baseline);

  fs::remove_all(state_dir);
}

/// A job that never converges reruns exactly once, at once: one `retrying`
/// (attempt 2, the first failure's message, no backoff field), then the
/// rerun's `error`.
void check_single_rerun(const ss::ServerConfig& config) {
  const auto owned = std::make_unique<ss::Server>(config);
  ss::Server& server = *owned;
  register_fault_handlers(server);

  Transcript out;
  server.handle_line(R"({"id":"f1","type":"fatal"})", out.sink());
  server.wait_idle();

  const auto events = out.events("f1");
  ASSERT_EQ(check_lifecycle("f1", events), "error");
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[1].string_or("event", ""), "started");
  const ss::JsonValue& retrying = events[2];
  EXPECT_EQ(retrying.string_or("event", ""), "retrying");
  EXPECT_EQ(retrying.number_or("attempt", -1), 2.0);
  EXPECT_EQ(retrying.string_or("message", ""),
            "injected permanent divergence");
  EXPECT_EQ(retrying.get("backoff_ms"), nullptr);
  EXPECT_EQ(events[3].string_or("code", ""), ss::kErrorConvergence);

  const ss::ServerStats stats = server.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.failed, 1u);
}

}  // namespace

TEST(ServiceSoak, ConvergenceFailureRerunsOnceAtOnce) {
  ss::ServerConfig config;
  config.workers = 1;
  check_single_rerun(config);
}

TEST(ServiceSoak, NetlistResultsAreBitwiseEqualToDirectCalls) {
  ss::ServerConfig config;
  config.workers = 1;
  check_netlist_bitwise(config, rc_netlist_text(0));
}

// ROADMAP item 6's differential check on the paper's Fig. 4 deck: the
// service streams exactly the doubles and .measure values of a direct run.
TEST(ServiceSoak, InverterDeckMatchesTheDirectRunBitwise) {
  ss::ServerConfig config;
  config.workers = 1;
  check_netlist_bitwise(config, example_netlist("softfet_inverter.sp"));
}

// The sparse LU reorders from 128 unknowns on: a 130-section ladder (132
// unknowns) pins that path from request to chunk.
TEST(ServiceSoak, AmdLadderMatchesTheDirectRunBitwise) {
  ss::ServerConfig config;
  config.workers = 1;
  check_netlist_bitwise(config, rc_ladder_text(130), /*reordered=*/true);
}

TEST(ServiceSoak, KilledDaemonResumesMonteCarloBitwise) {
  ss::ServerConfig config;
  check_mc_resume(config, "thread");
}

// ---------------------------------------------------------------------------
// Hard-fault containment (process isolation). These cases fork sandboxed
// workers and then kill, crash, starve, and freeze them; they carry the
// service-soak label and the ServiceHardFault prefix so sanitizer CI can
// exclude them (fork + instrumentation interact badly) while the Release
// job runs them as a dedicated smoke step.
// ---------------------------------------------------------------------------

TEST(ServiceHardFault, MixedHardFaultWorkloadIsContained) {
  ss::ServerConfig config = process_config(3);
  config.queue_capacity = 256;
  config.worker_memory_bytes = worker_memory_cap();
  const auto owned = std::make_unique<ss::Server>(config);
  ss::Server& server = *owned;
  register_fault_handlers(server);
  register_hard_fault_handlers(server);

  Transcript out;
  const ss::Sink sink = out.sink();

  // 120 jobs: 10 aborts, 10 null derefs, 5 infinite loops, 5 allocation
  // bombs, 10 netlist sims, 10 flaky, 10 fatal, 70 healthy — every worker
  // slot dies several times with healthy traffic interleaved throughout.
  constexpr int kJobs = 120;
  std::vector<std::string> job_ids;
  std::map<std::string, std::string> kind_of;
  for (int i = 0; i < kJobs; ++i) {
    const std::string id = std::string("h").append(std::to_string(i));
    const std::string idq = "\"id\":\"" + id + "\"";
    std::string kind;
    switch (i % 12) {
      case 0:
        kind = "abort";
        server.handle_line(
            "{" + idq + ",\"type\":\"hard_fault\",\"mode\":\"abort\"}", sink);
        break;
      case 1:
        kind = "segv";
        server.handle_line(
            "{" + idq + ",\"type\":\"hard_fault\",\"mode\":\"segv\"}", sink);
        break;
      case 2:
        if (i % 24 == 2) {
          // The spin never heartbeat-starves (the worker's reader thread
          // keeps beating) — only the job deadline reclaims the slot, so
          // give it a small timeout.
          kind = "spin";
          server.handle_line("{" + idq +
                                 ",\"type\":\"hard_fault\",\"mode\":\"spin\","
                                 "\"timeout_seconds\":0.3}",
                             sink);
        } else {
          kind = "bomb";
          server.handle_line(
              "{" + idq + ",\"type\":\"hard_fault\",\"mode\":\"alloc_bomb\"}",
              sink);
        }
        break;
      case 3:
        kind = "netlist";
        server.handle_line("{" + idq + ",\"type\":\"netlist\",\"netlist\":\"" +
                               rc_netlist(i % 3) + "\"}",
                           sink);
        break;
      case 4:
        kind = "flaky";
        server.handle_line("{" + idq + ",\"type\":\"flaky\"}", sink);
        break;
      case 5:
        kind = "fatal";
        server.handle_line("{" + idq + ",\"type\":\"fatal\"}", sink);
        break;
      default:
        kind = "ok";
        server.handle_line(
            "{" + idq + ",\"type\":\"ok\",\"n\":" + std::to_string(i) + "}",
            sink);
        break;
    }
    job_ids.push_back(id);
    kind_of[id] = kind;
  }
  server.wait_idle();

  // Every job — including the ones whose worker died mid-attempt — keeps
  // the lifecycle contract: exactly one terminal, contiguous seq.
  const auto transcript = out.by_id();
  for (const auto& id : job_ids) {
    const auto it = transcript.find(id);
    ASSERT_NE(it, transcript.end()) << id << " left no transcript";
    const std::string last = check_lifecycle(id, it->second);
    const std::string& kind = kind_of[id];
    const ss::JsonValue& fin = it->second.back();
    if (kind == "abort" || kind == "segv") {
      // Crash forensics: the faulting signal and stage come from the
      // worker's own last-gasp record, not just the wait status.
      if (last != "error") {
        for (const auto& ev : it->second) {
          ADD_FAILURE() << id << " transcript: " << ev.dump();
        }
      }
      ASSERT_EQ(last, "error") << id;
      EXPECT_EQ(fin.string_or("code", ""), "worker_crashed") << id;
      const ss::JsonValue* crash = fin.get("crash");
      ASSERT_NE(crash, nullptr) << id;
      EXPECT_EQ(crash->string_or("reason", ""), "signal") << id;
      const int expected = kind == "abort" ? SIGABRT : SIGSEGV;
      EXPECT_EQ(crash->number_or("signal", -1),
                static_cast<double>(expected))
          << id;
      EXPECT_EQ(crash->string_or("signal_name", ""),
                kind == "abort" ? "SIGABRT" : "SIGSEGV")
          << id;
      EXPECT_EQ(crash->string_or("stage", ""), "handler:hard_fault") << id;
      EXPECT_EQ(crash->string_or("job", ""), id) << id;
    } else if (kind == "spin") {
      ASSERT_EQ(last, "error") << id;
      EXPECT_EQ(fin.string_or("code", ""), "worker_crashed") << id;
      const ss::JsonValue* crash = fin.get("crash");
      ASSERT_NE(crash, nullptr) << id;
      EXPECT_EQ(crash->string_or("reason", ""), "deadline_timeout") << id;
    } else if (kind == "bomb") {
      // Contained by RLIMIT_AS: the bomb degrades to std::bad_alloc inside
      // the worker and surfaces as an ordinary handler error — the worker
      // process survives to serve the next job.
      ASSERT_EQ(last, "error") << id;
    } else if (kind == "fatal") {
      ASSERT_EQ(last, "error") << id;
      EXPECT_NE(fin.string_or("code", ""), "worker_crashed") << id;
    } else if (kind == "ok") {
      // Bitwise identity for survivors: the echoed value is exactly the
      // submitted integer.
      ASSERT_EQ(last, "result") << id;
      EXPECT_EQ(fin.number_or("value", -1),
                static_cast<double>(std::stoi(id.substr(1))))
          << id;
    } else {
      ASSERT_EQ(last, "result") << id << " (" << kind << ")";
    }
  }

  const ss::ServerStats stats = server.stats();
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.admitted, stats.completed + stats.failed + stats.cancelled);
  EXPECT_GE(stats.worker_crashes, 25u);  // 10 aborts + 10 segvs + 5 spins
  EXPECT_GE(stats.deadline_kills, 5u);
  EXPECT_GE(stats.workers_spawned, 3u);
  // Every crash but (at most) the final one per slot is followed by more
  // work, so nearly every death was also a respawn.
  EXPECT_GE(stats.workers_respawned, 22u);
  EXPECT_GT(stats.retries, 0u);  // flaky jobs retried across attempts

  // The daemon is still healthy after the storm.
  Transcript after;
  server.handle_line(R"({"id":"after","type":"ok","n":7})", after.sink());
  server.wait_idle();
  ASSERT_EQ(after.count("after", "result"), 1u);
}

TEST(ServiceHardFault, SigkilledWorkerLeavesOthersUntouchedAndRespawns) {
  ss::ServerConfig config = process_config(3);
  const auto owned = std::make_unique<ss::Server>(config);
  ss::Server& server = *owned;
  register_fault_handlers(server);
  register_hard_fault_handlers(server);

  // Occupy all three slots with long sleepers, then shoot slot 0's worker.
  Transcript out;
  const ss::Sink sink = out.sink();
  for (int i = 0; i < 3; ++i) {
    server.handle_line("{\"id\":\"s" + std::to_string(i) +
                           "\",\"type\":\"sleepy\",\"ms\":1500}",
                       sink);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (out.count("s0", "started") + out.count("s1", "started") +
                 out.count("s2", "started") <
             3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_NE(server.supervisor(), nullptr);
  const std::vector<pid_t> pids = server.supervisor()->worker_pids();
  ASSERT_EQ(pids.size(), 3u);
  for (const pid_t pid : pids) ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(pids[0], SIGKILL), 0);
  server.wait_idle();

  // Exactly the job on the murdered worker errors — with SIGKILL forensics
  // — and the two bystander jobs finish untouched.
  int crashed = 0;
  int finished = 0;
  for (int i = 0; i < 3; ++i) {
    const std::string id = "s" + std::to_string(i);
    const auto events = out.events(id);
    const std::string last = check_lifecycle(id, events);
    if (last == "error") {
      ++crashed;
      const ss::JsonValue& fin = events.back();
      EXPECT_EQ(fin.string_or("code", ""), "worker_crashed") << id;
      const ss::JsonValue* crash = fin.get("crash");
      ASSERT_NE(crash, nullptr) << id;
      EXPECT_EQ(crash->string_or("reason", ""), "signal") << id;
      EXPECT_EQ(crash->number_or("signal", -1),
                static_cast<double>(SIGKILL))
          << id;
      EXPECT_EQ(crash->string_or("signal_name", ""), "SIGKILL") << id;
    } else {
      EXPECT_EQ(last, "result") << id;
      ++finished;
    }
  }
  EXPECT_EQ(crashed, 1);
  EXPECT_EQ(finished, 2);
  EXPECT_EQ(server.stats().worker_crashes, 1u);

  // A second full round occupies every slot again: slot 0 respawns (after
  // its backoff) and the surviving workers are reused as-is.
  Transcript second;
  for (int i = 0; i < 3; ++i) {
    server.handle_line("{\"id\":\"t" + std::to_string(i) +
                           "\",\"type\":\"sleepy\",\"ms\":1500}",
                       second.sink());
  }
  server.wait_idle();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(second.count("t" + std::to_string(i), "result"), 1u);
  }
  const std::vector<pid_t> after = server.supervisor()->worker_pids();
  ASSERT_EQ(after.size(), 3u);
  EXPECT_NE(after[0], pids[0]);  // replaced
  EXPECT_EQ(after[1], pids[1]);  // untouched
  EXPECT_EQ(after[2], pids[2]);  // untouched
  EXPECT_GE(server.stats().workers_respawned, 1u);
}

TEST(ServiceHardFault, FrozenWorkerIsKilledForHeartbeatSilence) {
  ss::ServerConfig config = process_config(1);
  config.heartbeat_timeout_seconds = 0.5;
  const auto owned = std::make_unique<ss::Server>(config);
  ss::Server& server = *owned;
  register_fault_handlers(server);
  register_hard_fault_handlers(server);

  Transcript out;
  server.handle_line(R"({"id":"frozen","type":"freeze"})", out.sink());
  server.wait_idle();

  const auto events = out.events("frozen");
  ASSERT_EQ(check_lifecycle("frozen", events), "error");
  const ss::JsonValue& fin = events.back();
  EXPECT_EQ(fin.string_or("code", ""), "worker_crashed");
  const ss::JsonValue* crash = fin.get("crash");
  ASSERT_NE(crash, nullptr);
  EXPECT_EQ(crash->string_or("reason", ""), "heartbeat_timeout");
  EXPECT_EQ(crash->number_or("signal", -1), static_cast<double>(SIGKILL));
  EXPECT_GE(server.stats().heartbeat_kills, 1u);

  // The slot recovers: the next job forks a fresh worker and completes.
  Transcript after;
  server.handle_line(R"({"id":"thaw","type":"ok","n":1})", after.sink());
  server.wait_idle();
  EXPECT_EQ(after.count("thaw", "result"), 1u);
}

TEST(ServiceHardFault, NetlistResultsBitwiseUnderProcessIsolation) {
  check_netlist_bitwise(process_config(1), rc_netlist_text(0));
}

TEST(ServiceHardFault, InverterDeckMatchesTheDirectRunUnderProcessIsolation) {
  check_netlist_bitwise(process_config(1),
                        example_netlist("softfet_inverter.sp"));
}

TEST(ServiceHardFault, AmdLadderMatchesTheDirectRunUnderProcessIsolation) {
  check_netlist_bitwise(process_config(1), rc_ladder_text(130),
                        /*reordered=*/true);
}

TEST(ServiceHardFault, KilledDaemonResumesBitwiseUnderProcessIsolation) {
  check_mc_resume(process_config(1), "process");
}

TEST(ServiceHardFault, ConvergenceFailureRerunsOnceUnderProcessIsolation) {
  check_single_rerun(process_config(1));
}
