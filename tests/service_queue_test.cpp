// Admission queue, compiled-netlist cache, and Server lifecycle unit
// tests: bounded non-blocking admission with load shedding, close/drain
// semantics, content-addressed cache hits/invalidation/LRU, and the
// request -> accepted/started/.../terminal event contract including retry,
// cancel, duplicate-id and oversized-netlist handling.
#include "service/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/cache.hpp"
#include "service/job_queue.hpp"
#include "util/error.hpp"

namespace ss = softfet::service;
using softfet::ConvergenceError;
using softfet::Error;

namespace {

/// Thread-safe response collector: every line, in arrival order, plus a
/// parsed view for assertions.
class Collector {
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
  /// Events for one job id, in arrival order, as parsed JSON.
  [[nodiscard]] std::vector<ss::JsonValue> events(const std::string& id) const {
    std::vector<ss::JsonValue> out;
    for (const auto& line : lines()) {
      ss::JsonValue v = ss::json_parse(line);
      if (v.string_or("id", "") == id) out.push_back(std::move(v));
    }
    return out;
  }
  [[nodiscard]] std::string event_chain(const std::string& id) const {
    std::string chain;
    for (const auto& ev : events(id)) {
      if (!chain.empty()) chain += ' ';
      chain += ev.string_or("event", "?");
    }
    return chain;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> lines_;
};

[[nodiscard]] ss::ServerConfig test_config() {
  ss::ServerConfig config;
  config.workers = 2;
  config.queue_capacity = 8;
  return config;
}

}  // namespace

TEST(JobQueue, BoundedNonBlockingAdmission) {
  ss::JobQueue<int> queue(2);
  EXPECT_EQ(queue.try_push(1), ss::PushResult::kAdmitted);
  EXPECT_EQ(queue.try_push(2), ss::PushResult::kAdmitted);
  EXPECT_EQ(queue.try_push(3), ss::PushResult::kOverloaded);  // shed, no block
  EXPECT_EQ(queue.depth(), 2u);

  EXPECT_EQ(queue.pop().value(), 1);  // FIFO
  EXPECT_EQ(queue.try_push(4), ss::PushResult::kAdmitted);

  queue.close();
  EXPECT_EQ(queue.try_push(5), ss::PushResult::kClosed);
  // Queued items still drain after close; then pop signals exit.
  EXPECT_EQ(queue.pop().value(), 2);
  EXPECT_EQ(queue.pop().value(), 4);
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(JobQueue, PopBlocksUntilPushOrClose) {
  ss::JobQueue<int> queue(4);
  std::atomic<int> got{-1};
  std::thread consumer([&] {
    const auto item = queue.pop();
    got.store(item.value_or(-2));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(got.load(), -1);  // still blocked
  EXPECT_EQ(queue.try_push(7), ss::PushResult::kAdmitted);
  consumer.join();
  EXPECT_EQ(got.load(), 7);

  std::thread waiter([&] { got.store(queue.pop().value_or(-2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.close();
  waiter.join();
  EXPECT_EQ(got.load(), -2);  // closed + drained -> nullopt
}

TEST(NetlistCache, ContentAddressedHitsAndInvalidation) {
  ss::NetlistCache cache(4, 1u << 20);
  const std::string rc = "rc title\nV1 in 0 1\nR1 in out 1k\nC1 out 0 1n\n.end";

  const ss::CompiledNetlist first = cache.lookup(rc);
  const ss::CompiledNetlist again = cache.lookup(rc);
  EXPECT_EQ(first.get(), again.get());  // shared, parsed once
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // A single changed character is a different netlist (content addressing,
  // not path/mtime): the stale AST must not be served.
  std::string edited = rc;
  edited.replace(edited.find("1k"), 2, "2k");
  const ss::CompiledNetlist changed = cache.lookup(edited);
  EXPECT_NE(changed.get(), first.get());
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(NetlistCache, LruEvictionKeepsBounds) {
  ss::NetlistCache cache(2, 1u << 20);
  const std::string a = "a\nV1 x 0 1\n.end";
  const std::string b = "b\nV1 x 0 2\n.end";
  const std::string c = "c\nV1 x 0 3\n.end";
  (void)cache.lookup(a);
  (void)cache.lookup(b);
  (void)cache.lookup(a);  // a is now MRU
  (void)cache.lookup(c);  // evicts b (LRU)
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  (void)cache.lookup(a);  // still cached
  EXPECT_EQ(cache.stats().hits, 2u);
  (void)cache.lookup(b);  // misses: b was evicted
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(NetlistCache, ParseFailuresAreNotCached) {
  ss::NetlistCache cache(4, 1u << 20);
  const std::string bad = "title\n.tran\n.end";  // .tran needs arguments
  EXPECT_THROW((void)cache.lookup(bad), softfet::Error);
  EXPECT_THROW((void)cache.lookup(bad), softfet::Error);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(NetlistCache, Fnv1a64MatchesReference) {
  EXPECT_EQ(ss::fnv1a64(""), 0xCBF29CE484222325ull);
  EXPECT_EQ(ss::fnv1a64("a"), 0xAF63DC4C8601EC8Cull);
  EXPECT_NE(ss::fnv1a64("netlist-a"), ss::fnv1a64("netlist-b"));
}

TEST(Server, JobLifecycleAndControlRequests) {
  Collector out;
  const auto owned = std::make_unique<ss::Server>(test_config());
  ss::Server& server = *owned;
  server.register_handler("echo", [](const ss::Request& req, ss::JobContext& ctx) {
    ss::JsonValue result = ss::JsonValue::object();
    result.set("echo", ss::JsonValue::string(req.payload.string_or("text", "")));
    ctx.finish(std::move(result));
  });

  server.handle_line(R"({"id":"c0","type":"ping"})", out.sink());
  server.handle_line(R"({"id":"e1","type":"echo","text":"hi"})", out.sink());
  server.wait_idle();

  EXPECT_EQ(out.event_chain("c0"), "result");
  EXPECT_EQ(out.event_chain("e1"), "accepted started result");
  const auto events = out.events("e1");
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].number_or("seq", -1), static_cast<double>(i));
  }
  EXPECT_EQ(events.back().string_or("echo", ""), "hi");

  server.handle_line(R"({"id":"s0","type":"stats"})", out.sink());
  const auto stats = out.events("s0");
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].get("stats")->number_or("admitted", -1), 1.0);
  EXPECT_EQ(stats[0].get("stats")->number_or("completed", -1), 1.0);
}

TEST(Server, MalformedAndInvalidRequestsAreRejectedStructurally) {
  Collector out;
  const auto owned = std::make_unique<ss::Server>(test_config());
  ss::Server& server = *owned;

  server.handle_line("this is not json", out.sink());
  server.handle_line(R"({"id":"x","type":"no_such_type"})", out.sink());
  server.handle_line(R"({"type":"netlist","netlist":"t"})", out.sink());
  std::string oversized = R"({"id":"big","type":"netlist","netlist":")";
  oversized += std::string(ss::ServerConfig{}.max_netlist_bytes + 1, 'x');
  oversized += R"("})";
  server.handle_line(oversized, out.sink());
  server.wait_idle();

  const auto lines = out.lines();
  ASSERT_EQ(lines.size(), 4u);
  for (const auto& line : lines) {
    const ss::JsonValue v = ss::json_parse(line);
    EXPECT_EQ(v.string_or("event", ""), "rejected") << line;
    EXPECT_EQ(v.string_or("code", ""), ss::kRejectInvalid) << line;
    EXPECT_FALSE(v.string_or("message", "").empty()) << line;
  }
  EXPECT_EQ(server.stats().rejected_invalid, 4u);
  EXPECT_EQ(server.stats().admitted, 0u);
}

TEST(Server, TransientFailuresRetryThenSucceed) {
  Collector out;
  const auto owned = std::make_unique<ss::Server>(test_config());
  ss::Server& server = *owned;
  std::atomic<int> calls{0};
  server.register_handler("flaky", [&](const ss::Request&, ss::JobContext& ctx) {
    if (calls.fetch_add(1) == 0) {
      throw ConvergenceError("newton diverged (injected)");
    }
    EXPECT_EQ(ctx.attempt, 2);
    ctx.finish(ss::JsonValue::object());
  });

  server.handle_line(R"({"id":"f1","type":"flaky"})", out.sink());
  server.wait_idle();

  EXPECT_EQ(out.event_chain("f1"), "accepted started retrying result");
  EXPECT_EQ(calls.load(), 2);
  const auto events = out.events("f1");
  EXPECT_NE(events[2].string_or("message", "").find("injected"),
            std::string::npos);
  EXPECT_EQ(server.stats().retries, 1u);
  EXPECT_EQ(server.stats().completed, 1u);
}

TEST(Server, ExhaustedRetriesBecomeStructuredErrors) {
  Collector out;
  const auto owned = std::make_unique<ss::Server>(test_config());
  ss::Server& server = *owned;
  server.register_handler("doomed", [](const ss::Request&, ss::JobContext&) {
    softfet::SolverDiagnostics d;
    d.analysis = "transient";
    d.failure = "newton max iterations";
    d.worst_node = "v(out)";
    throw ConvergenceError("always diverges", std::move(d));
  });

  server.handle_line(R"({"id":"d1","type":"doomed"})", out.sink());
  server.wait_idle();

  EXPECT_EQ(out.event_chain("d1"), "accepted started retrying error");
  const auto events = out.events("d1");
  const ss::JsonValue& error = events.back();
  EXPECT_EQ(error.string_or("code", ""), ss::kErrorConvergence);
  ASSERT_NE(error.get("diagnostics"), nullptr);
  EXPECT_EQ(error.get("diagnostics")->string_or("worst_node", ""), "v(out)");
  EXPECT_EQ(server.stats().failed, 1u);
}

TEST(Server, PoisonedHandlersNeverKillTheProcess) {
  Collector out;
  const auto owned = std::make_unique<ss::Server>(test_config());
  ss::Server& server = *owned;
  server.register_handler("bug", [](const ss::Request&, ss::JobContext&) {
    throw std::runtime_error("segfault-adjacent logic bug");
  });
  server.register_handler("weird", [](const ss::Request&, ss::JobContext&) {
    throw 42;  // not even a std::exception
  });
  server.register_handler("silent", [](const ss::Request&, ss::JobContext&) {
    // Returns without finish(): must surface as an internal error, not hang.
  });

  server.handle_line(R"({"id":"b1","type":"bug"})", out.sink());
  server.handle_line(R"({"id":"w1","type":"weird"})", out.sink());
  server.handle_line(R"({"id":"s1","type":"silent"})", out.sink());
  server.wait_idle();

  for (const char* id : {"b1", "w1", "s1"}) {
    const auto events = out.events(id);
    ASSERT_FALSE(events.empty()) << id;
    EXPECT_EQ(events.back().string_or("event", ""), "error") << id;
    EXPECT_EQ(events.back().string_or("code", ""), ss::kErrorInternal) << id;
  }
  EXPECT_EQ(server.stats().failed, 3u);

  // The server still serves healthy jobs afterwards.
  server.register_handler("ok", [](const ss::Request&, ss::JobContext& ctx) {
    ctx.finish(ss::JsonValue::object());
  });
  server.handle_line(R"({"id":"ok1","type":"ok"})", out.sink());
  server.wait_idle();
  EXPECT_EQ(out.event_chain("ok1"), "accepted started result");
}

TEST(Server, OverloadShedsWithRetryAfter) {
  Collector out;
  ss::ServerConfig config = test_config();
  config.workers = 1;
  config.queue_capacity = 2;
  const auto owned = std::make_unique<ss::Server>(config);
  ss::Server& server = *owned;

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool open = false;
  server.register_handler("block", [&](const ss::Request&, ss::JobContext& ctx) {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return open; });
    ctx.finish(ss::JsonValue::object());
  });

  // One running + two queued fills the system; the rest must shed.
  for (int i = 0; i < 6; ++i) {
    server.handle_line(
        R"({"id":"q)" + std::to_string(i) + R"(","type":"block"})",
        out.sink());
  }
  // Give the worker a moment to pop the first job so counts are stable.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::size_t overloaded = 0;
  for (const auto& line : out.lines()) {
    const ss::JsonValue v = ss::json_parse(line);
    if (v.string_or("event", "") == "rejected") {
      EXPECT_EQ(v.string_or("code", ""), ss::kRejectOverloaded);
      EXPECT_GT(v.number_or("retry_after_ms", 0), 0.0);
      EXPECT_EQ(v.number_or("queue_capacity", 0), 2.0);
      ++overloaded;
    }
  }
  EXPECT_GE(overloaded, 3u);  // at least 6 - (1 running + 2 queued)
  EXPECT_EQ(server.stats().rejected_overloaded, overloaded);

  {
    const std::lock_guard<std::mutex> lock(gate_mutex);
    open = true;
  }
  gate_cv.notify_all();
  server.wait_idle();

  // No leaked queue slots: every admitted job reached a terminal event and
  // the queue is reusable at full capacity.
  const ss::ServerStats stats = server.stats();
  EXPECT_EQ(stats.admitted, stats.completed);
  EXPECT_EQ(stats.queue_depth, 0u);
  server.handle_line(R"({"id":"after","type":"block"})", out.sink());
  server.wait_idle();
  EXPECT_EQ(out.event_chain("after"), "accepted started result");
}

TEST(Server, CancelAndDuplicateIds) {
  Collector out;
  ss::ServerConfig config = test_config();
  config.workers = 1;
  const auto owned = std::make_unique<ss::Server>(config);
  ss::Server& server = *owned;

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool open = false;
  server.register_handler("wait", [&](const ss::Request&, ss::JobContext& ctx) {
    {
      std::unique_lock<std::mutex> lock(gate_mutex);
      gate_cv.wait(lock, [&] { return open; });
    }
    if (ctx.cancel->requested()) {
      throw softfet::BudgetExceededError("cancelled mid-flight",
                                         softfet::util::BudgetStop::kCancel);
    }
    ctx.finish(ss::JsonValue::object());
  });

  server.handle_line(R"({"id":"w1","type":"wait"})", out.sink());
  // Wait until the worker has popped w1 (emitted `started`) so the event
  // order below is deterministic.
  while (out.event_chain("w1") != "accepted started") {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Duplicate id while w1 is active -> rejected invalid.
  server.handle_line(R"({"id":"w1","type":"wait"})", out.sink());
  // Queued-behind job cancelled before it starts.
  server.handle_line(R"({"id":"w2","type":"wait"})", out.sink());
  server.handle_line(R"({"id":"c1","type":"cancel","job":"w1"})", out.sink());
  server.handle_line(R"({"id":"c2","type":"cancel","job":"w2"})", out.sink());
  server.handle_line(R"({"id":"c3","type":"cancel","job":"nope"})", out.sink());
  {
    const std::lock_guard<std::mutex> lock(gate_mutex);
    open = true;
  }
  gate_cv.notify_all();
  server.wait_idle();

  EXPECT_EQ(out.event_chain("w1"), "accepted started rejected cancelled");
  EXPECT_EQ(out.event_chain("w2"), "accepted cancelled");
  const auto c3 = out.events("c3");
  EXPECT_EQ(c3.at(0).string_or("state", ""), "unknown");
  EXPECT_EQ(server.stats().cancelled, 2u);

  // After its terminal event the id is reusable.
  server.handle_line(R"({"id":"w1","type":"wait"})", out.sink());
  server.wait_idle();
}

TEST(Server, ShutdownRejectsNewWorkAndDrains) {
  Collector out;
  const auto owned = std::make_unique<ss::Server>(test_config());
  ss::Server& server = *owned;
  server.register_handler("ok", [](const ss::Request&, ss::JobContext& ctx) {
    ctx.finish(ss::JsonValue::object());
  });
  server.handle_line(R"({"id":"j1","type":"ok"})", out.sink());
  server.handle_line(R"({"id":"sd","type":"shutdown"})", out.sink());
  EXPECT_TRUE(server.stop_requested());
  EXPECT_FALSE(server.stop_cancels_inflight());
  server.shutdown(server.stop_cancels_inflight());

  server.handle_line(R"({"id":"late","type":"ok"})", out.sink());
  const auto late = out.events("late");
  ASSERT_EQ(late.size(), 1u);
  EXPECT_EQ(late[0].string_or("event", ""), "rejected");
  EXPECT_EQ(late[0].string_or("code", ""), ss::kRejectShuttingDown);
  EXPECT_EQ(out.event_chain("j1"), "accepted started result");
}

TEST(Server, MonteCarloDeterminismFieldSelectsModeAndRejectsUnknown) {
  Collector out;
  const auto owned = std::make_unique<ss::Server>(test_config());
  ss::Server& server = *owned;

  server.handle_line(
      R"({"id":"mb","type":"monte_carlo","samples":4,"lanes":1})", out.sink());
  server.handle_line(
      R"({"id":"mr","type":"monte_carlo","samples":4,"lanes":1,)"
      R"("determinism":"relaxed"})",
      out.sink());
  server.handle_line(
      R"({"id":"mx","type":"monte_carlo","samples":4,)"
      R"("determinism":"fast-and-loose"})",
      out.sink());
  server.wait_idle();

  // Default and explicit modes are echoed in the result payload.
  const auto bitwise = out.events("mb");
  ASSERT_FALSE(bitwise.empty());
  EXPECT_EQ(bitwise.back().string_or("event", ""), "result");
  EXPECT_EQ(bitwise.back().string_or("determinism", ""), "bitwise");
  const auto relaxed = out.events("mr");
  ASSERT_FALSE(relaxed.empty());
  EXPECT_EQ(relaxed.back().string_or("event", ""), "result");
  EXPECT_EQ(relaxed.back().string_or("determinism", ""), "relaxed");

  // An unknown mode is a structured error naming the field, not a crash.
  const auto bad = out.events("mx");
  ASSERT_FALSE(bad.empty());
  EXPECT_EQ(bad.back().string_or("event", ""), "error");
  EXPECT_EQ(bad.back().string_or("code", ""), ss::kErrorInvalidRequest);
  EXPECT_NE(bad.back().string_or("message", "").find("determinism"),
            std::string::npos);

  // So is an integer field that is not finite or out of range (1e400
  // parses to inf): rejected before it is cast, and a lane block wider
  // than the cap never starts.
  const struct {
    const char* id;
    const char* fields;
    const char* field;
  } out_of_range[] = {
      {"s_inf", R"("samples":1e400)", "samples"},
      {"s_ninf", R"("samples":-1e400)", "samples"},
      {"s_big", R"("samples":1e12)", "samples"},
      {"seed_neg", R"("samples":4,"seed":-1)", "seed"},
      {"seed_inf", R"("samples":4,"seed":1e400)", "seed"},
      {"seed_big", R"("samples":4,"seed":4294967296)", "seed"},
      {"lanes_inf", R"("samples":4,"lanes":1e400)", "lanes"},
      {"lanes_neg", R"("samples":4,"lanes":-1)", "lanes"},
      {"lanes_wide", R"("samples":4,"lanes":100000)", "lanes"},
      {"ck_inf", R"("samples":4,"checkpoint_every":1e400)", "checkpoint_every"},
      {"ck_zero", R"("samples":4,"checkpoint_every":0)", "checkpoint_every"},
  };
  for (const auto& row : out_of_range) {
    SCOPED_TRACE(row.id);
    server.handle_line(std::string(R"({"id":")") + row.id +
                           R"(","type":"monte_carlo",)" + row.fields + "}",
                       out.sink());
    server.wait_idle();  // one at a time: the test queue holds 8
    const auto events = out.events(row.id);
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.back().string_or("event", ""), "error");
    EXPECT_EQ(events.back().string_or("code", ""), ss::kErrorInvalidRequest);
    EXPECT_NE(events.back().string_or("message", "").find(
                  std::string("\"") + row.field + "\" must be in"),
              std::string::npos)
        << events.back().string_or("message", "");
  }
}

TEST(Server, TornJournalTailsAreDroppedSilentlyAtEveryOffset) {
  // A daemon killed mid-journal-write can leave a *prefix* of the request
  // line on disk (no rename barrier survives every filesystem). Recovery
  // must drop such a journal silently — no spurious anonymous `rejected`
  // for a job no client is waiting on — and still resume every intact
  // neighbor. Truncating at every byte offset proves no prefix length is
  // special-cased.
  namespace fs = std::filesystem;
  const fs::path state_dir =
      fs::path(::testing::TempDir()) / "softfet-torn-journal";
  const std::string keep_a = R"({"id":"keep-a","type":"echo","n":1})";
  const std::string keep_b = R"({"id":"keep-b","type":"echo","n":2})";
  const std::string torn = R"({"id":"torn","type":"echo","n":3})";

  for (std::size_t cut = 0; cut < torn.size(); ++cut) {
    fs::remove_all(state_dir);
    fs::create_directories(state_dir);
    const auto plant = [&](const char* name, const std::string& content,
                           bool newline) {
      std::ofstream file(state_dir / name, std::ios::binary);
      file << content;
      if (newline) file << '\n';
    };
    plant("job-keep-a.req", keep_a, true);
    plant("job-keep-b.req", keep_b, true);
    plant("job-torn.req", torn.substr(0, cut), false);  // torn tail

    ss::ServerConfig config = test_config();
    config.state_dir = state_dir.string();
    const auto owned = std::make_unique<ss::Server>(config);
    ss::Server& server = *owned;
    server.register_handler("echo", [](const ss::Request& req,
                                       ss::JobContext& ctx) {
      ss::JsonValue result = ss::JsonValue::object();
      result.set("n", ss::JsonValue::number(req.payload.number_or("n", -1)));
      ctx.finish(std::move(result));
    });

    Collector out;
    const std::size_t resumed = server.resume_journaled(out.sink());
    EXPECT_EQ(resumed, 2u) << "cut=" << cut;
    server.wait_idle();

    EXPECT_EQ(out.event_chain("keep-a"), "accepted started result")
        << "cut=" << cut;
    EXPECT_EQ(out.event_chain("keep-b"), "accepted started result")
        << "cut=" << cut;
    // The torn journal vanished without a trace: no events under its id,
    // no anonymous rejection, and the file itself is gone so the next
    // restart does not trip over it either.
    EXPECT_TRUE(out.events("torn").empty()) << "cut=" << cut;
    EXPECT_TRUE(out.events("").empty()) << "cut=" << cut;
    EXPECT_FALSE(fs::exists(state_dir / "job-torn.req")) << "cut=" << cut;
  }
  fs::remove_all(state_dir);
}
