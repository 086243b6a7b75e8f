// NDJSON protocol unit tests: JSON parse/dump round trips, pinpointed
// parse errors (line/column), request validation, retry classification and
// backoff bounds, and the mapping of netlist-relative error positions back
// to columns of the original request line (walking the \n escapes).
#include "service/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "netlist/parser.hpp"
#include "service/json.hpp"
#include "service/retry.hpp"
#include "util/error.hpp"

namespace ss = softfet::service;
using softfet::BudgetExceededError;
using softfet::ConvergenceError;
using softfet::Error;
using softfet::ParseError;

TEST(Json, ParsesScalarsAndContainers) {
  const ss::JsonValue v = ss::json_parse(
      R"({"a": 1, "b": -2.5e3, "c": "x\ny", "d": [true, false, null], "e": {}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.number_or("a", 0), 1.0);
  EXPECT_EQ(v.number_or("b", 0), -2500.0);
  EXPECT_EQ(v.get("c")->as_string(), "x\ny");
  ASSERT_TRUE(v.get("d")->is_array());
  EXPECT_EQ(v.get("d")->items().size(), 3u);
  EXPECT_TRUE(v.get("d")->items()[0].as_bool());
  EXPECT_TRUE(v.get("d")->items()[2].is_null());
  EXPECT_TRUE(v.get("e")->is_object());
  EXPECT_EQ(v.get("missing"), nullptr);
}

TEST(Json, DumpIsDeterministicAndRoundTrips) {
  ss::JsonValue obj = ss::JsonValue::object();
  obj.set("z", ss::JsonValue::number(5));          // integral: no fraction
  obj.set("a", ss::JsonValue::number(0.1));        // %.17g round trip
  obj.set("s", ss::JsonValue::string("tab\there"));
  const std::string text = obj.dump();
  // Insertion order is preserved (z before a), making transcripts stable.
  EXPECT_LT(text.find("\"z\""), text.find("\"a\""));
  EXPECT_NE(text.find("\"z\":5,"), std::string::npos) << text;
  const ss::JsonValue back = ss::json_parse(text);
  EXPECT_EQ(back.number_or("z", 0), 5.0);
  EXPECT_EQ(back.number_or("a", 0), 0.1);  // bitwise via %.17g
  EXPECT_EQ(back.get("s")->as_string(), "tab\there");
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  const ss::JsonValue v = ss::json_parse(R"({"s": "µA → pk"})");
  EXPECT_EQ(v.get("s")->as_string(), "\xC2\xB5" "A \xE2\x86\x92 pk");
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  ss::JsonValue obj = ss::JsonValue::object();
  obj.set("inf", ss::JsonValue::number(INFINITY));
  obj.set("nan", ss::JsonValue::number(NAN));
  EXPECT_EQ(obj.dump(), R"({"inf":null,"nan":null})");
}

TEST(Json, ParseErrorsCarryLineAndColumn) {
  try {
    (void)ss::json_parse("{\n  \"a\": }");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_GT(e.column(), 0);
  }
  // Trailing garbage after a complete document is an error, not ignored.
  EXPECT_THROW((void)ss::json_parse("{} trailing"), ParseError);
  // Unterminated string.
  EXPECT_THROW((void)ss::json_parse(R"({"a": "oops})"), ParseError);
  // Depth bomb: 100 nested arrays exceed the parser's recursion bound.
  std::string bomb(100, '[');
  bomb += std::string(100, ']');
  EXPECT_THROW((void)ss::json_parse(bomb), ParseError);
}

TEST(Protocol, ParseRequestValidatesIdAndType) {
  const ss::Request req = ss::parse_request(
      R"({"id": "j1", "type": "netlist", "netlist": "x"})");
  EXPECT_EQ(req.id, "j1");
  EXPECT_EQ(req.type, "netlist");
  EXPECT_NE(req.payload.get("netlist"), nullptr);
  EXPECT_FALSE(req.raw_line.empty());

  EXPECT_THROW((void)ss::parse_request(R"({"type": "netlist"})"), Error);
  EXPECT_THROW((void)ss::parse_request(R"({"id": "x"})"), Error);
  EXPECT_THROW((void)ss::parse_request(R"({"id": 7, "type": "t"})"), Error);
  EXPECT_THROW((void)ss::parse_request(R"([1,2,3])"), Error);
  EXPECT_THROW((void)ss::parse_request("not json"), ParseError);
}

TEST(Protocol, MakeEventShape) {
  const ss::JsonValue ev = ss::make_event("job-9", 3, "started");
  EXPECT_EQ(ev.dump(), R"({"id":"job-9","seq":3,"event":"started"})");
}

TEST(Protocol, NetlistErrorMapsThroughEscapedNewlines) {
  // The embedded netlist has its "error" on netlist line 3; the error is
  // synthesized (rather than produced by the frontend) to pin the mapping
  // itself.
  const std::string raw =
      R"({"id":"j","type":"netlist","netlist":"title\nV1 a 0 1\nR1 a b oops\n.end"})";
  const ParseError error("element R1 needs a value", /*line=*/3);
  const ss::NetlistErrorPosition pos = ss::map_netlist_error(error, raw);
  EXPECT_EQ(pos.netlist_line, 3);
  EXPECT_EQ(pos.netlist_column, 0);  // the netlist tokenizer tracks lines only
  ASSERT_TRUE(pos.request_column.has_value());
  // The mapped 1-based column must point at the 'R' of "R1 a b oops"
  // inside the raw request line.
  EXPECT_EQ(raw[*pos.request_column - 1], 'R');
  EXPECT_EQ(raw.substr(*pos.request_column - 1, 4), "R1 a");
}

TEST(Protocol, NetlistErrorMappingUsesColumnsWhenAvailable) {
  const std::string raw =
      R"({"id":"j","type":"netlist","netlist":"t\nabcdef"})";
  const ParseError error("bad char", /*line=*/2, /*column=*/3);
  const ss::NetlistErrorPosition pos = ss::map_netlist_error(error, raw);
  EXPECT_EQ(pos.netlist_line, 2);
  EXPECT_EQ(pos.netlist_column, 3);
  ASSERT_TRUE(pos.request_column.has_value());
  EXPECT_EQ(raw[*pos.request_column - 1], 'c');  // 3rd char of "abcdef"
}

TEST(Protocol, NetlistErrorMappingAbsentWithoutNetlistKey) {
  const ParseError error("nope", 1);
  const ss::NetlistErrorPosition pos =
      ss::map_netlist_error(error, R"({"id":"j","type":"x"})");
  EXPECT_FALSE(pos.request_column.has_value());
}

TEST(Protocol, RealFrontendErrorMapsIntoRequestLine) {
  // End to end: a genuinely malformed embedded netlist, the real frontend
  // error, and the mapping against the exact NDJSON encoding the service
  // would have received.
  ss::JsonValue req = ss::JsonValue::object();
  req.set("id", ss::JsonValue::string("j"));
  req.set("type", ss::JsonValue::string("netlist"));
  const std::string netlist = "title line\nV1 in 0 1\n.tran\n.end\n";
  req.set("netlist", ss::JsonValue::string(netlist));
  const std::string raw = req.dump();
  try {
    (void)softfet::netlist::parse(netlist);
    FAIL() << "expected the frontend to reject .tran without arguments";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
    const ss::NetlistErrorPosition pos = ss::map_netlist_error(e, raw);
    EXPECT_EQ(pos.netlist_line, 3);
    ASSERT_TRUE(pos.request_column.has_value());
    // The mapped column lands inside the escaped netlist string, on the
    // offending netlist line's first character (the '.' of ".tran").
    EXPECT_EQ(raw.substr(*pos.request_column - 1, 5), ".tran");
  }
}

TEST(Retry, ClassifiesFailures) {
  EXPECT_EQ(ss::classify_failure(ConvergenceError("newton diverged")),
            ss::FailureClass::kTransient);
  EXPECT_EQ(ss::classify_failure(BudgetExceededError(
                "wall clock", softfet::util::BudgetStop::kWallClock)),
            ss::FailureClass::kTerminal);
  EXPECT_EQ(ss::classify_failure(BudgetExceededError(
                "cancelled", softfet::util::BudgetStop::kCancel)),
            ss::FailureClass::kCancelled);
  EXPECT_EQ(ss::classify_failure(ParseError("bad", 1)),
            ss::FailureClass::kTerminal);
  EXPECT_EQ(ss::classify_failure(std::runtime_error("bug")),
            ss::FailureClass::kTerminal);
}

TEST(Retry, BackoffBoundsAndDeterminism) {
  ss::RetryPolicy policy;
  policy.base_backoff_ms = 100;
  policy.backoff_multiplier = 4.0;
  policy.max_backoff_ms = 1000;
  policy.jitter = 0.5;

  EXPECT_EQ(ss::backoff_ms(policy, 1, 7), 0u);  // no sleep before attempt 1
  for (int attempt = 2; attempt <= 5; ++attempt) {
    const double base =
        std::min(100.0 * std::pow(4.0, attempt - 2), 1000.0);
    for (std::uint64_t seed : {1ull, 99ull, 123456789ull}) {
      const unsigned ms = ss::backoff_ms(policy, attempt, seed);
      EXPECT_GE(ms, static_cast<unsigned>(base * 0.5) - 1) << attempt;
      EXPECT_LE(ms, static_cast<unsigned>(base) + 1) << attempt;
      // Deterministic per (seed, attempt).
      EXPECT_EQ(ms, ss::backoff_ms(policy, attempt, seed));
    }
  }
  // Distinct seeds decorrelate (not all equal across a few draws).
  const unsigned a = ss::backoff_ms(policy, 3, 1);
  const unsigned b = ss::backoff_ms(policy, 3, 2);
  const unsigned c = ss::backoff_ms(policy, 3, 3);
  EXPECT_TRUE(a != b || b != c);

  policy.jitter = 0.0;  // fully deterministic: exact exponential
  EXPECT_EQ(ss::backoff_ms(policy, 2, 42), 100u);
  EXPECT_EQ(ss::backoff_ms(policy, 3, 42), 400u);
  EXPECT_EQ(ss::backoff_ms(policy, 4, 42), 1000u);  // capped
}

TEST(Retry, Fnv1a64MatchesReference) {
  EXPECT_EQ(ss::fnv1a64(""), 0xCBF29CE484222325ull);
  EXPECT_EQ(ss::fnv1a64("a"), 0xAF63DC4C8601EC8Cull);
  EXPECT_NE(ss::fnv1a64("netlist-a"), ss::fnv1a64("netlist-b"));
}

// ---------------------------------------------------------------------------
// Dynamic retry_after_ms: the overload hint scales with queue depth and
// the mean of recent job latencies (DESIGN.md §5g) instead of parroting a
// constant. Needs a live Server, but stays protocol-level: only the
// `rejected` event's advertised hint is under test.
// ---------------------------------------------------------------------------

#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "service/server.hpp"

namespace {

/// Minimal thread-safe line collector for the hint tests.
class HintCollector {
 public:
  ss::Sink sink() {
    return [this](const std::string& line) {
      const std::lock_guard<std::mutex> lock(mutex_);
      lines_.push_back(line);
    };
  }
  [[nodiscard]] std::vector<ss::JsonValue> events(const std::string& id) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<ss::JsonValue> out;
    for (const auto& line : lines_) {
      ss::JsonValue v = ss::json_parse(line);
      if (v.string_or("id", "") == id) out.push_back(std::move(v));
    }
    return out;
  }
  /// Blocks (bounded) until `id` has seen `event`.
  [[nodiscard]] bool await(const std::string& id, const std::string& event,
                           int timeout_ms = 10000) const {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      for (const auto& ev : events(id)) {
        if (ev.string_or("event", "") == event) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> lines_;
};

}  // namespace

TEST(Protocol, RetryAfterHintTracksQueueDepthAndLatency) {
  ss::ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  config.retry_after_ms = 1;  // the configured floor
  const auto owned = std::make_unique<ss::Server>(config);
  ss::Server& server = *owned;
  server.register_handler("slow", [](const ss::Request&, ss::JobContext& ctx) {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    ctx.finish(ss::JsonValue::object());
  });

  HintCollector out;
  const ss::Sink sink = out.sink();

  // No latency history yet: the server has nothing honest to extrapolate
  // from, so an overload rejection advertises exactly the floor.
  server.handle_line(R"({"id":"a0","type":"slow"})", sink);
  ASSERT_TRUE(out.await("a0", "started"));  // worker busy, queue empty
  server.handle_line(R"({"id":"a1","type":"slow"})", sink);  // fills queue
  server.handle_line(R"({"id":"a2","type":"slow"})", sink);  // sheds
  {
    const auto rejected = out.events("a2");
    ASSERT_EQ(rejected.size(), 1u);
    ASSERT_EQ(rejected.front().string_or("event", ""), "rejected");
    EXPECT_EQ(rejected.front().number_or("retry_after_ms", -1), 1.0);
  }
  server.wait_idle();  // a0 and a1 complete: two ~120 ms latency samples

  // With history, the hint grows to depth x mean latency / workers: one
  // queued job at a ~120 ms mean must advertise roughly that long a wait,
  // not the 1 ms floor.
  server.handle_line(R"({"id":"b0","type":"slow"})", sink);
  ASSERT_TRUE(out.await("b0", "started"));
  server.handle_line(R"({"id":"b1","type":"slow"})", sink);  // fills queue
  server.handle_line(R"({"id":"b2","type":"slow"})", sink);  // sheds
  {
    const auto rejected = out.events("b2");
    ASSERT_EQ(rejected.size(), 1u);
    ASSERT_EQ(rejected.front().string_or("event", ""), "rejected");
    const double hint = rejected.front().number_or("retry_after_ms", -1);
    EXPECT_GE(hint, 50.0);     // well above the floor: latency-derived
    EXPECT_LE(hint, 60000.0);  // and inside the advertised ceiling
  }
  server.wait_idle();
}

// A netlist whose subckt instantiates itself used to recurse until the
// stack overflowed, killing a thread-mode server. Now the job ends in a
// structured parse error and the same server still answers the next ping.
TEST(Protocol, RecursiveSubcktJobGetsParseErrorAndServerStaysUp) {
  ss::ServerConfig config;
  config.isolation = ss::IsolationMode::kThread;
  const auto owned = std::make_unique<ss::Server>(config);
  ss::Server& server = *owned;
  HintCollector out;
  const ss::Sink sink = out.sink();

  ss::JsonValue req = ss::JsonValue::object();
  req.set("id", ss::JsonValue::string("r1"));
  req.set("type", ss::JsonValue::string("netlist"));
  req.set("netlist",
          ss::JsonValue::string("recursive\n.subckt loop a b\nR1 a b 1k\n"
                                "X1 a b loop\n.ends\nX0 in 0 loop\n"
                                "V1 in 0 1\n.op\n.end\n"));
  server.handle_line(req.dump(), sink);
  ASSERT_TRUE(out.await("r1", "error"));
  const auto events = out.events("r1");
  const ss::JsonValue& error = events.back();
  EXPECT_EQ(error.string_or("event", ""), "error");
  EXPECT_EQ(error.string_or("code", ""), ss::kErrorParse);
  EXPECT_NE(error.string_or("message", "").find("recursive subcircuit"),
            std::string::npos);
  EXPECT_EQ(error.number_or("netlist_line", -1), 4.0);

  server.handle_line(R"({"id":"p1","type":"ping"})", sink);
  ASSERT_TRUE(out.await("p1", "result"));
  server.wait_idle();
}
