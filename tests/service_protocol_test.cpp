// NDJSON protocol unit tests: JSON parse/dump round trips, pinpointed
// parse errors (line/column), request validation, and the mapping of
// netlist-relative error positions back to columns of the original request
// line (walking the \n escapes).
#include "service/protocol.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "netlist/parser.hpp"
#include "service/json.hpp"
#include "util/error.hpp"

namespace ss = softfet::service;
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

namespace {

/// The number rule in printf terms: "%lld" for integers below 9e15 in
/// magnitude, "%.17g" for every other finite double, null otherwise.
std::string printf_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  if (std::fabs(v) < 9.0e15 && v == std::trunc(v)) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

}  // namespace

TEST(JsonNumber, MatchesPrintf) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {
      0.0, -0.0, std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), DBL_MIN, DBL_MAX, -DBL_MAX,
      std::ldexp(1.0, 53) - 1.0, std::ldexp(1.0, 53) + 1.0,
      std::ldexp(1.0, 53), -std::ldexp(1.0, 53),
      std::numeric_limits<double>::quiet_NaN(), kInf, -kInf, 0.1, -2.5e3};
  // Each switch point with its neighbours: the integer cut at 9e15 and
  // %g's move to exponent form below 1e-4 and from 1e17 on.
  for (const double edge : {9.0e15, -9.0e15, 1e-5, 1e-4, 1e16, 1e17}) {
    values.push_back(edge);
    values.push_back(std::nextafter(edge, -kInf));
    values.push_back(std::nextafter(edge, kInf));
  }
  std::mt19937_64 rng(20181);
  for (int i = 0; i < 1000000; ++i) {
    const std::uint64_t bits = rng();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    values.push_back(v);
  }
  int mismatches = 0;
  for (const double v : values) {
    std::string got;
    ss::json_number(v, got);
    const std::string want = printf_number(v);
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "json_number gave " << got << ", printf " << want;
    }
  }
  EXPECT_EQ(mismatches, 0);
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

// ---------------------------------------------------------------------------
// Dynamic retry_after_ms: the overload hint scales with queue depth and
// the mean of recent job latencies (DESIGN.md §5g) instead of parroting a
// constant. Needs a live Server, but stays protocol-level: only the
// `rejected` event's advertised hint is under test.
// ---------------------------------------------------------------------------

#include <chrono>
#include <map>
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

TEST(Json, SurrogatePairEscapeDecodesToOneCodePoint) {
  // U+1F600 is one 4-byte UTF-8 sequence, not two 3-byte halves.
  EXPECT_EQ(ss::json_parse(R"("x\ud83d\ude00")").as_string(),
            "x\xF0\x9F\x98\x80");

  // The id is echoed back as the same valid UTF-8.
  const auto server = std::make_unique<ss::Server>(ss::ServerConfig{});
  std::vector<std::string> lines;
  server->handle_line(R"({"id":"x\ud83d\ude00","type":"ping"})",
                      [&](const std::string& line) { lines.push_back(line); });
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0],
            "{\"id\":\"x\xF0\x9F\x98\x80\",\"seq\":0,\"event\":\"result\","
            "\"pong\":true}");
}

TEST(Json, UnpairedSurrogateEscapeIsRejected) {
  for (const char* text : {R"("\ud83d")", R"("\ud83dx")", R"("\ud83d\u0041")",
                           R"("\ude00")"}) {
    EXPECT_THROW((void)ss::json_parse(text), ParseError) << text;
  }

  const auto server = std::make_unique<ss::Server>(ss::ServerConfig{});
  std::vector<std::string> lines;
  server->handle_line(R"({"id":"x\ud83d","type":"ping"})",
                      [&](const std::string& line) { lines.push_back(line); });
  ASSERT_EQ(lines.size(), 1u);
  const ss::JsonValue event = ss::json_parse(lines[0]);
  EXPECT_EQ(event.string_or("event", ""), "rejected");
  EXPECT_EQ(event.string_or("code", ""), ss::kRejectInvalid);
  EXPECT_EQ(event.number_or("line", -1), 1.0);
  EXPECT_GT(event.number_or("column", -1), 0.0);
}

namespace {

/// An RC ladder deck of `sections` 1k/1p sections driven by V1 (DC 0,
/// AC 1), followed by the `analyses` cards.
[[nodiscard]] std::string rc_ladder_deck(int sections,
                                         const std::string& analyses) {
  std::string deck = "rc ladder\nV1 n0 0 DC 0 AC 1\n";
  for (int k = 1; k <= sections; ++k) {
    const std::string n = std::to_string(k);
    const std::string a = std::string("n").append(std::to_string(k - 1));
    const std::string b = std::string("n").append(n);
    deck.append("R").append(n).append(" ").append(a).append(" ").append(b);
    deck.append(" 1k\nC").append(n).append(" ").append(b).append(" 0 1p\n");
  }
  return deck + analyses + "\n.end\n";
}

[[nodiscard]] ss::JsonValue netlist_job(const std::string& id,
                                        const std::string& deck) {
  ss::JsonValue req = ss::JsonValue::object();
  req.set("id", ss::JsonValue::string(id));
  req.set("type", ss::JsonValue::string("netlist"));
  req.set("netlist", ss::JsonValue::string(deck));
  return req;
}

}  // namespace

// An .ac sweep runs under the job's budget like every other analysis: a
// 90 001-point sweep that takes seconds ends in a structured budget error
// instead of running to the end.
TEST(Protocol, AcJobStopsAtItsTimeout) {
  HintCollector out;  // outlives the server, which may still emit into it
  const auto owned = std::make_unique<ss::Server>(ss::ServerConfig{});
  ss::Server& server = *owned;
  ss::JsonValue req =
      netlist_job("ac1", rc_ladder_deck(60, ".ac dec 10000 1 1e9"));
  req.set("timeout_seconds", ss::JsonValue::number(0.1));
  server.handle_line(req.dump(), out.sink());
  ASSERT_TRUE(out.await("ac1", "error"));
  const auto events = out.events("ac1");
  EXPECT_EQ(events.back().string_or("code", ""), ss::kErrorBudget);
  server.wait_idle();
}

// "signals" selects the streamed columns of every sweep; for .ac, v(x)
// selects mag(v(x)). Names match case-insensitively.
TEST(Protocol, SignalsFilterTranAndAcChunks) {
  HintCollector out;  // outlives the server, which may still emit into it
  const auto owned = std::make_unique<ss::Server>(ss::ServerConfig{});
  ss::Server& server = *owned;
  ss::JsonValue req =
      netlist_job("s1", rc_ladder_deck(3, ".tran 1n 10n\n.ac dec 2 1k 1meg"));
  ss::JsonValue signals = ss::JsonValue::array();
  signals.push(ss::JsonValue::string("V(n2)"));
  req.set("signals", std::move(signals));
  server.handle_line(req.dump(), out.sink());
  ASSERT_TRUE(out.await("s1", "result"));
  server.wait_idle();

  std::map<std::string, std::vector<std::string>> columns;
  for (const auto& ev : out.events("s1")) {
    if (ev.string_or("event", "") != "chunk") continue;
    std::vector<std::string> names;
    for (const auto& name : ev.get("columns")->items()) {
      names.push_back(name.as_string());
    }
    columns[ev.string_or("kind", "")] = names;
  }
  EXPECT_EQ(columns["tran"], (std::vector<std::string>{"time", "v(n2)"}));
  EXPECT_EQ(columns["ac"], (std::vector<std::string>{"freq", "mag(v(n2))"}));
}
