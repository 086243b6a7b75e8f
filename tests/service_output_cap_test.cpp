// The per-job output cap (service::kMaxStreamedBytes; ctest label
// "grid-large"). tests/netlists/rc_step_cap.sp runs into the 20 M
// accepted-step cap and holds a 20 M-row partial waveform (~0.6 GB, ~10 s
// in Release). Served as a netlist job it must stop streaming at the cap
// and end in a `budget_exhausted` error, with no rerun, instead of sending
// all 1.4 GB of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "service/server.hpp"
#include "util/budget.hpp"

namespace ss = softfet::service;

TEST(ServiceOutputCap, StepCappedTransientStopsAtTheOutputCap) {
  std::ifstream file(std::string(SOFTFET_SOURCE_DIR) +
                     "/tests/netlists/rc_step_cap.sp");
  ASSERT_TRUE(file) << "missing tests/netlists/rc_step_cap.sp";
  std::ostringstream text;
  text << file.rdbuf();

  ss::JsonValue request = ss::JsonValue::object();
  request.set("id", ss::JsonValue::string("cap"));
  request.set("type", ss::JsonValue::string("netlist"));
  request.set("netlist", ss::JsonValue::string(text.str()));
  // Far past the ~10 s the step cap takes, so the output cap is what stops
  // the job.
  request.set("timeout_seconds", ss::JsonValue::number(300));

  // Chunk lines are only measured; the lifecycle lines are kept.
  std::mutex mutex;
  std::size_t chunk_bytes = 0;
  std::size_t largest_chunk = 0;
  std::vector<std::string> lifecycle;
  const ss::Sink sink = [&](const std::string& line) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (line.find(R"("event":"chunk")") != std::string::npos) {
      chunk_bytes += line.size();
      largest_chunk = std::max(largest_chunk, line.size());
    } else {
      lifecycle.push_back(line);
    }
  };

  ss::ServerConfig config;
  config.workers = 1;
  const auto server = std::make_unique<ss::Server>(config);
  server->handle_line(request.dump(), sink);
  server->wait_idle();

  ASSERT_EQ(lifecycle.size(), 3u);
  EXPECT_EQ(ss::json_parse(lifecycle[0]).string_or("event", ""), "accepted");
  EXPECT_EQ(ss::json_parse(lifecycle[1]).string_or("event", ""), "started");
  const ss::JsonValue error = ss::json_parse(lifecycle[2]);
  EXPECT_EQ(error.string_or("event", ""), "error");
  EXPECT_EQ(error.string_or("code", ""), ss::kErrorBudget);
  EXPECT_EQ(error.string_or("stop", ""),
            softfet::util::to_string(softfet::util::BudgetStop::kOutputBytes));

  EXPECT_GT(chunk_bytes, ss::kMaxStreamedBytes);
  EXPECT_LE(chunk_bytes, ss::kMaxStreamedBytes + largest_chunk);
  EXPECT_EQ(server->stats().retries, 0u);
  EXPECT_EQ(server->stats().failed, 1u);
}
