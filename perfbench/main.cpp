// softfet_perfbench: runs one seeded workload against the public library
// API and prints one JSON object (the raw report) as its last stdout line.
// perfbench/run.py builds this binary, checks the report against
// perfbench/reference.json and prints the benchmark's result line.
//
//   softfet_perfbench --workload mc_inverter|grid_droop|service_mix
//                     --seed N --seconds S --trace 0|1 [--smoke]
//                     [--netlists DIR]
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "service/json.hpp"
#include "util/build_info.hpp"

namespace perfbench {

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string fmt(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

using softfet::service::JsonValue;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

JsonValue metrics_json(const std::map<std::string, Metric>& metrics) {
  JsonValue out = JsonValue::object();
  for (const auto& [name, m] : metrics) {
    JsonValue entry = JsonValue::object();
    entry.set("value", JsonValue::number(m.value));
    entry.set("unit", JsonValue::string(m.unit));
    out.set(name, std::move(entry));
  }
  return out;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "softfet_perfbench: %s\nusage: softfet_perfbench --workload "
               "mc_inverter|grid_droop|service_mix --seed N --seconds S "
               "--trace 0|1 [--smoke] [--netlists DIR]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  std::string workload;
  config.netlist_dir = "examples/netlists";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      config.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--netlists" && has_value) {
      config.netlist_dir = argv[++i];
    } else {
      return usage(("unknown argument '" + arg + "'").c_str());
    }
  }

  // Timings from a debug or sanitizer build would mislead: refuse them.
  const softfet::util::BuildInfo& build = softfet::util::build_info();
  const std::string build_type = build.build_type;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    return usage(("refusing to report from a '" + build_type +
                  "' build; configure with -DCMAKE_BUILD_TYPE=Release")
                     .c_str());
  }
  if (std::string(build.sanitizer) != "none") {
    return usage("refusing to report from a sanitizer build");
  }

  Report report;
  try {
    if (workload == "mc_inverter") {
      report = run_mc_inverter(config);
    } else if (workload == "grid_droop") {
      report = run_grid_droop(config);
    } else if (workload == "service_mix") {
      report = run_service_mix(config);
    } else {
      return usage(("unknown workload '" + workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "softfet_perfbench: %s failed: %s\n",
                 workload.c_str(), e.what());
    return 1;
  }
  report.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  JsonValue env = JsonValue::object();
  env.set("nproc", JsonValue::number(
                       static_cast<double>(std::thread::hardware_concurrency())));
  env.set("cpu_model", JsonValue::string(cpu_model()));
  env.set("compiler", JsonValue::string(build.compiler));
  env.set("build_type", JsonValue::string(build_type));
  env.set("sanitizer", JsonValue::string(build.sanitizer));
  env.set("build_info", JsonValue::string(softfet::util::build_info_line()));

  JsonValue checks = JsonValue::array();
  for (const auto& [name, detail] : report.failed_checks) {
    JsonValue c = JsonValue::object();
    c.set("name", JsonValue::string(name));
    c.set("detail", JsonValue::string(detail));
    checks.push(std::move(c));
  }
  JsonValue counters = JsonValue::object();
  for (const auto& [name, value] : report.counters)
    counters.set(name, JsonValue::number(value));

  for (const auto& note : report.notes) std::printf("%s\n", note.c_str());

  JsonValue out = JsonValue::object();
  out.set("workload", JsonValue::string(workload));
  out.set("seed", JsonValue::number(static_cast<double>(config.seed)));
  out.set("smoke", JsonValue::boolean(config.smoke));
  out.set("trace", JsonValue::boolean(config.trace));
  out.set("env", std::move(env));
  out.set("attempted", JsonValue::number(static_cast<double>(report.attempted)));
  out.set("failed", JsonValue::number(static_cast<double>(report.failed)));
  out.set("failed_checks", std::move(checks));
  out.set("counters", std::move(counters));
  out.set("end_to_end", metrics_json(report.end_to_end));
  out.set("per_layer", metrics_json(report.per_layer));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
