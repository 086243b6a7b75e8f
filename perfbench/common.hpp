// Shared pieces of the end-to-end benchmark: clocks, seeded streams,
// percentiles, the span tracer, and the per-run report every workload fills.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[nodiscard]] inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

/// splitmix64: one well-mixed 64-bit value per (seed, stream) pair, so every
/// input the workloads generate derives from the command-line seed alone.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed,
                                               std::uint64_t stream) {
  return splitmix64(splitmix64(seed) ^ (stream * 0xd6e8feb86659fd93ULL));
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
[[nodiscard]] inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Host time of each window of a repeated piece of work, keyed by the
/// window's position, one entry per repeat: a window holds the same work in
/// every repeat.
using Windows = std::map<std::size_t, std::vector<double>>;

/// Sum over the windows of the q-quantile of their repeat times. q = 0 is
/// the work made of each window's fastest repeat, which leaves out the
/// host's bursts of contention.
[[nodiscard]] inline double window_sum_ms(const Windows& windows, double q) {
  double sum = 0.0;
  for (const auto& [position, ms] : windows) sum += percentile(ms, q);
  return sum;
}

/// Spans recorded from the benchmark's own calls into each layer. A span's
/// parent is the innermost span open when it started (single-threaded use).
/// With tracing off every span is a no-op, so the untraced run pays nothing.
class Tracer {
 public:
  struct Record {
    std::string name;
    int parent = -1;
    Clock::time_point start;
    Clock::time_point end;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Switch recording on or off between spans (never while one is open), so
  /// traced and untraced rounds of one run differ only in the tracing.
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

  class Span {
   public:
    Span(Tracer& tracer, std::string name) : tracer_(tracer) {
      if (!tracer_.enabled_) return;
      index_ = static_cast<int>(tracer_.records_.size());
      tracer_.records_.push_back(
          {std::move(name), tracer_.open_.empty() ? -1 : tracer_.open_.back(),
           Clock::now(), {}});
      tracer_.open_.push_back(index_);
    }
    ~Span() {
      if (index_ < 0) return;
      tracer_.records_[static_cast<std::size_t>(index_)].end = Clock::now();
      tracer_.open_.pop_back();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  /// Durations [ms] of every span called `name`.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const {
    std::vector<double> out;
    for (const auto& r : records_) {
      if (r.name == name) out.push_back(ms_between(r.start, r.end));
    }
    return out;
  }

  /// Self time [ms] of each span called `name`: its duration minus the time
  /// its direct children cover (children never overlap: one thread).
  [[nodiscard]] std::vector<double> self_ms(const std::string& name) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      if (records_[i].name != name) continue;
      double self = ms_between(records_[i].start, records_[i].end);
      for (const auto& child : records_) {
        if (child.parent == static_cast<int>(i)) {
          self -= ms_between(child.start, child.end);
        }
      }
      out.push_back(self);
    }
    return out;
  }

  [[nodiscard]] double median_ms(const std::string& name) const {
    return median(durations_ms(name));
  }

 private:
  bool enabled_;
  std::vector<Record> records_;
  std::vector<int> open_;
};

/// A metric as printed: value plus unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports. `checks` that fail make the run
/// incorrect; `counters` are machine-independent and compared exactly.
struct Report {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, double> counters;
  std::vector<std::pair<std::string, std::string>> failed_checks;
  std::vector<std::string> notes;  ///< human-readable lines for stdout
  long attempted = 0;
  long failed = 0;

  void check(bool ok, const std::string& name, const std::string& detail = {}) {
    if (!ok) failed_checks.emplace_back(name, detail);
  }
};

/// Sizes and durations of one run; `smoke` shrinks every workload.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string netlist_dir;  ///< where examples/netlists lives
};

[[nodiscard]] std::string hexfloat(double v);
[[nodiscard]] std::string fmt(double v, int digits = 6);

/// Peak resident set of this process [MB].
[[nodiscard]] double peak_rss_mb();

Report run_mc_inverter(const RunConfig& config);
Report run_grid_droop(const RunConfig& config);
Report run_service_mix(const RunConfig& config);

}  // namespace perfbench
