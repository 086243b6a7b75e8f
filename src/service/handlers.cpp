// Built-in job handlers of the simulation service: "netlist" runs a
// SPICE-style netlist embedded in the request through netlist::run
// (op/dc/tran/ac + measures, waveforms streamed in bounded chunks),
// "monte_carlo" runs the PTM fabrication-variability study with
// per-sample progress events and checkpoint/resume through the job's
// state file. Both produce exactly the
// numbers the direct library calls produce — the service layer adds
// streaming and robustness, never different math.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "cells/inverter.hpp"
#include "core/failure.hpp"
#include "core/variation.hpp"
#include "devices/ptm.hpp"
#include "netlist/elaborate.hpp"
#include "netlist/parser.hpp"
#include "netlist/run.hpp"
#include "service/server.hpp"
#include "sim/options.hpp"

namespace softfet::service {

namespace {

/// Widest lane block a monte_carlo job may ask for: every sample of a block
/// holds its testbench and waveform at once.
constexpr double kMaxMonteCarloLanes = 64.0;

/// Integer field `key` of a monte_carlo payload (`fallback` when absent),
/// truncated toward zero. A value that is not finite or lies outside
/// [lo, hi] is a structured error, raised before any cast to an integer.
[[nodiscard]] double mc_integer(const Request& request, const char* key,
                                double fallback, double lo, double hi) {
  const double v = std::trunc(request.payload.number_or(key, fallback));
  if (!(v >= lo && v <= hi)) {
    throw RequestError(std::string("monte_carlo \"") + key +
                       "\" must be in [" +
                       std::to_string(static_cast<long long>(lo)) + ", " +
                       std::to_string(static_cast<long long>(hi)) + "]");
  }
  return v;
}

/// A count as a JSON number.
[[nodiscard]] JsonValue count(std::size_t n) {
  return JsonValue::number(static_cast<double>(n));
}

/// The "signals" request field: names for AnalysisTable::select.
[[nodiscard]] std::vector<std::string> wanted_signals(const Request& request) {
  std::vector<std::string> wanted;
  if (const JsonValue* signals = request.payload.get("signals");
      signals != nullptr && signals->is_array()) {
    for (const JsonValue& name : signals->items()) {
      if (name.is_string()) wanted.push_back(name.as_string());
    }
  }
  return wanted;
}

/// Stream the wanted columns of one finished sweep as `chunk` events of at
/// most config->chunk_rows rows. Every chunk is self-describing (kind,
/// columns, row_offset) so clients can reassemble without cross-chunk
/// state; `last` marks the final chunk. Each chunk's fields object is
/// written as JSON text straight from the table's columns into one reused
/// buffer, in the bytes JsonValue::dump() would give the same object.
void stream_table(JobContext& ctx, const netlist::AnalysisTable& t,
                  const std::vector<std::string>& wanted) {
  const std::vector<std::size_t> selected = t.select(wanted);
  std::string head = "{\"kind\":";
  head.append(json_quote(netlist::to_string(t.kind)));
  head.append(",\"columns\":[");
  head.append(json_quote(t.axis_name));
  for (const std::size_t i : selected) {
    head.push_back(',');
    head.append(json_quote(t.table.names()[i]));
  }
  head.append("],\"row_offset\":");

  const std::size_t rows = t.axis.size();
  const std::size_t chunk_rows =
      ctx.config != nullptr && ctx.config->chunk_rows > 0
          ? ctx.config->chunk_rows
          : 256;
  std::string fields;
  for (std::size_t start = 0; start < rows; start += chunk_rows) {
    const std::size_t stop = std::min(rows, start + chunk_rows);
    fields.assign(head);
    json_number(static_cast<double>(start), fields);
    fields.append(",\"rows\":[");
    for (std::size_t row = start; row < stop; ++row) {
      if (row != start) fields.push_back(',');
      fields.push_back('[');
      json_number(t.axis[row], fields);
      for (const std::size_t i : selected) {
        fields.push_back(',');
        json_number(t.table.column(i)[row], fields);
      }
      fields.push_back(']');
    }
    fields.append(stop == rows ? "],\"last\":true}" : "],\"last\":false}");
    ctx.emit("chunk", fields);
  }
}

/// Optional "determinism" request field: "bitwise" (default) or "relaxed".
/// Unknown values are refused with a structured error before any work runs.
void apply_determinism(const Request& request, sim::SimOptions& options) {
  const JsonValue* mode = request.payload.get("determinism");
  if (mode == nullptr) return;
  if (mode->is_string()) {
    const std::string& name = mode->as_string();
    if (name == "bitwise") {
      options.determinism = sim::Determinism::kBitwise;
      return;
    }
    if (name == "relaxed") {
      options.determinism = sim::Determinism::kRelaxedUlp;
      return;
    }
  }
  throw RequestError("\"determinism\" must be \"bitwise\" or \"relaxed\"");
}

}  // namespace

JobHandler netlist_job_handler() {
  return [](const Request& request, JobContext& ctx) {
    const JsonValue* netlist = request.payload.get("netlist");
    if (netlist == nullptr || !netlist->is_string()) {
      throw RequestError("netlist job needs a string \"netlist\" field");
    }

    // Content-addressed AST; a cache-less context (direct handler use in
    // benches) parses fresh.
    const CompiledNetlist ast =
        ctx.cache != nullptr
            ? ctx.cache->lookup(netlist->as_string())
            : std::make_shared<const netlist::NetlistAst>(
                  netlist::parse(netlist->as_string()));

    auto net = netlist::elaborate(*ast);
    net.circuit->prepare();

    JsonValue result = JsonValue::object();
    if (!net.title.empty())
      result.set("title", JsonValue::string(net.title));
    result.set("nodes", count(net.circuit->node_count()));
    result.set("devices", count(net.circuit->devices().size()));
    result.set("unknowns", count(net.circuit->unknown_count()));

    const std::vector<std::string> wanted = wanted_signals(request);
    netlist::run(net, ctx.options, [&](const netlist::AnalysisTable& t) {
      switch (t.kind) {
        case netlist::Analysis::kOp: {
          JsonValue values = JsonValue::object();
          for (std::size_t i = 0; i < t.table.columns(); ++i) {
            values.set(t.table.names()[i],
                       JsonValue::number(t.table.column(i)[0]));
          }
          result.set("op", std::move(values));
          return;
        }
        case netlist::Analysis::kDc:
          stream_table(ctx, t, wanted);
          result.set("dc_points", count(t.axis.size()));
          return;
        case netlist::Analysis::kTran: {
          // Stream what we have first — a budget-stopped partial waveform
          // is still delivered before the structured error goes out.
          stream_table(ctx, t, wanted);
          core::require_complete(*t.tran, "netlist transient");
          JsonValue summary = JsonValue::object();
          summary.set("tstop", JsonValue::number(net.tran->tstop));
          summary.set("accepted_steps", count(t.tran->accepted_steps));
          summary.set("rejected_steps", count(t.tran->rejected_steps));
          summary.set("newton_iterations", count(t.tran->newton_iterations));
          summary.set("ptm_events", count(t.tran->event_count));
          result.set("tran", std::move(summary));
          if (!t.measures.empty()) {
            JsonValue measures = JsonValue::object();
            for (const auto& m : t.measures) {
              measures.set(m.name, JsonValue::number(m.value));
            }
            result.set("measures", std::move(measures));
          }
          return;
        }
        case netlist::Analysis::kAc:
          stream_table(ctx, t, wanted);
          result.set("ac_points", count(t.axis.size()));
          return;
      }
    });

    ctx.finish(std::move(result));
  };
}

JobHandler monte_carlo_job_handler() {
  return [](const Request& request, JobContext& ctx) {
    const int max_samples =
        ctx.config != nullptr ? ctx.config->max_samples : 100000;
    const int samples = static_cast<int>(
        mc_integer(request, "samples", 32.0, 2.0, max_samples));

    cells::InverterTestbenchSpec base;
    base.vcc = request.payload.number_or("vcc", base.vcc);
    base.input_transition =
        request.payload.number_or("input_transition", base.input_transition);
    base.input_rising = request.payload.bool_or("input_rising", false);
    base.fanout = request.payload.number_or("fanout", base.fanout);
    base.dut.ptm = devices::PtmParams{};

    core::MonteCarloSpec mc;
    mc.samples = samples;
    mc.seed = static_cast<unsigned>(mc_integer(
        request, "seed", 1.0, 0.0, std::numeric_limits<unsigned>::max()));
    mc.sigma_threshold =
        request.payload.number_or("sigma_threshold", mc.sigma_threshold);
    mc.sigma_resistance =
        request.payload.number_or("sigma_resistance", mc.sigma_resistance);
    mc.sigma_tptm = request.payload.number_or("sigma_tptm", mc.sigma_tptm);
    mc.lanes = static_cast<int>(
        mc_integer(request, "lanes", 0.0, 0.0, kMaxMonteCarloLanes));
    apply_determinism(request, ctx.options);
    // Parallelism lives at the job level (the server's worker pool);
    // nested parallel_for would run serially anyway, so be explicit.
    mc.threads = 1;
    mc.checkpoint.path = ctx.checkpoint_path;
    mc.checkpoint.flush_every = static_cast<int>(
        mc_integer(request, "checkpoint_every", 4.0, 1.0, max_samples));

    std::atomic<int> drawn{0};
    const int stride = std::max(1, samples / 8);
    mc.per_sample_hook = [&ctx, &drawn, stride, samples](
                             std::size_t, cells::InverterTestbenchSpec&) {
      // Counts characterization *starts* (reruns repeat the hook, so this
      // can exceed `samples` under eviction — it is a liveness signal, not
      // an exact completion count).
      const int n = drawn.fetch_add(1, std::memory_order_relaxed) + 1;
      if (n % stride == 0) {
        JsonValue fields = JsonValue::object();
        fields.set("samples_started", JsonValue::number(n));
        fields.set("total", JsonValue::number(samples));
        ctx.emit("progress", fields.dump());
      }
    };

    const auto stats = core::ptm_monte_carlo(base, mc, ctx.options);

    JsonValue result = JsonValue::object();
    result.set("determinism",
               JsonValue::string(sim::to_string(ctx.options.determinism)));
    result.set("samples", JsonValue::number(stats.samples));
    result.set("failed_samples", JsonValue::number(stats.failed_samples));
    result.set("imax_mean", JsonValue::number(stats.imax_mean));
    result.set("imax_std", JsonValue::number(stats.imax_std));
    result.set("imax_worst", JsonValue::number(stats.imax_worst));
    result.set("delay_mean", JsonValue::number(stats.delay_mean));
    result.set("delay_std", JsonValue::number(stats.delay_std));
    result.set("delay_worst", JsonValue::number(stats.delay_worst));
    result.set("fraction_below_baseline",
               JsonValue::number(stats.fraction_below_baseline));
    if (!stats.failures.empty()) {
      JsonValue failures = JsonValue::array();
      const std::size_t shown = std::min<std::size_t>(stats.failures.size(), 8);
      for (std::size_t i = 0; i < shown; ++i) {
        const auto& f = stats.failures[i];
        JsonValue record = JsonValue::object();
        record.set("context", JsonValue::string(f.context));
        record.set("message", JsonValue::string(f.message));
        record.set("budget_stop",
                   JsonValue::string(util::to_string(f.budget_stop)));
        failures.push(std::move(record));
      }
      result.set("failures", std::move(failures));
      result.set("failures_dropped", count(stats.failures.size() - shown));
    }
    ctx.finish(std::move(result));
  };
}

}  // namespace softfet::service
