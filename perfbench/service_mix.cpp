// Workload service_mix: an in-process simulation service fed a seeded job
// mix — open loop on a Poisson schedule in thread mode, the same schedule
// replayed against forked process-mode workers, then a closed loop with two
// jobs in flight.
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "core/variation.hpp"
#include "devices/ptm.hpp"
#include "netlist/elaborate.hpp"
#include "netlist/measure_eval.hpp"
#include "netlist/parser.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "sim/analyses.hpp"

namespace perfbench {
namespace {

using namespace softfet;
using service::JsonValue;

/// Open-loop arrival rate [jobs/s]: about a fifth of the closed-loop
/// capacity (~120 jobs/s with two workers on a 4-core Xeon VM). At half
/// capacity the latency medians sat on the wait/no-wait boundary and moved
/// 35% between seeds.
constexpr double kOpenLoopRate = 25.0;
constexpr std::size_t kWorkers = 2;
constexpr int kMcSamples = 16;
constexpr int kBankInverters = 8;

enum Kind { kInverter, kBuffer, kCold, kBank, kMc16, kKinds };
constexpr const char* kKindName[kKinds] = {"inverter", "buffer", "cold", "bank",
                                           "mc16"};
/// The mix as a deck of 20 jobs, shuffled per deal. The shares are assumed,
/// not observed: no traffic record exists, only that warm inverter jobs are
/// the most frequent kind. They set the queueing behind the all-kind
/// latencies, so the headline metrics time the warm inverter job alone.
/// Dealing whole decks keeps every seed's mix at these proportions, so
/// seeds differ in order and timing only.
constexpr int kDeck[kKinds] = {11, 3, 3, 2, 1};

/// A generated bank of Soft-FET inverters on one input, sharing bondwire
/// inductors to the supply and ground pins: more than 16 unknowns, so the
/// solver takes the sparse natural-order LU path.
std::string bank_netlist() {
  std::ostringstream out;
  out << "Soft-FET inverter bank on shared bondwires\n"
         ".param vcc=1\n"
         ".model vo2 ptm rins=500k rmet=5k vimt=0.4 vmit=0.3 tptm=10p\n"
         ".model nch nmos\n.model pch pmos\n"
         "Vdd vddp 0 {vcc}\nLbv vddp vddb 1n\nRbv vddb vdd 0.1\n"
         "Lbg vssi vssb 1n\nRbg vssb 0 0.1\nCdec vdd vssi 20f\n"
         "Vin in 0 PWL(0 {vcc} 100p {vcc} 130p 0)\n";
  for (int k = 0; k < kBankInverters; ++k) {
    out << "P" << k << " in g" << k << " vo2\n"
        << "MP" << k << " o" << k << " g" << k << " vdd vdd pch W=240n L=40n\n"
        << "MN" << k << " o" << k << " g" << k << " vssi vssi nch W=120n L=40n\n"
        << "C" << k << " o" << k << " vssi 2f\n";
  }
  out << ".tran 1p 1n\n.measure tran vdd_min MIN v(vdd)\n.end\n";
  return out.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open netlist file '" + path + "'");
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The inverter netlist under a unique title: same circuit, new cache key.
std::string cold_variant(const std::string& inverter, const std::string& tag) {
  return "Soft-FET inverter cold variant " + tag +
         inverter.substr(inverter.find('\n'));
}

struct Job {
  Kind kind = kInverter;
  std::string text;      ///< netlist text (netlist kinds)
  unsigned mc_seed = 0;  ///< Monte-Carlo seed (mc16)
  double due_s = 0.0;    ///< open loop: offset from the phase start
};

struct Inputs {
  std::string inverter, buffer, bank;
  unsigned mc_seeds[4] = {};
};

/// Seeded job stream dealt from shuffled decks; Monte-Carlo jobs draw one
/// of four seeds so their expected results are few; cold jobs get unique
/// titles.
class JobStream {
 public:
  JobStream(const Inputs& inputs, std::uint64_t seed, std::string tag)
      : inputs_(inputs), rng_(seed), tag_(std::move(tag)) {}

  Job next() {
    if (deck_.empty()) {
      for (int k = 0; k < kKinds; ++k)
        deck_.insert(deck_.end(), static_cast<std::size_t>(kDeck[k]), Kind(k));
      std::shuffle(deck_.begin(), deck_.end(), rng_);
    }
    Job job;
    job.kind = deck_.back();
    deck_.pop_back();
    switch (job.kind) {
      case kInverter: job.text = inputs_.inverter; break;
      case kBuffer: job.text = inputs_.buffer; break;
      case kBank: job.text = inputs_.bank; break;
      case kCold:
        job.text = cold_variant(inputs_.inverter,
                                tag_ + "-" + std::to_string(cold_++));
        break;
      case kMc16: job.mc_seed = inputs_.mc_seeds[rng_() % 4]; break;
      case kKinds: break;
    }
    return job;
  }

  [[nodiscard]] double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(rng_);
  }

 private:
  const Inputs& inputs_;
  std::mt19937_64 rng_;
  std::string tag_;
  int cold_ = 0;
  std::vector<Kind> deck_;
};

std::string request_line(const std::string& id, const Job& job) {
  if (job.kind == kMc16) {
    return "{\"id\":\"" + id + "\",\"type\":\"monte_carlo\",\"samples\":" +
           std::to_string(kMcSamples) +
           ",\"seed\":" + std::to_string(job.mc_seed) + "}";
  }
  // Bank clients watch the shared rail and one output, not every node.
  const char* signals =
      job.kind == kBank ? ",\"signals\":[\"v(vdd)\",\"v(o0)\"]" : "";
  return "{\"id\":\"" + id + "\",\"type\":\"netlist\",\"netlist\":" +
         service::json_quote(job.text) + signals + "}";
}

/// Per-job lifecycle as seen by the client sink.
struct Track {
  Kind kind = kInverter;
  unsigned mc_seed = 0;
  Clock::time_point due, accepted, started, terminal;
  std::uint64_t next_seq = 0;
  bool seq_ok = true;
  int terminals = 0;
  std::size_t bytes = 0;
  std::string terminal_event;
  std::string result_line;
};

/// The benchmark's response sink: timestamps and checks every event line.
class Collector {
 public:
  service::Sink sink() {
    return [this](const std::string& line) { on_line(line); };
  }

  void expect(const std::string& id, const Job& job, Clock::time_point due) {
    const std::lock_guard<std::mutex> lock(mutex_);
    Track& t = tracks_[id];
    t.kind = job.kind;
    t.mc_seed = job.mc_seed;
    t.due = due;
    ++outstanding_;
  }

  /// Wait until at most `limit` expected jobs have no terminal event yet.
  bool wait_outstanding(std::size_t limit, double timeout_s) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                        [&] { return outstanding_ <= limit; });
  }

  std::unordered_map<std::string, Track> take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::move(tracks_);
  }

 private:
  /// Reads the {"id":…,"seq":…,"event":…} head every response line starts
  /// with, without parsing multi-KB chunk bodies: the server calls the sink
  /// under its emit lock, so a slow client would inflate the latencies.
  static bool parse_head(const std::string& line, std::string& id,
                         std::uint64_t& seq, std::string& event) {
    constexpr std::string_view kId = "{\"id\":\"";
    constexpr std::string_view kSeq = "\",\"seq\":";
    constexpr std::string_view kEvent = ",\"event\":\"";
    if (line.compare(0, kId.size(), kId) != 0) return false;
    const std::size_t id_end = line.find(kSeq, kId.size());
    if (id_end == std::string::npos) return false;
    id = line.substr(kId.size(), id_end - kId.size());
    std::size_t pos = id_end + kSeq.size();
    seq = 0;
    while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9')
      seq = seq * 10 + static_cast<std::uint64_t>(line[pos++] - '0');
    if (line.compare(pos, kEvent.size(), kEvent) != 0) return false;
    pos += kEvent.size();
    const std::size_t event_end = line.find('"', pos);
    if (event_end == std::string::npos) return false;
    event = line.substr(pos, event_end - pos);
    return true;
  }

  void on_line(const std::string& line) {
    const auto now = Clock::now();
    std::string id, kind;
    std::uint64_t seq = 0;
    if (!parse_head(line, id, seq, kind)) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = tracks_.find(id);
    if (it == tracks_.end()) return;
    Track& t = it->second;
    t.bytes += line.size() + 1;
    if (seq != t.next_seq) t.seq_ok = false;
    t.next_seq = seq + 1;
    if (kind == "accepted") t.accepted = now;
    if (kind == "started") t.started = now;
    if (kind == "result" || kind == "error" || kind == "cancelled" ||
        kind == "rejected") {
      t.terminal = now;
      t.terminal_event = kind;
      if (++t.terminals == 1) {
        if (kind == "result") t.result_line = line;
        --outstanding_;
        cv_.notify_all();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::unordered_map<std::string, Track> tracks_;
  std::size_t outstanding_ = 0;
};

/// Waits until at most `limit` jobs are outstanding. On a timeout the server
/// is shut down first, which waits for every admitted job's terminal event,
/// so no worker still writes into `collector` once the error unwinds it.
void await(Collector& collector, service::Server& server, std::size_t limit,
           const char* what) {
  if (collector.wait_outstanding(limit, 150.0)) return;
  server.shutdown(/*cancel_inflight=*/true);
  throw Error(std::string(what) + ": no job finished within 150 s");
}

service::ServerConfig server_config(service::IsolationMode mode) {
  service::ServerConfig config;
  config.workers = kWorkers;
  config.isolation = mode;
  return config;
}

struct Phase {
  std::unordered_map<std::string, Track> tracks;
  std::vector<double> admit_us;
  std::vector<double> lag_ms;
  double elapsed_s = 0.0;
};

/// Open loop: send each job at its due time, whatever the backlog.
Phase run_open_loop(service::Server& server, const std::vector<Job>& schedule,
                    const std::string& prefix, bool trace_admit) {
  Collector collector;
  const service::Sink sink = collector.sink();
  Phase phase;
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(schedule[i].due_s));
    std::this_thread::sleep_until(due);
    const std::string id = prefix + std::to_string(i);
    const std::string line = request_line(id, schedule[i]);
    collector.expect(id, schedule[i], due);
    const auto sent = Clock::now();
    phase.lag_ms.push_back(ms_between(due, sent));
    server.handle_line(line, sink);
    if (trace_admit) phase.admit_us.push_back(ms_since(sent) * 1e3);
  }
  await(collector, server, 0, "open loop");
  server.wait_idle();
  phase.elapsed_s = ms_since(t0) / 1e3;
  phase.tracks = collector.take();
  return phase;
}

/// Closed loop: keep `kWorkers` jobs in flight for `seconds`.
Phase run_closed_loop(service::Server& server, JobStream& stream,
                      double seconds, const std::string& prefix) {
  Collector collector;
  const service::Sink sink = collector.sink();
  Phase phase;
  const auto t0 = Clock::now();
  std::size_t sent = 0;
  while (ms_since(t0) / 1e3 < seconds) {
    const Job job = stream.next();
    const std::string id = prefix + std::to_string(sent++);
    collector.expect(id, job, Clock::now());
    server.handle_line(request_line(id, job), sink);
    await(collector, server, kWorkers - 1, "closed loop");
  }
  await(collector, server, 0, "closed loop");
  server.wait_idle();
  phase.elapsed_s = ms_since(t0) / 1e3;
  phase.tracks = collector.take();
  return phase;
}

/// Warm a server: every kind twice, so both worker slots (process mode:
/// both forked workers) and the netlist cache are hot before timing. The
/// Monte-Carlo warm job uses one fixed seed, so set-up time does not vary
/// with the workload seed.
void warm(service::Server& server, const Inputs& inputs, const std::string& tag) {
  Collector collector;
  const service::Sink sink = collector.sink();
  int n = 0;
  for (int k = 0; k < kKinds; ++k) {
    for (int rep = 0; rep < 2; ++rep) {
      Job job;
      job.kind = static_cast<Kind>(k);
      job.text = k == kInverter || k == kCold ? inputs.inverter
                 : k == kBuffer               ? inputs.buffer
                                              : inputs.bank;
      job.mc_seed = 1;
      const std::string id = tag + std::to_string(n++);
      collector.expect(id, job, Clock::now());
      server.handle_line(request_line(id, job), sink);
    }
  }
  await(collector, server, 0, "warm-up");
  server.wait_idle();
}

/// What a direct library call returns for one job input: the fields the
/// service's result payload must reproduce.
struct Expected {
  JsonValue fields = JsonValue::object();
  double parse_ms = 0.0, elaborate_ms = 0.0, tran_ms = 0.0, measure_ms = 0.0;
  sim::TranResult tran;
};

Expected direct_netlist(const std::string& text) {
  Expected e;
  auto t0 = Clock::now();
  const netlist::NetlistAst ast = netlist::parse(text);
  e.parse_ms = ms_since(t0);
  t0 = Clock::now();
  netlist::ElaboratedNetlist net = netlist::elaborate(ast);
  net.circuit->prepare();
  e.elaborate_ms = ms_since(t0);
  e.fields.set("unknowns", JsonValue::number(static_cast<double>(
                               net.circuit->unknown_count())));
  sim::SimOptions options;
  if (net.tran->tstep > 0.0) options.dtmax = net.tran->tstep * 10.0;
  t0 = Clock::now();
  e.tran = sim::run_transient(*net.circuit, net.tran->tstop, options);
  e.tran_ms = ms_since(t0);
  JsonValue tran = JsonValue::object();
  tran.set("accepted_steps",
           JsonValue::number(static_cast<double>(e.tran.accepted_steps)));
  tran.set("rejected_steps",
           JsonValue::number(static_cast<double>(e.tran.rejected_steps)));
  tran.set("newton_iterations",
           JsonValue::number(static_cast<double>(e.tran.newton_iterations)));
  tran.set("ptm_events",
           JsonValue::number(static_cast<double>(e.tran.event_count)));
  e.fields.set("tran", std::move(tran));
  t0 = Clock::now();
  const auto measures = netlist::evaluate_measures(net.measures, e.tran);
  e.measure_ms = ms_since(t0);
  JsonValue m = JsonValue::object();
  for (const auto& v : measures) m.set(v.name, JsonValue::number(v.value));
  if (!measures.empty()) e.fields.set("measures", std::move(m));
  return e;
}

Expected direct_mc(unsigned seed) {
  cells::InverterTestbenchSpec base;
  base.dut.ptm = devices::PtmParams{};
  core::MonteCarloSpec mc;
  mc.samples = kMcSamples;
  mc.seed = seed;
  mc.threads = 1;
  const core::MonteCarloStats s = core::ptm_monte_carlo(base, mc);
  Expected e;
  const std::pair<const char*, double> fields[] = {
      {"samples", s.samples},       {"failed_samples", s.failed_samples},
      {"imax_mean", s.imax_mean},   {"imax_std", s.imax_std},
      {"imax_worst", s.imax_worst}, {"delay_mean", s.delay_mean},
      {"delay_std", s.delay_std},   {"delay_worst", s.delay_worst},
      {"fraction_below_baseline", s.fraction_below_baseline}};
  for (const auto& [name, value] : fields)
    e.fields.set(name, JsonValue::number(value));
  return e;
}

/// True when every field of `want` (recursively) equals `got`'s exactly.
bool fields_match(const JsonValue& want, const JsonValue& got) {
  if (want.is_object()) {
    if (!got.is_object()) return false;
    for (const auto& [key, value] : want.members()) {
      const JsonValue* g = got.get(key);
      if (g == nullptr || !fields_match(value, *g)) return false;
    }
    return true;
  }
  return got.dump() == want.dump();
}

/// Lifecycle and payload checks for one phase; returns failed job count.
long check_phase(const Phase& phase, const char* name,
                 const std::map<int, Expected>& netlist_expected,
                 const std::map<unsigned, Expected>& mc_expected,
                 Report& report) {
  long failed = 0;
  for (const auto& [id, t] : phase.tracks) {
    const bool ok = t.terminals == 1 && t.terminal_event == "result";
    if (!ok) ++failed;
    report.check(t.terminals == 1, std::string(name) + "_one_terminal", id);
    report.check(t.seq_ok, std::string(name) + "_contiguous_seq", id);
    if (!ok) {
      report.check(false, std::string(name) + "_job_failed",
                   id + " ended in '" + t.terminal_event + "'");
      continue;
    }
    const JsonValue result = service::json_parse(t.result_line);
    const Expected& want =
        t.kind == kMc16
            ? mc_expected.at(t.mc_seed)
            : netlist_expected.at(t.kind == kCold ? kInverter : t.kind);
    report.check(fields_match(want.fields, result),
                 std::string(name) + "_payload_matches_direct_call",
                 id + " (" + kKindName[t.kind] + ")");
  }
  return failed;
}

std::vector<double> latencies_ms(const Phase& phase, int kind = -1) {
  std::vector<double> out;
  for (const auto& [id, t] : phase.tracks) {
    if (kind < 0 || t.kind == kind)
      out.push_back(ms_between(t.due, t.terminal));
  }
  return out;
}

/// The open-loop schedule: Poisson arrivals at kOpenLoopRate over
/// `seconds`. The arrival times and kinds depend on `seed` alone; `tag`
/// only names the cold variants, so two tags give the same schedule with
/// titles no cache has seen.
std::vector<Job> open_loop_schedule(const Inputs& inputs, std::uint64_t seed,
                                    const std::string& tag, double seconds) {
  JobStream stream(inputs, seed, tag);
  std::vector<Job> schedule;
  for (double t = stream.exponential(kOpenLoopRate); t < seconds;
       t += stream.exponential(kOpenLoopRate)) {
    Job job = stream.next();
    job.due_s = t;
    schedule.push_back(std::move(job));
  }
  return schedule;
}

std::vector<double> run_ms(const Phase& phase, int kind = -1) {
  std::vector<double> out;
  for (const auto& [id, t] : phase.tracks) {
    if (kind < 0 || t.kind == kind)
      out.push_back(ms_between(t.started, t.terminal));
  }
  return out;
}

}  // namespace

Report run_service_mix(const RunConfig& config) {
  Report report;
  Inputs inputs;
  inputs.inverter = read_file(config.netlist_dir + "/softfet_inverter.sp");
  inputs.buffer = read_file(config.netlist_dir + "/buffer_chain.sp");
  inputs.bank = bank_netlist();
  {
    std::mt19937 rng(static_cast<unsigned>(derive_seed(config.seed, 5)));
    for (unsigned& s : inputs.mc_seeds)
      s = static_cast<unsigned>(rng() % 100000u) + 1u;
  }

  // Phase lengths: open loop (thread, then the same schedule in process
  // mode) and closed loop share the run's seconds; the traced run repeats
  // the thread-mode open loop on top.
  const double open_s = config.seconds * 0.35;
  const double closed_s = config.seconds * 0.3;
  const std::vector<Job> schedule =
      open_loop_schedule(inputs, derive_seed(config.seed, 3), "o", open_s);

  // Set-up: start both servers and warm them (the process server forks its
  // workers here). It is repeated for a median: three times before timing,
  // keeping the last pair, and once more after each phase on a spare pair,
  // so the median samples the whole run, not one moment of the host.
  std::vector<double> setup_ms;
  std::unique_ptr<service::Server> thread_server, process_server;
  const auto set_up = [&](std::unique_ptr<service::Server>& thread,
                          std::unique_ptr<service::Server>& process) {
    thread.reset();
    process.reset();
    const std::string rep = std::to_string(setup_ms.size());
    const auto t0 = Clock::now();
    thread = std::make_unique<service::Server>(
        server_config(service::IsolationMode::kThread));
    warm(*thread, inputs, "wt" + rep + "-");
    process = std::make_unique<service::Server>(
        server_config(service::IsolationMode::kProcess));
    warm(*process, inputs, "wp" + rep + "-");
    setup_ms.push_back(ms_since(t0));
  };
  const auto set_up_spare = [&] {
    std::unique_ptr<service::Server> thread, process;
    set_up(thread, process);
  };
  for (int rep = 0; rep < 3; ++rep) set_up(thread_server, process_server);
  const service::ServerStats warm_stats = thread_server->stats();
  const std::size_t spawned_in_setup = process_server->stats().workers_spawned;

  Tracer tracer(config.trace);
  Phase thread_phase = run_open_loop(*thread_server, schedule, "t-", false);
  const service::ServerStats thread_stats = thread_server->stats();
  set_up_spare();
  std::optional<Phase> traced_phase;
  if (config.trace) {
    // The same arrivals and kinds again, with admission timed; its cold
    // jobs get fresh titles so they miss the cache as in the first pass.
    Tracer::Span span(tracer, "service.open_loop_traced");
    traced_phase = run_open_loop(
        *thread_server,
        open_loop_schedule(inputs, derive_seed(config.seed, 3), "ot", open_s),
        "tt-", true);
  }
  Phase process_phase = run_open_loop(*process_server, schedule, "p-", false);
  const service::ServerStats process_stats = process_server->stats();
  set_up_spare();
  JobStream closed_stream(inputs, derive_seed(config.seed, 4), "c");
  Phase closed_phase =
      run_closed_loop(*thread_server, closed_stream, closed_s, "c-");
  thread_server->shutdown(false);
  process_server->shutdown(false);
  set_up_spare();

  // Expected payloads from direct library calls on the same inputs.
  std::map<int, Expected> netlist_expected;
  netlist_expected[kInverter] = direct_netlist(inputs.inverter);
  netlist_expected[kBuffer] = direct_netlist(inputs.buffer);
  netlist_expected[kBank] = direct_netlist(inputs.bank);
  std::map<unsigned, Expected> mc_expected;
  for (const unsigned s : inputs.mc_seeds) mc_expected[s] = direct_mc(s);

  const Phase* phases[] = {&thread_phase, &process_phase, &closed_phase};
  const char* phase_name[] = {"thread", "process", "closed"};
  for (int i = 0; i < 3; ++i) {
    report.attempted += static_cast<long>(phases[i]->tracks.size());
    report.failed += check_phase(*phases[i], phase_name[i], netlist_expected,
                                 mc_expected, report);
  }
  if (traced_phase) {
    report.attempted += static_cast<long>(traced_phase->tracks.size());
    report.failed += check_phase(*traced_phase, "traced", netlist_expected,
                                 mc_expected, report);
  }
  report.check(spawned_in_setup == kWorkers &&
                   process_stats.workers_spawned == kWorkers,
               "process_workers_forked_before_timing",
               std::to_string(spawned_in_setup) + " forked in set-up, " +
                   std::to_string(process_stats.workers_spawned) + " in all");
  if (!report.failed_checks.empty()) return report;

  // Exact counters: the schedule and the direct replay of each kind.
  std::size_t per_kind[kKinds] = {};
  for (const Job& job : schedule) ++per_kind[job.kind];
  for (int k = 0; k < kKinds; ++k)
    report.counters[std::string("service.schedule.") + kKindName[k]] =
        static_cast<double>(per_kind[k]);
  double accepted = 0, rejected = 0, newton = 0, events = 0;
  for (const int k : {kInverter, kBuffer, kBank}) {
    const sim::TranResult& t = netlist_expected[k].tran;
    accepted += static_cast<double>(t.accepted_steps);
    rejected += static_cast<double>(t.rejected_steps);
    newton += static_cast<double>(t.newton_iterations);
    events += static_cast<double>(t.event_count);
  }
  report.counters["sim.accepted_steps"] = accepted;
  report.counters["sim.rejected_steps"] = rejected;
  report.counters["sim.newton_iters"] = newton;
  report.counters["devices.ptm_events"] = events;

  const std::vector<double> thread_lat = latencies_ms(thread_phase);
  const std::vector<double> process_lat = latencies_ms(process_phase);
  const double jobs_per_s =
      static_cast<double>(closed_phase.tracks.size()) / closed_phase.elapsed_s;
  report.end_to_end["setup_s"] = {median(setup_ms) / 1e3, "s"};
  // The headline latencies are the warm inverter job's (the most frequent
  // kind) in each phase: the all-kind percentiles and the closed-loop rate
  // follow the queueing the assumed mix sets, not the service alone.
  const double warm_p50 = percentile(latencies_ms(thread_phase, kInverter), 0.5);
  const double proc_warm_p50 =
      percentile(latencies_ms(process_phase, kInverter), 0.5);
  const double closed_warm_p50 =
      percentile(latencies_ms(closed_phase, kInverter), 0.5);
  report.end_to_end["path_a_ms"] = {warm_p50, "ms"};
  report.end_to_end["path_b_ms"] = {proc_warm_p50, "ms"};
  report.end_to_end["path_c_ms"] = {closed_warm_p50, "ms"};
  report.notes.push_back(
      "open loop: " + std::to_string(schedule.size()) + " jobs at " +
      fmt(kOpenLoopRate) + "/s over " + fmt(open_s) + " s");
  report.notes.push_back(
      "warm_job_p50_ms = " + fmt(warm_p50) + " ms, proc_warm_job_p50_ms = " +
      fmt(proc_warm_p50) + " ms, closed_warm_job_p50_ms = " +
      fmt(closed_warm_p50) + " ms (softfet_inverter.sp)");
  report.notes.push_back("job_p50_ms = " + fmt(percentile(thread_lat, 0.5)) +
                         " ms, job_p99_ms = " +
                         fmt(percentile(thread_lat, 0.99)) + " ms");
  report.notes.push_back(
      "proc_job_p50_ms = " + fmt(percentile(process_lat, 0.5)) +
      " ms, proc_job_p99_ms = " + fmt(percentile(process_lat, 0.99)) + " ms");
  report.notes.push_back("jobs_per_s = " + fmt(jobs_per_s) + " 1/s (closed loop, " +
                         std::to_string(kWorkers) + " in flight, " +
                         std::to_string(closed_phase.tracks.size()) +
                         " jobs of the assumed mix)");

  if (!config.trace) return report;

  auto& L = report.per_layer;
  L["service.admit_us"] = {median(traced_phase->admit_us), "us"};
  std::vector<double> queue_wait;
  for (const auto& [id, t] : thread_phase.tracks)
    queue_wait.push_back(ms_between(t.accepted, t.started));
  L["service.queue_wait_p50_ms"] = {percentile(queue_wait, 0.5), "ms"};
  L["service.queue_wait_p99_ms"] = {percentile(queue_wait, 0.99), "ms"};
  for (int k = 0; k < kKinds; ++k) {
    L[std::string("service.run_ms.") + kKindName[k]] = {
        percentile(run_ms(thread_phase, k), 0.5), "ms"};
  }
  const double thread_run = percentile(run_ms(thread_phase), 0.5);
  const double process_run = percentile(run_ms(process_phase), 0.5);
  L["service.proc_run_ms"] = {process_run, "ms"};
  L["service.ipc_overhead_ms"] = {process_run - thread_run, "ms"};
  std::size_t bytes = 0;
  for (const auto& [id, t] : thread_phase.tracks) bytes += t.bytes;
  // Not exact: `accepted` events carry the queue depth at admission.
  L["service.bytes_per_job"] = {
      static_cast<double>(bytes) / static_cast<double>(thread_phase.tracks.size()),
      "bytes"};
  const std::size_t hits = thread_stats.cache.hits - warm_stats.cache.hits;
  const std::size_t lookups =
      hits + thread_stats.cache.misses - warm_stats.cache.misses;
  L["service.cache_hit_ratio"] = {
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0.0,
      "ratio"};
  L["service.job_p99_ms"] = {percentile(thread_lat, 0.99), "ms"};
  L["service.proc_job_p99_ms"] = {percentile(process_lat, 0.99), "ms"};
  L["loadgen.lag_p99_ms"] = {percentile(thread_phase.lag_ms, 0.99), "ms"};
  auto& C = report.counters;
  C["service.rejected_overloaded"] =
      static_cast<double>(thread_stats.rejected_overloaded +
                          process_stats.rejected_overloaded);
  C["service.retries"] =
      static_cast<double>(thread_stats.retries + process_stats.retries);
  C["service.failed"] =
      static_cast<double>(thread_stats.failed + process_stats.failed);
  C["service.workers_spawned"] =
      static_cast<double>(process_stats.workers_spawned);
  C["service.worker_crashes"] =
      static_cast<double>(process_stats.worker_crashes);

  // Direct replay of each job kind through the layers the service calls.
  std::vector<double> request_parse_ms;
  for (int k = 0; k < kKinds; ++k) {
    Job job;
    job.kind = static_cast<Kind>(k);
    job.text = k == kBuffer ? inputs.buffer
               : k == kBank ? inputs.bank
                            : inputs.inverter;
    job.mc_seed = inputs.mc_seeds[0];
    const std::string line = request_line("r", job);
    const auto t0 = Clock::now();
    for (int rep = 0; rep < 20; ++rep) (void)service::parse_request(line);
    request_parse_ms.push_back(ms_since(t0) / 20);
  }
  L["service.request_parse_us"] = {median(request_parse_ms) * 1e3, "us"};
  for (const int k : {kInverter, kBuffer, kBank}) {
    std::vector<double> parse, elaborate, tran, measure;
    for (int rep = 0; rep < 5; ++rep) {
      Tracer::Span span(tracer, "netlist.replay");
      const Expected e =
          direct_netlist(k == kInverter ? inputs.inverter
                         : k == kBuffer ? inputs.buffer
                                        : inputs.bank);
      parse.push_back(e.parse_ms);
      elaborate.push_back(e.elaborate_ms);
      tran.push_back(e.tran_ms);
      measure.push_back(e.measure_ms);
    }
    const std::string kind = kKindName[k];
    L["netlist.parse_us." + kind] = {median(parse) * 1e3, "us"};
    L["netlist.elaborate_us." + kind] = {median(elaborate) * 1e3, "us"};
    L["sim.tran_ms." + kind] = {median(tran), "ms"};
    if (k == kInverter) L["netlist.measure_us"] = {median(measure) * 1e3, "us"};
  }

  L["trace.overhead_pct"] = {
      (percentile(latencies_ms(*traced_phase, kInverter), 0.5) / warm_p50 -
       1.0) * 100.0,
      "%"};
  return report;
}

}  // namespace perfbench
