// Fault-injection harness for solver-robustness tests.
//
// FaultDevice is a circuit element that behaves as a harmless fixture until
// its scheduled window, then sabotages the solve in a controlled way:
//
//  - kNanResidual:  stamps NaN into its node's KCL residual,
//  - kNanJacobian:  stamps NaN into the Jacobian diagonal,
//  - kSingularRow:  claims a branch unknown and stamps nothing, producing a
//                   structurally zero (singular) matrix row,
//  - kEventStorm:   reports a discrete event every `storm_dt`, forcing the
//                   engine through a dense burst of step cuts.
//
// Hard faults — the process-isolation soak's ammunition. These do NOT
// throw; they take the whole process down (or hang it), which is exactly
// what a sandboxed worker must contain and a threaded server cannot:
//
//  - kCrashAbort:     calls std::abort() (SIGABRT),
//  - kCrashNullDeref: writes through a null pointer (SIGSEGV),
//  - kAllocBomb:      allocates and touches memory until the allocator
//                     gives out — run ONLY under an RLIMIT_AS sandbox,
//                     where it degrades to std::bad_alloc / OOM-kill of
//                     the worker instead of the host,
//  - kInfiniteLoop:   spins forever on a volatile counter (never yields,
//                     never checks the cancel token).
//
// `fault_budget` counts sabotaged solves (one Newton solve fails per
// injection, because non-finite stamps abort the very first iteration);
// after the budget is spent the device turns harmless again. That makes the
// recovery ladder deterministic to test: with recovery_escalate_after = 1,
// a budget of 1 is cured by the predictor-reset rung, 2 by the gmin ramp,
// 3 by the source ramp, and an unlimited budget (-1) proves the final
// diagnostics-carrying throw.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "devices/capacitor.hpp"
#include "devices/resistor.hpp"
#include "devices/sources.hpp"
#include "sim/circuit.hpp"
#include "sim/device.hpp"
#include "util/strings.hpp"

namespace softfet::testing {

enum class FaultMode {
  kNanResidual,
  kNanJacobian,
  kSingularRow,
  kEventStorm,
  kCrashAbort,
  kCrashNullDeref,
  kAllocBomb,
  kInfiniteLoop,
};

namespace detail {

/// Out-of-line null write so the optimizer cannot prove UB and elide it.
/// Both qualifiers matter: the volatile *pointer* forces the read of p,
/// and the volatile *pointee* makes the store itself an observable access
/// (GCC at -O2 happily deletes a plain store through a just-read null
/// pointer — UB grants it that). → SIGSEGV.
[[gnu::noinline]] inline void null_deref() {
  volatile int* volatile p = nullptr;
  *p = 42;
}

/// Allocate-and-touch until the allocator fails. Touching every page
/// defeats overcommit: the address space (or physical memory) is genuinely
/// consumed, so under RLIMIT_AS this throws std::bad_alloc at the cap —
/// or, when nothing catches in time, ends in worker death by OOM. The
/// hoard is released before rethrowing so a worker that survives via the
/// exception path is not left wedged against its own rlimit.
[[gnu::noinline]] inline void alloc_bomb() {
  std::vector<char*> hoard;
  constexpr std::size_t kChunk = 16u << 20;
  try {
    for (;;) {
      char* chunk = new char[kChunk];
      for (std::size_t i = 0; i < kChunk; i += 4096) chunk[i] = 1;
      hoard.push_back(chunk);
    }
  } catch (...) {
    for (char* chunk : hoard) delete[] chunk;
    throw;
  }
}

[[gnu::noinline]] inline void infinite_loop() {
  volatile std::uint64_t spin = 0;
  for (;;) spin = spin + 1;
}

}  // namespace detail

class FaultDevice final : public sim::Device {
 public:
  /// Faults are armed for solves whose end-of-step time lies in
  /// [t_start, t_end]; `fault_budget` < 0 means unlimited. For kEventStorm,
  /// `storm_dt` is the event spacing inside the window.
  FaultDevice(std::string name, sim::NodeId node, FaultMode mode,
              double t_start, double t_end, int fault_budget = -1,
              double storm_dt = 1e-12)
      : Device(std::move(name)),
        node_(node),
        mode_(mode),
        t_start_(t_start),
        t_end_(t_end),
        fault_budget_(fault_budget),
        storm_dt_(storm_dt) {}

  void setup(sim::Circuit& circuit) override {
    unknown_ = circuit.node_unknown(node_);
    if (mode_ == FaultMode::kSingularRow) {
      branch_ = circuit.claim_branch_unknown("i(" + util::to_lower(name()) +
                                             ")");
    }
  }

  void load(const std::vector<double>& x, sim::Stamper& stamper,
            const sim::LoadContext& ctx) override {
    const bool armed = in_window(ctx.time) && budget_left();
    switch (mode_) {
      case FaultMode::kNanResidual:
        if (armed) {
          ++injected_;
          stamper.add_residual(unknown_,
                               std::numeric_limits<double>::quiet_NaN());
        }
        break;
      case FaultMode::kNanJacobian:
        // Disarmed, the same entry gets an exact zero: the stamp pattern
        // stays value-independent, as a real device's is, so the batched
        // engine's replay tape sees the NaN instead of a pattern change.
        if (armed) ++injected_;
        stamper.add_jacobian(
            unknown_, unknown_,
            armed ? std::numeric_limits<double>::quiet_NaN() : 0.0);
        break;
      case FaultMode::kSingularRow:
        if (armed) {
          // Stamp nothing: the claimed branch row stays all-zero, so the
          // LU factorization hits a vanishing pivot at that column.
          ++injected_;
        } else {
          // Harmless self-consistent branch: i_branch = 0.
          stamper.add_residual(branch_, x[static_cast<std::size_t>(branch_)]);
          stamper.add_jacobian(branch_, branch_, 1.0);
        }
        break;
      case FaultMode::kEventStorm:
        break;  // sabotage happens via event_time, not stamps
      case FaultMode::kCrashAbort:
        if (armed) {
          ++injected_;
          std::abort();
        }
        break;
      case FaultMode::kCrashNullDeref:
        if (armed) {
          ++injected_;
          detail::null_deref();
        }
        break;
      case FaultMode::kAllocBomb:
        if (armed) {
          ++injected_;
          detail::alloc_bomb();
        }
        break;
      case FaultMode::kInfiniteLoop:
        if (armed) {
          ++injected_;
          detail::infinite_loop();
        }
        break;
    }
  }

  double event_time(const std::vector<double>& /*x*/, double t_start,
                    double t_end) const override {
    if (mode_ != FaultMode::kEventStorm) return sim::kNeverTime;
    if (t_end < t_start_ || t_start > t_end_) return sim::kNeverTime;
    // Boundary hits (next == t_end) count as events; interior hits force a
    // step cut. Either way the engine is driven at storm_dt resolution.
    const double next = t_start + storm_dt_;
    return next <= t_end ? next : sim::kNeverTime;
  }

  /// Solves actually sabotaged so far.
  [[nodiscard]] int injections() const noexcept { return injected_; }

 private:
  [[nodiscard]] bool in_window(double time) const noexcept {
    return time >= t_start_ && time <= t_end_;
  }
  [[nodiscard]] bool budget_left() const noexcept {
    return fault_budget_ < 0 || injected_ < fault_budget_;
  }

  sim::NodeId node_;
  FaultMode mode_;
  double t_start_;
  double t_end_;
  int fault_budget_;
  double storm_dt_;
  int unknown_ = sim::kGround;
  int branch_ = sim::kGround;
  int injected_ = 0;
};

/// Ramp-driven RC bench with a FaultDevice attached to the output node
/// (named `out_name`). The input ramps 0 -> 1 V between 100 ps and 130 ps;
/// faults are armed in [200 ps, 1 ns] unless the caller overrides the
/// window (a window holding t = 0 arms them for DC solves).
struct FaultBench {
  sim::Circuit circuit;
  FaultDevice* fault = nullptr;
};

inline FaultBench make_fault_bench(FaultMode mode, int budget,
                                   double t_start = 200e-12,
                                   double t_end = 1e-9,
                                   double storm_dt = 10e-12,
                                   const std::string& out_name = "out") {
  namespace sd = devices;
  FaultBench bench;
  auto& c = bench.circuit;
  const auto in = c.node("in");
  const auto out = c.node(out_name);
  c.add<sd::VSource>("Vin", in, sim::kGroundNode,
                     sd::SourceSpec::ramp(0.0, 1.0, 100e-12, 30e-12));
  c.add<sd::Resistor>("R1", in, out, 1e3);
  c.add<sd::Capacitor>("C1", out, sim::kGroundNode, 1e-15);
  bench.fault =
      c.add<FaultDevice>("FLT1", out, mode, t_start, t_end, budget, storm_dt);
  return bench;
}

}  // namespace softfet::testing
