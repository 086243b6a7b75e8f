// Batched lockstep transient engine.
//
// Runs K sibling transients ("lanes") that share one topology shape — e.g.
// Monte-Carlo samples of the same testbench differing only in device
// parameter values — by advancing all lanes one Newton iteration per round
// and funnelling the K linear systems through one structure-of-arrays
// factor/solve (numeric::BatchDenseLu). Device evaluation stays per-lane
// (each lane owns its Circuit) and stamps into a per-lane SparseMatrix
// whose replayed stamp tape makes each load plain array adds; the numeric
// core — the dominant scalar cost — runs lane-contiguous.
//
// Each lane is a detail::TransientLane, the one transient engine that
// run_transient drives at K=1 (step control, Newton iteration and recovery
// ladder — see step_control.hpp). This engine adds only the round: lane
// packing, Jacobian scatter, the batch LU, and eviction.
//
// Determinism contract: a lane that runs to completion executes exactly the
// floating-point operation sequence of scalar run_transient on the same
// circuit, recovery ladder included, so its TranResult is bitwise identical
// to the scalar engine's. A lane whose run the batch cannot finish —
// a setup reject, a device-load throw, a stamp-pattern change, a budget
// stop, the step limit, or a failure at the minimum timestep — is instead
// *evicted*: its partial result is discarded and the caller reruns that
// sample on the scalar path, which reproduces the scalar behaviour by
// construction. One bad sample therefore never serializes or perturbs the
// other K-1 lanes.
//
// Divergence handling: lanes converge/accept/reject on their own schedules;
// each round simply packs the still-active lanes into slots [0, m) of the
// batch solver (lane masking by compaction). Finished and evicted lanes
// drop out of the rounds entirely.
#pragma once

#include <string>
#include <vector>

#include "sim/circuit.hpp"
#include "sim/options.hpp"
#include "sim/result.hpp"

namespace softfet::sim {

/// One lane of a lockstep batch: a caller-owned circuit plus its stop time.
struct BatchLaneSpec {
  Circuit* circuit = nullptr;
  double tstop = 0.0;
};

/// Per-lane outcome. When `evicted` is set the lane left the batch before
/// finishing; `tran` is meaningless and the caller must rerun the sample on
/// the scalar path (which reproduces exactly what the scalar engine would
/// have done, including its failure behaviour).
struct BatchLaneOutcome {
  TranResult tran;
  bool evicted = false;
  std::string eviction_reason;
};

/// True when `options` lets the batched engine honour its determinism
/// contract at all: numeric budget limits (wall clock, step and iteration
/// caps) force per-lane truncation the batch cannot replicate, so those
/// runs stay on the scalar engine. A cancel token alone is fine — a tripped
/// cancel evicts, and cancelled samples are never persisted by the batch
/// drivers, so observable results are unchanged.
[[nodiscard]] bool batch_transient_supported(const SimOptions& options);

/// Run all lanes to completion (or eviction) in lockstep. Lanes must share
/// the unknown count of the first lane and be dense-solver eligible;
/// offenders are evicted, not failed. Circuits are prepared and mutated
/// exactly as run_transient would (device state reflects the end of the
/// run for completed lanes).
[[nodiscard]] std::vector<BatchLaneOutcome> run_transient_batch(
    const std::vector<BatchLaneSpec>& lanes, const SimOptions& options);

}  // namespace softfet::sim
