// Batched lockstep transient engine (see batch.hpp for the contract).
//
// Every lane is a detail::TransientLane — the same engine run_transient
// drives at K=1, step control, Newton iteration and recovery ladder
// included. What this file keeps is what only a batch needs: the round
// (each live lane advances one Newton iteration), the scatter of the lanes'
// Jacobians into one BatchDenseLu factor/solve, and eviction of the lanes
// whose run the batch cannot finish.
#include "sim/batch.hpp"

#include <algorithm>
#include <deque>

#include "numeric/batch_lu.hpp"
#include "numeric/linear_solver.hpp"
#include "sim/analyses.hpp"
#include "sim/detail.hpp"
#include "sim/step_control.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"

namespace softfet::sim {

namespace {

using Lane = detail::TransientLane;

class BatchEngine {
 public:
  BatchEngine(const std::vector<BatchLaneSpec>& specs,
              const SimOptions& options,
              std::vector<BatchLaneOutcome>& outcomes)
      : options_(options), budget_timer_(options.budget), outcomes_(outcomes) {
    for (std::size_t s = 0; s < specs.size(); ++s) {
      lanes_.emplace_back(*specs[s].circuit, options, specs[s].tstop,
                          outcomes[s].tran, budget_timer_);
    }
  }

  void run() {
    for (std::size_t k = 0; k < lanes_.size(); ++k) init_lane(k);
    if (n_ > 0) {
      lu_.configure(n_, lanes_.size());
      b_.assign(n_ * lanes_.size(), 0.0);
      dx_soa_.assign(n_ * lanes_.size(), 0.0);
      ok_.assign(lanes_.size(), 0);
    }

    std::vector<std::size_t> round;
    round.reserve(lanes_.size());
    while (true) {
      round.clear();
      // Zero every lane column at once (cheaper than per-lane strided
      // clears); each lane stages its load in its own Jacobian
      // (L1-resident) and join_round copies the live patterns on top.
      // (Stamping straight into the strided SoA cells was tried and
      // measured slower: it turns every accumulate into a scattered
      // read-modify-write in the middle of the device-model code.)
      std::fill(lu_.values(), lu_.values() + n_ * n_ * lanes_.size(), 0.0);
      for (std::size_t k = 0; k < lanes_.size(); ++k) {
        if (open(k) && load(k) && close(k)) join_round(k, round);
      }
      bool any_active = false;
      for (std::size_t k = 0; k < lanes_.size(); ++k) {
        any_active = any_active || active(k);
      }
      if (!any_active) break;
      if (round.empty()) continue;  // every live lane's solve failed

      const std::size_t m = round.size();
      lu_.factor(m, ok_.data());
      lu_.solve(m, b_.data(), dx_soa_.data());
      for (std::size_t slot = 0; slot < m; ++slot) finish(round[slot], slot);
    }

    // A run that stopped short (budget, step limit, failure at the minimum
    // dt) goes back to the caller's scalar rerun, which reports it.
    for (std::size_t k = 0; k < lanes_.size(); ++k) {
      if (!outcomes_[k].evicted && lanes_[k].state() != Lane::State::kDone) {
        evict(k, lanes_[k].failure());
      }
    }
  }

 private:
  void evict(std::size_t k, std::string reason) {
    outcomes_[k].evicted = true;
    outcomes_[k].eviction_reason = std::move(reason);
  }

  [[nodiscard]] bool active(std::size_t k) const {
    return !outcomes_[k].evicted && lanes_[k].state() == Lane::State::kSolving;
  }

  void init_lane(std::size_t k) {
    Lane& lane = lanes_[k];
    TranResult& out = outcomes_[k].tran;
    out.diagnostics.analysis = "transient";
    out.diagnostics.determinism = to_string(options_.determinism);
    try {
      if (!(lane.tstop > 0.0)) {
        // run_transient throws Error here; the scalar rerun reproduces it.
        evict(k, "non-positive tstop");
        return;
      }
      lane.circuit.prepare();
      const std::size_t n = lane.circuit.unknown_count();
      if (n_ == 0) n_ = n;
      if (n != n_) {
        evict(k, "unknown count differs from batch");
        return;
      }
      if (options_.solver == numeric::SolverKind::kSparse ||
          (options_.solver == numeric::SolverKind::kAuto &&
           n > numeric::LinearSolver::kDenseThreshold)) {
        evict(k, "not dense-solver eligible");
        return;
      }
      out.table = SignalTable(detail::signal_names(lane.circuit));
      lane.start(dc_operating_point(lane.circuit, options_).x);
    } catch (const Error& e) {
      // OP budget truncation, OP convergence failure, bad circuit — all
      // reproduced faithfully by the scalar rerun.
      evict(k, std::string("setup/op: ") + e.what());
    }
  }

  /// Open lane k's next Newton iteration; false when it is out of the
  /// batch or its run has ended.
  bool open(std::size_t k) {
    return !outcomes_[k].evicted && lanes_[k].begin_iteration();
  }

  /// Lane k's device loads with scalar math; a throw evicts the lane.
  bool load(std::size_t k) {
    try {
      lanes_[k].load_devices();
    } catch (const Error& e) {
      evict(k, std::string("device load: ") + e.what());
      return false;
    }
    return true;
  }

  /// Close lane k's load. True when it joins the round's batch solve;
  /// false when it left the batch or its solve failed on a non-finite
  /// residual (the lane has already moved on).
  bool close(std::size_t k) {
    if (!lanes_[k].end_load()) {
      evict(k, "stamp pattern changed mid-run");
      return false;
    }
    return lanes_[k].residual_finite();
  }

  /// Give lane k the round's next batch slot and copy its staged load
  /// (the lane Jacobian's rows) into that SoA column and RHS.
  void join_round(std::size_t k, std::vector<std::size_t>& round) {
    const std::size_t slot = round.size();
    round.push_back(k);
    const std::size_t L = lanes_.size();
    const Lane& lane = lanes_[k];
    double* lu = lu_.values();
    for (std::size_t r = 0; r < n_; ++r) {
      for (const auto& [c, v] : lane.jacobian.row(r)) {
        lu[(r * n_ + c) * L + slot] = v;
      }
    }
    for (std::size_t i = 0; i < n_; ++i) {
      b_[i * L + slot] = -lane.residual[i];
    }
  }

  /// Hand lane k its slot's solution: the back half of its iteration.
  void finish(std::size_t k, std::size_t slot) {
    Lane& lane = lanes_[k];
    if (ok_[slot] == 0) {
      lane.solve_failed();  // where DenseLu throws SingularMatrixError
      return;
    }
    const std::size_t L = lanes_.size();
    for (std::size_t i = 0; i < n_; ++i) lane.dx[i] = dx_soa_[i * L + slot];
    lane.update();
  }

  const SimOptions& options_;
  util::BudgetTimer budget_timer_;
  std::vector<BatchLaneOutcome>& outcomes_;
  std::deque<Lane> lanes_;  // lanes pin their own stamp sinks: never moved
  std::size_t n_ = 0;
  numeric::BatchDenseLu lu_;
  std::vector<double> b_;
  std::vector<double> dx_soa_;
  std::vector<std::uint8_t> ok_;
};

}  // namespace

bool batch_transient_supported(const SimOptions& options) {
  const util::RunBudget& budget = options.budget;
  return budget.max_wall_seconds <= 0.0 && budget.max_accepted_steps == 0 &&
         budget.max_newton_iterations == 0;
}

std::vector<BatchLaneOutcome> run_transient_batch(
    const std::vector<BatchLaneSpec>& lanes, const SimOptions& options) {
  std::vector<BatchLaneOutcome> outcomes(lanes.size());
  if (lanes.empty()) return outcomes;
  BatchEngine engine(lanes, options, outcomes);
  engine.run();
  return outcomes;
}

}  // namespace softfet::sim
