// Batched lockstep transient engine (see batch.hpp for the contract).
//
// Implementation notes: every lane carries its own detail::StepControl — the
// same per-step controller run_transient drives (dt policy, predictor,
// event cuts, LTE, accept, dt shrink) — and the round loop advances each
// active lane exactly one Newton iteration, packing the lanes' linear
// systems into one BatchDenseLu factor/solve. The Newton update and the
// gmin shunts are the shared apply_newton_update and stamp_gmin_shunts.
// What this engine keeps for itself is the round: packing, Jacobian
// scatter, the batch LU, the relaxed device-major load plan, and eviction,
// which stands in for every outcome the scalar engine would turn into a
// recovery ladder, a budget truncation or a throw.
#include "sim/batch.hpp"

#include <algorithm>
#include <memory>
#include <typeinfo>

#include "numeric/batch_lu.hpp"
#include "numeric/linear_solver.hpp"
#include "sim/analyses.hpp"
#include "sim/detail.hpp"
#include "sim/device.hpp"
#include "sim/mna_system.hpp"
#include "sim/stamper.hpp"
#include "sim/step_control.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"

namespace softfet::sim {

namespace {

enum class LanePhase { kSolving, kDone, kEvicted };

struct Lane {
  Lane(const BatchLaneSpec& spec, const SimOptions& options,
       BatchLaneOutcome& outcome)
      : out(&outcome), step(*spec.circuit, options, spec.tstop, outcome.tran) {}

  BatchLaneOutcome* out;
  detail::StepControl step;

  numeric::SparseMatrix jacobian;
  std::vector<double> residual;
  std::vector<double> dx;

  int solve_iterations = 0;  // iterations of the solve in flight
  std::size_t slot = 0;      // batch slot in this round's solve
  LanePhase phase = LanePhase::kSolving;

  /// Stamp sink of the load in flight. Opened by begin_iteration and
  /// released by finish_load so the relaxed device-major phase can stamp
  /// into every staged lane between the two. (unique_ptr because Stamper
  /// pins references and Lane must stay movable.)
  std::unique_ptr<Stamper> stamper;
};

class BatchEngine {
 public:
  BatchEngine(const std::vector<BatchLaneSpec>& specs,
              const SimOptions& options,
              std::vector<BatchLaneOutcome>& outcomes)
      : options_(options), budget_timer_(options.budget) {
    lanes_.reserve(specs.size());
    for (std::size_t s = 0; s < specs.size(); ++s) {
      lanes_.emplace_back(specs[s], options, outcomes[s]);
    }
  }

  void run() {
    for (Lane& lane : lanes_) init_lane(lane);
    build_lane_plan();
    if (n_ > 0) {
      lu_.configure(n_, lanes_.size());
      b_.assign(n_ * lanes_.size(), 0.0);
      dx_soa_.assign(n_ * lanes_.size(), 0.0);
      ok_.assign(lanes_.size(), 0);
    }

    std::vector<Lane*> round;
    std::vector<Lane*> staged;
    round.reserve(lanes_.size());
    staged.reserve(lanes_.size());
    while (true) {
      round.clear();
      // Zero every lane column at once (cheaper than per-lane strided
      // clears); prepare_iteration stages each load in the lane's own
      // Jacobian (L1-resident) and join_round copies the live patterns
      // on top. (Stamping straight into the strided SoA cells was tried
      // and measured slower: it turns every accumulate into a scattered
      // read-modify-write in the middle of the device-model code.)
      std::fill(lu_.values(), lu_.values() + n_ * n_ * lanes_.size(), 0.0);
      if (!lane_plan_ok_) {
        // Bitwise contract (or no uniform device plan): the scalar-math
        // lane loop, untouched.
        for (Lane& lane : lanes_) {
          if (lane.phase == LanePhase::kSolving && prepare_iteration(lane)) {
            join_round(lane, round);
          }
        }
      } else {
        // Relaxed contract: open every live lane's load, evaluate the
        // devices column-major across all of them (SIMD across lanes),
        // then close out each load.
        staged.clear();
        for (Lane& lane : lanes_) {
          if (lane.phase == LanePhase::kSolving && begin_iteration(lane)) {
            staged.push_back(&lane);
          }
        }
        load_round(staged);
        for (Lane* lane : staged) {
          if (lane->phase == LanePhase::kSolving && lane->stamper &&
              finish_load(*lane)) {
            join_round(*lane, round);
          }
        }
      }
      bool any_active = false;
      for (const Lane& lane : lanes_) {
        any_active = any_active || lane.phase == LanePhase::kSolving;
      }
      if (!any_active) break;
      if (round.empty()) continue;  // all active lanes restarted their steps

      const std::size_t m = round.size();
      lu_.factor(m, ok_.data());
      lu_.solve(m, b_.data(), dx_soa_.data());
      for (Lane* lane : round) finish_iteration(*lane);
    }
  }

 private:
  void evict(Lane& lane, std::string reason) {
    lane.phase = LanePhase::kEvicted;
    lane.out->evicted = true;
    lane.out->eviction_reason = std::move(reason);
  }

  void init_lane(Lane& lane) {
    TranResult& out = lane.out->tran;
    out.diagnostics.analysis = "transient";
    out.diagnostics.determinism = to_string(options_.determinism);
    try {
      if (!(lane.step.tstop > 0.0)) {
        // run_transient throws Error here; the scalar rerun reproduces it.
        evict(lane, "non-positive tstop");
        return;
      }
      lane.step.circuit.prepare();
      const std::size_t n = lane.step.circuit.unknown_count();
      const std::size_t vu = lane.step.circuit.node_count() - 1;
      if (n_ == 0) {
        n_ = n;
        scales_ = {&options_, vu};
      }
      if (n != n_ || vu != scales_.voltage_unknowns) {
        evict(lane, "unknown count differs from batch");
        return;
      }
      if (options_.solver == numeric::SolverKind::kSparse ||
          (options_.solver == numeric::SolverKind::kAuto &&
           n > numeric::LinearSolver::kDenseThreshold)) {
        evict(lane, "not dense-solver eligible");
        return;
      }
      out.table = SignalTable(detail::signal_names(lane.step.circuit));

      lane.step.start(dc_operating_point(lane.step.circuit, options_).x);
      lane.jacobian.reset(n_);
      lane.residual.assign(n_, 0.0);
      lane.dx.assign(n_, 0.0);
      begin_step(lane);
    } catch (const Error& e) {
      // OP budget truncation, OP convergence failure, bad circuit — all
      // reproduced faithfully by the scalar rerun.
      evict(lane, std::string("setup/op: ") + e.what());
    }
  }

  /// Open the lane's next step, or retire it when StepControl says the run
  /// is over (done, or a budget/step limit the scalar engine handles).
  void begin_step(Lane& lane) {
    switch (lane.step.begin_step(budget_timer_)) {
      case detail::StepControl::Head::kSolve:
        lane.solve_iterations = 0;
        return;
      case detail::StepControl::Head::kDone:
        lane.phase = LanePhase::kDone;
        return;
      case detail::StepControl::Head::kBudgetStop:
        evict(lane, "budget stop at step head");
        return;
      case detail::StepControl::Head::kStepLimit:
        evict(lane, "step budget exhausted");
        return;
    }
  }

  /// Newton-iteration loop head (budget check, counters) through opening
  /// the lane's stamp sink. Returns false when the lane was evicted.
  bool begin_iteration(Lane& lane) {
    if (budget_timer_.check_now() != util::BudgetStop::kNone) {
      // solve_newton reports kBudgetExhausted; run_transient truncates.
      evict(lane, "budget stop in newton");
      return false;
    }
    ++lane.solve_iterations;
    ++lane.step.out.newton_iterations;

    lane.jacobian.begin_load();
    std::fill(lane.residual.begin(), lane.residual.end(), 0.0);
    lane.stamper = std::make_unique<Stamper>(lane.jacobian, lane.residual);
    return true;
  }

  /// Tail of the RHS build after the device loads: gmin shunts, tape
  /// check, finite check. Returns true when the lane should join the
  /// round's batch solve.
  bool finish_load(Lane& lane) {
    stamp_gmin_shunts(*lane.stamper, lane.step.x_new, scales_.voltage_unknowns,
                      options_.gmin);
    lane.stamper.reset();
    if (!lane.jacobian.end_load()) {
      evict(lane, "stamp pattern changed mid-run");
      return false;
    }
    if (numeric::first_non_finite(lane.residual) != numeric::kNoUnknown) {
      on_solve_failure(lane);
      return false;
    }
    return true;
  }

  /// Front half of one Newton iteration (newton.cpp's loop head through the
  /// RHS build), scalar device math. Returns true when the lane joined this
  /// round's batch solve; false when the iteration was fully handled here
  /// (failure paths and evictions — the lane may have already begun its
  /// next step).
  bool prepare_iteration(Lane& lane) {
    if (!begin_iteration(lane)) return false;
    try {
      for (const auto& device : lane.step.circuit.devices()) {
        device->load(lane.step.x_new, *lane.stamper, lane.step.ctx);
      }
    } catch (const Error& e) {
      lane.stamper.reset();
      evict(lane, std::string("device load: ") + e.what());
      return false;
    }
    return finish_load(lane);
  }

  /// Decide, once per run, whether the relaxed device-major load phase can
  /// drive the lanes: every live lane must expose the same device sequence
  /// (count and dynamic type per position — Monte-Carlo lanes are clones,
  /// so this holds). Columns whose type implements load_lanes run batched;
  /// the rest fall back to per-lane scalar loads inside load_round.
  void build_lane_plan() {
    lane_plan_ok_ = false;
    if (options_.determinism != Determinism::kRelaxedUlp) return;
    const Lane* first = nullptr;
    for (const Lane& lane : lanes_) {
      if (lane.phase == LanePhase::kSolving) {
        first = &lane;
        break;
      }
    }
    if (first == nullptr) return;
    const auto& ref = first->step.circuit.devices();
    for (const Lane& lane : lanes_) {
      if (lane.phase != LanePhase::kSolving) continue;
      if (lane.step.circuit.devices().size() != ref.size()) return;
    }
    column_batched_.assign(ref.size(), 0);
    for (std::size_t j = 0; j < ref.size(); ++j) {
      bool batched = ref[j]->supports_lane_load();
      if (batched) {
        const std::type_info& type = typeid(*ref[j]);
        for (const Lane& lane : lanes_) {
          if (lane.phase != LanePhase::kSolving) continue;
          if (typeid(*lane.step.circuit.devices()[j]) != type) {
            batched = false;
            break;
          }
        }
      }
      column_batched_[j] = batched ? 1 : 0;
    }
    lane_plan_ok_ = true;
  }

  /// Device-major load phase of one relaxed round: column j of every
  /// staged lane is evaluated together — batched through load_lanes when
  /// the column supports it, per-lane scalar otherwise.
  void load_round(std::vector<Lane*>& staged) {
    if (staged.empty()) return;
    for (std::size_t j = 0; j < column_batched_.size(); ++j) {
      live_.clear();
      peers_.clear();
      views_.clear();
      for (Lane* lane : staged) {
        if (lane->phase != LanePhase::kSolving || !lane->stamper) continue;
        live_.push_back(lane);
        peers_.push_back(lane->step.circuit.devices()[j].get());
        views_.push_back(
            {&lane->step.x_new, lane->stamper.get(), &lane->step.ctx});
      }
      if (live_.empty()) return;
      if (column_batched_[j] != 0) {
        try {
          peers_[0]->load_lanes(peers_.data(), views_.data(), peers_.size());
        } catch (const Error& e) {
          // A batched evaluation cannot attribute the throw to one lane;
          // hand every staged lane back to the scalar engine.
          for (Lane* lane : live_) {
            lane->stamper.reset();
            evict(*lane, std::string("device load (batched): ") + e.what());
          }
          return;
        }
      } else {
        for (std::size_t i = 0; i < live_.size(); ++i) {
          try {
            peers_[i]->load(*views_[i].x, *views_[i].stamper, *views_[i].ctx);
          } catch (const Error& e) {
            live_[i]->stamper.reset();
            evict(*live_[i], std::string("device load: ") + e.what());
          }
        }
      }
    }
  }

  /// Give the lane the round's next batch slot and copy its staged load
  /// (the lane Jacobian's rows) into that SoA column and RHS.
  void join_round(Lane& lane, std::vector<Lane*>& round) {
    lane.slot = round.size();
    round.push_back(&lane);
    const std::size_t L = lanes_.size();
    double* lu = lu_.values();
    for (std::size_t r = 0; r < n_; ++r) {
      for (const auto& [c, v] : lane.jacobian.row(r)) {
        lu[(r * n_ + c) * L + lane.slot] = v;
      }
    }
    for (std::size_t i = 0; i < n_; ++i) {
      b_[i * L + lane.slot] = -lane.residual[i];
    }
  }

  /// Back half of one Newton iteration (update, convergence test) plus the
  /// step-completion logic when the solve ended this round.
  void finish_iteration(Lane& lane) {
    const std::size_t L = lanes_.size();
    if (ok_[lane.slot] == 0) {
      // DenseLu would have thrown SingularMatrixError -> kSingularMatrix.
      on_solve_failure(lane);
      return;
    }
    for (std::size_t i = 0; i < n_; ++i) {
      lane.dx[i] = dx_soa_[i * L + lane.slot];
    }
    if (numeric::first_non_finite(lane.dx) != numeric::kNoUnknown) {
      on_solve_failure(lane);
      return;
    }
    if (numeric::apply_newton_update(lane.step.x_new, lane.dx,
                                     options_.reltol, scales_)) {
      lane.step.on_solve_converged(lane.solve_iterations, false);
      begin_step(lane);
      return;
    }
    if (lane.solve_iterations >= options_.newton_max_iter) {
      on_solve_failure(lane);  // kMaxIterations
    }
    // Otherwise: the solve continues next round with the updated iterate.
  }

  /// A failed solve. Budget exhaustion inside a solve is handled at
  /// begin_iteration; every outcome that would climb the scalar recovery
  /// ladder, truncate or throw evicts the lane instead.
  void on_solve_failure(Lane& lane) {
    switch (lane.step.on_solve_failure(budget_timer_)) {
      case detail::StepControl::Failure::kRetry:
        begin_step(lane);
        return;
      case detail::StepControl::Failure::kLadder:
        evict(lane, "recovery ladder triggered");
        return;
      case detail::StepControl::Failure::kTruncate:
        evict(lane, "budget stop after failed solve");
        return;
      case detail::StepControl::Failure::kAtMin:
        // Ladder disabled: run_transient throws ConvergenceError at dtmin.
        evict(lane, "newton failed at minimum timestep");
        return;
    }
  }

  const SimOptions& options_;
  util::BudgetTimer budget_timer_;
  std::vector<Lane> lanes_;
  std::size_t n_ = 0;
  MnaScales scales_;
  numeric::BatchDenseLu lu_;
  std::vector<double> b_;
  std::vector<double> dx_soa_;
  std::vector<std::uint8_t> ok_;

  // Relaxed device-major plan (build_lane_plan) and per-round scratch.
  bool lane_plan_ok_ = false;
  std::vector<std::uint8_t> column_batched_;
  std::vector<Lane*> live_;
  std::vector<Device*> peers_;
  std::vector<LaneLoadView> views_;
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
