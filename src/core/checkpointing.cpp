#include "core/checkpointing.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "sim/batch.hpp"
#include "util/checkpoint.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace softfet::core {

std::string tag_for_mode(std::string tag, sim::Determinism mode) {
  if (mode == sim::Determinism::kRelaxedUlp) tag += " det=relaxed";
  return tag;
}

util::Checkpoint load_checkpoint_for_mode(const std::string& path,
                                          const std::string& tag,
                                          sim::Determinism mode,
                                          std::size_t total) {
  try {
    return util::Checkpoint::load_or_create(path, tag_for_mode(tag, mode),
                                            total);
  } catch (const Error& e) {
    // If the mismatch disappears under the other mode's tag, the file is
    // from the same study but the opposite rounding regime: diagnose the
    // mode clash instead of the generic "different batch" refusal.
    const auto other = mode == sim::Determinism::kRelaxedUlp
                           ? sim::Determinism::kBitwise
                           : sim::Determinism::kRelaxedUlp;
    try {
      (void)util::Checkpoint::load_or_create(path, tag_for_mode(tag, other),
                                             total);
    } catch (const Error&) {
      throw e;  // genuinely a different study
    }
    throw Error(
        "checkpoint '" + path + "' was written under determinism mode '" +
        sim::to_string(other) + "' but this run uses '" +
        sim::to_string(mode) +
        "'; resuming across modes would mix rounding regimes -- rerun with "
        "determinism=" +
        sim::to_string(other) + " or delete the file to start over");
  }
}

std::string encode_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

double decode_double(const std::string& token) {
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') {
    throw Error("checkpoint: malformed double token '" + token + "'");
  }
  return value;
}

std::string encode_failure(const FailureRecord& failure) {
  return std::to_string(failure.retried ? 1 : 0) + ' ' +
         std::to_string(static_cast<int>(failure.budget_stop)) + ' ' +
         util::escape_field(failure.context) + ' ' +
         util::escape_field(failure.message);
}

std::string encode_metrics(const TransitionMetrics& metrics) {
  return encode_double(metrics.i_max) + ' ' + encode_double(metrics.max_didt) +
         ' ' + encode_double(metrics.delay) + ' ' +
         encode_double(metrics.output_transition) + ' ' +
         encode_double(metrics.q_short) + ' ' +
         encode_double(metrics.q_output) + ' ' + encode_double(metrics.energy) +
         ' ' + std::to_string(metrics.imt_count) + ' ' +
         std::to_string(metrics.mit_count);
}

TransitionMetrics decode_metrics(const std::string& tail) {
  std::istringstream in(tail);
  std::string i_max, max_didt, delay, output_transition, q_short, q_output,
      energy;
  TransitionMetrics metrics;
  if (!(in >> i_max >> max_didt >> delay >> output_transition >> q_short >>
        q_output >> energy >> metrics.imt_count >> metrics.mit_count)) {
    throw Error("checkpoint: malformed metrics payload '" + tail + "'");
  }
  metrics.i_max = decode_double(i_max);
  metrics.max_didt = decode_double(max_didt);
  metrics.delay = decode_double(delay);
  metrics.output_transition = decode_double(output_transition);
  metrics.q_short = decode_double(q_short);
  metrics.q_output = decode_double(q_output);
  metrics.energy = decode_double(energy);
  return metrics;
}

FailureRecord decode_failure(std::size_t index, const std::string& tail) {
  std::istringstream in(tail);
  int retried = 0;
  int stop = 0;
  std::string context;
  std::string message;
  if (!(in >> retried >> stop >> context >> message) || stop < 0 ||
      stop > static_cast<int>(util::BudgetStop::kOutputBytes)) {
    throw Error("checkpoint: malformed failure payload '" + tail + "'");
  }
  FailureRecord failure;
  failure.index = index;
  failure.retried = retried != 0;
  failure.budget_stop = static_cast<util::BudgetStop>(stop);
  failure.context = util::unescape_field(context);
  failure.message = util::unescape_field(message);
  return failure;
}

std::vector<std::optional<FailureRecord>> run_points(
    const PointStudy& study, const CheckpointSpec& checkpoint_spec,
    const sim::SimOptions& options) {
  const std::size_t count = study.points;
  const bool has_baseline = static_cast<bool>(study.baseline);
  const std::size_t first_slot = has_baseline ? 1 : 0;
  std::vector<std::optional<FailureRecord>> failures(count);

  const bool use_checkpoint = checkpoint_spec.enabled();
  util::Checkpoint checkpoint;
  bool baseline_done = false;
  std::vector<char> done(count, 0);
  if (use_checkpoint) {
    // The tag also pins the determinism mode; a strict<->relaxed resume is
    // refused with a mode-specific error instead of mixing contracts.
    checkpoint = load_checkpoint_for_mode(checkpoint_spec.path, study.tag,
                                          options.determinism,
                                          count + first_slot);
    const auto malformed = [&](std::size_t slot, const std::string& payload) {
      return Error("checkpoint '" + checkpoint_spec.path + "': slot " +
                   std::to_string(slot) + " has malformed payload '" +
                   payload + "'");
    };
    if (has_baseline) {
      if (const auto payload = checkpoint.payload(0)) {
        if (!study.restore_baseline(*payload)) throw malformed(0, *payload);
        baseline_done = true;
      }
    }
    for (std::size_t i = 0; i < count; ++i) {
      const auto payload = checkpoint.payload(i + first_slot);
      if (!payload.has_value()) continue;
      std::istringstream in(*payload);
      std::string keyword, tail;
      in >> keyword;
      std::getline(in, tail);
      if (!tail.empty() && tail.front() == ' ') tail.erase(0, 1);
      if (keyword == "ok") {
        if (!study.restore(i, tail)) throw malformed(i + first_slot, *payload);
      } else if (keyword == "fail") {
        failures[i] = decode_failure(i, tail);
      } else {
        throw malformed(i + first_slot, *payload);
      }
      done[i] = 1;
    }
  }

  std::atomic<int> completions_since_flush{0};
  const auto note_done = [&](std::size_t slot, std::string payload) {
    if (!use_checkpoint) return;
    checkpoint.record(slot, std::move(payload));
    const int fresh = completions_since_flush.fetch_add(1) + 1;
    if (fresh >= std::max(checkpoint_spec.flush_every, 1)) {
      completions_since_flush.store(0);
      checkpoint.save(checkpoint_spec.path);
    }
  };

  // The scalar oracle for one point; its behaviour — isolation retries and
  // failure records included — is what every batched lane must reproduce.
  const auto run_scalar = [&](std::size_t i) {
    std::string ok;
    failures[i] = run_isolated(
        i, study.label(i), options, [&](const sim::SimOptions& opts) {
          ok = study.keep(i, characterize_inverter(study.make_spec(i), opts));
        });
    if (!failures[i].has_value()) {
      note_done(i + first_slot, "ok " + ok);
    } else if (!failures[i]->cancelled()) {
      // Real failures (incl. per-point budget timeouts) persist so resume
      // does not redo them; cancel-poisoned slots must rerun instead.
      note_done(i + first_slot, "fail " + encode_failure(*failures[i]));
    }
  };

  // Resolve the lane knob: 0 = auto, 8 lanes (wider only grows the working
  // set). Budgeted runs (wall-clock/step caps) stay scalar because the
  // batch cannot replicate per-lane truncation.
  constexpr int kAutoLanes = 8;
  const int knob = study.lanes == 0 ? kAutoLanes : std::max(study.lanes, 1);
  const std::size_t width =
      knob > 1 && sim::batch_transient_supported(options)
          ? static_cast<std::size_t>(knob)
          : 1;

  // One block of consecutive points. Open points become lanes of one batch;
  // a point without a valid spec runs scalar at once, and every lane the
  // batch cannot finish (eviction, failure, cancel) reruns scalar after it.
  const auto run_block = [&](std::size_t begin, std::size_t end) {
    if (width == 1) {
      if (done[begin] == 0) run_scalar(begin);
      return;
    }
    std::vector<std::size_t> lane_points;
    std::vector<cells::InverterTestbenchSpec> lane_specs;
    lane_points.reserve(end - begin);
    lane_specs.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      if (done[i] != 0) continue;
      try {
        lane_specs.push_back(study.make_spec(i));
      } catch (const Error&) {
        run_scalar(i);  // reproduces the spec error verbatim
        continue;
      }
      lane_points.push_back(i);
    }
    if (lane_specs.empty()) return;
    auto lane_results = characterize_inverter_batch(lane_specs, options);
    for (std::size_t j = 0; j < lane_results.size(); ++j) {
      const std::size_t i = lane_points[j];
      if (lane_results[j].has_value()) {
        note_done(i + first_slot,
                  "ok " + study.keep(i, std::move(*lane_results[j])));
      } else {
        run_scalar(i);
      }
    }
  };

  // Task 0 is the baseline when there is one; the rest are fixed spans of
  // point indices, so a restart only pays for unfinished points.
  const std::size_t blocks = (count + width - 1) / width;
  util::parallel_for(
      first_slot + blocks,
      [&](std::size_t task) {
        if (task < first_slot) {
          if (!baseline_done) note_done(0, study.baseline());
          return;
        }
        const std::size_t begin = (task - first_slot) * width;
        run_block(begin, std::min(begin + width, count));
      },
      study.threads, options.budget.cancel);

  // A cancel leaves poisoned failure slots (and unclaimed points). Clear
  // the poisoned ones — they were never really attempted — then flush and
  // surface the cancel: partial results would mislead.
  bool cancelled = options.budget.cancel != nullptr &&
                   options.budget.cancel->requested();
  for (auto& slot : failures) {
    if (slot.has_value() && slot->cancelled()) {
      slot.reset();
      cancelled = true;
    }
  }
  if (cancelled) {
    std::string message = std::string(study.who) + ": cancelled";
    if (use_checkpoint) {
      checkpoint.save(checkpoint_spec.path);
      message += " with " + std::to_string(checkpoint.completed()) + "/" +
                 std::to_string(checkpoint.total()) +
                 " points checkpointed; rerun against '" +
                 checkpoint_spec.path + "' to resume";
    }
    throw BudgetExceededError(message, util::BudgetStop::kCancel);
  }
  if (use_checkpoint) checkpoint.save(checkpoint_spec.path);
  return failures;
}

}  // namespace softfet::core
