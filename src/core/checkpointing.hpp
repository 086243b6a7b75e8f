// The resumable point driver shared by the batch studies (run_points: Monte
// Carlo and the V_IMT x V_MIT design space), and the checkpoint payload
// codec it uses: bitwise-exact double encoding plus FailureRecord
// round-tripping.
//
// Payloads use C hexfloat ("%a") for every double so a resumed run decodes
// exactly the bits the interrupted run computed — resume is bitwise
// identical to an uninterrupted run, not merely close. FailureRecords keep
// index/context/message/retried/budget_stop across the round trip; the
// structured SolverDiagnostics are summarized into the message and not
// persisted (re-running the point is the way to regenerate them).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/characterize.hpp"
#include "core/failure.hpp"
#include "sim/options.hpp"
#include "util/checkpoint.hpp"

namespace softfet::core {

/// Where (and how often) a batch driver persists completed-point slots.
/// An empty path disables checkpointing entirely.
struct CheckpointSpec {
  std::string path;     ///< checkpoint file (atomic tmp+rename saves)
  int flush_every = 16; ///< save after this many newly completed points

  [[nodiscard]] bool enabled() const noexcept { return !path.empty(); }
};

/// Append the determinism-mode marker to a checkpoint tag. kBitwise leaves
/// the tag untouched so every checkpoint written before the mode existed
/// stays resumable; kRelaxedUlp appends " det=relaxed" so a file is pinned
/// to the contract it was written under and strict<->relaxed mixing is
/// structurally impossible.
[[nodiscard]] std::string tag_for_mode(std::string tag, sim::Determinism mode);

/// util::Checkpoint::load_or_create with determinism-mode tagging: the tag
/// is suffixed via tag_for_mode(), and a tag mismatch caused purely by the
/// mode marker is rethrown as a clear "written under a different determinism
/// mode" error instead of the generic different-batch refusal.
[[nodiscard]] util::Checkpoint load_checkpoint_for_mode(
    const std::string& path, const std::string& tag, sim::Determinism mode,
    std::size_t total);

/// Bitwise-exact double -> token ("%a" hexfloat; round-trips -0.0/inf/nan).
[[nodiscard]] std::string encode_double(double value);
/// Inverse of encode_double; throws softfet::Error on a malformed token.
[[nodiscard]] double decode_double(const std::string& token);

/// FailureRecord -> payload tail (the tokens after a leading "fail"
/// keyword): "<retried> <budget_stop> <context> <message>" with the string
/// fields percent-escaped.
[[nodiscard]] std::string encode_failure(const FailureRecord& failure);
/// Inverse of encode_failure; `index` restores the batch position (it is
/// implied by the slot, not stored in the payload).
[[nodiscard]] FailureRecord decode_failure(std::size_t index,
                                           const std::string& tail);

/// One checkpointed batch study as run_points() sees it: everything the
/// study owns, while the driver owns the loop. Point i is characterized from
/// make_spec(i); its checkpoint slot is i, or i + 1 when a baseline takes
/// slot 0.
struct PointStudy {
  const char* who = "";   ///< study name, prefixes the cancel message
  std::string tag;        ///< checkpoint tag, before the determinism marker
  std::size_t points = 0;
  /// Lane width: 0 = auto (8 lanes), 1 = the scalar oracle, K > 1 = K-lane
  /// blocks. Options the batch engine does not support run scalar.
  int lanes = 0;
  std::size_t threads = 0;  ///< parallel_for workers, 0 = all hardware
  /// Point i's spec. Throws softfet::Error when the point has no valid spec
  /// (an impossible draw); the driver then runs it on the scalar path, where
  /// the same throw is recorded as the point's failure.
  std::function<cells::InverterTestbenchSpec(std::size_t)> make_spec;
  /// FailureRecord::context of point i.
  std::function<std::string(std::size_t)> label;
  /// Store point i's metrics; returns the payload tail after "ok ".
  std::function<std::string(std::size_t, TransitionMetrics&&)> keep;
  /// Restore point i from a checkpointed "ok" tail; false = malformed.
  std::function<bool(std::size_t, const std::string&)> restore;
  /// Optional unisolated task 0 / slot 0 ahead of the points: `baseline`
  /// runs it and returns its payload, `restore_baseline` decodes a
  /// checkpointed one (false = malformed).
  std::function<std::string()> baseline{};
  std::function<bool(const std::string&)> restore_baseline{};
};

/// Run every point of `study` and return its failure slots (nullopt = the
/// point completed and went through `keep` or `restore`).
///
/// Scheduling: one parallel_for whose tasks are the baseline (if any), then
/// fixed blocks of lane-width consecutive points; at width 1 a block is one
/// point on the scalar path. A batched block characterizes its open points
/// as lanes of characterize_inverter_batch, and every lane the engine does
/// not finish reruns on the scalar path under run_isolated. Fixed blocks
/// keep the work-to-result mapping, and so every result, independent of the
/// worker count.
///
/// Checkpointing (when `checkpoint` is enabled): slots already in the file
/// are restored and skipped; completed points record "ok <keep>" or
/// "fail <encode_failure>" (never a cancel-poisoned failure) and the file
/// is saved every `flush_every` completions, on cancel and at the end. A
/// cancel clears poisoned slots and throws BudgetExceededError(kCancel).
[[nodiscard]] std::vector<std::optional<FailureRecord>> run_points(
    const PointStudy& study, const CheckpointSpec& checkpoint,
    const sim::SimOptions& options);

/// TransitionMetrics -> payload tail: the nine scalar metrics plus the PTM
/// transition counters, all bitwise round-trippable. The full waveforms
/// (`tran`) are NOT serialized: a resumed sweep point carries empty
/// waveforms, which the sweep consumers (statistics, CSV dumps of the
/// scalar metrics) never read.
[[nodiscard]] std::string encode_metrics(const TransitionMetrics& metrics);
/// Inverse of encode_metrics (minus `tran`, see above).
[[nodiscard]] TransitionMetrics decode_metrics(const std::string& tail);

}  // namespace softfet::core
