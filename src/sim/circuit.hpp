// Flat circuit: a node table plus an owning list of devices.
//
// Nodes are created on demand by name ("0", "gnd" and "vss!" alias ground).
// After all devices are added, prepare() resolves unknown indices:
// node voltages first, then branch currents claimed by devices.
#pragma once

#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/device.hpp"

namespace softfet::sim {

/// Dense node identifier; ground is kGroundNode.
using NodeId = int;
inline constexpr NodeId kGroundNode = 0;

/// The devices whose type overrides each per-step hook, in insertion order:
/// Device's defaults are no-ops, so the engine calls a hook only on its list.
struct StepHooks {
  std::vector<Device*> max_timestep;
  std::vector<Device*> next_breakpoint;
  std::vector<Device*> event_time;
  std::vector<Device*> accept_step;
  std::vector<Device*> probes;  ///< probes() or probe_values()
};

class Circuit {
 public:
  Circuit();

  Circuit(const Circuit&) = delete;
  Circuit& operator=(const Circuit&) = delete;
  Circuit(Circuit&&) = default;
  Circuit& operator=(Circuit&&) = default;

  /// Find-or-create a node. Names are case-insensitive; "0" and "gnd"
  /// return ground.
  NodeId node(const std::string& name);

  /// Look up an existing node; throws InvalidCircuitError if unknown.
  [[nodiscard]] NodeId find_node(const std::string& name) const;
  [[nodiscard]] bool has_node(const std::string& name) const;

  [[nodiscard]] const std::string& node_name(NodeId id) const;
  [[nodiscard]] std::size_t node_count() const noexcept {
    return node_names_.size();
  }

  /// Construct and own a device of type T; returns a non-owning pointer.
  template <typename T, typename... Args>
  T* add(Args&&... args) {
    auto device = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = device.get();
    devices_.push_back(std::move(device));
    // T keeps Device's `hook` when &T::hook has Device's member type. A
    // hook T cannot name here (not public) counts as its own.
#define SOFTFET_OWN(hook)                                                 \
  !requires {                                                             \
    requires std::is_same_v<decltype(&T::hook), decltype(&Device::hook)>; \
  }
    if (SOFTFET_OWN(max_timestep)) hooks_.max_timestep.push_back(raw);
    if (SOFTFET_OWN(next_breakpoint)) hooks_.next_breakpoint.push_back(raw);
    if (SOFTFET_OWN(event_time)) hooks_.event_time.push_back(raw);
    if (SOFTFET_OWN(accept_step)) hooks_.accept_step.push_back(raw);
    if (SOFTFET_OWN(probes) || SOFTFET_OWN(probe_values)) {
      hooks_.probes.push_back(raw);
    }
#undef SOFTFET_OWN
    prepared_ = false;
    return raw;
  }

  [[nodiscard]] const StepHooks& hooks() const noexcept { return hooks_; }

  [[nodiscard]] const std::vector<std::unique_ptr<Device>>& devices() const {
    return devices_;
  }

  /// Find a device by (case-insensitive) name; nullptr if absent.
  [[nodiscard]] Device* find_device(const std::string& name) const;

  // --- Unknown-index management (used during prepare / by devices) -----

  /// Unknown index of a node (kGround for ground). Valid after prepare().
  [[nodiscard]] int node_unknown(NodeId id) const;

  /// Claim a new branch-current unknown (called by devices from setup()).
  int claim_branch_unknown(const std::string& label);

  /// Resolve all device unknowns; idempotent.
  void prepare();
  [[nodiscard]] bool prepared() const noexcept { return prepared_; }

  /// Total unknown count (node voltages + branch currents).
  [[nodiscard]] std::size_t unknown_count() const;

  /// Human-readable label of each unknown: "v(name)" or the branch label.
  [[nodiscard]] const std::vector<std::string>& unknown_labels() const {
    return unknown_labels_;
  }

  /// True if unknown `i` is a node voltage (false: branch current).
  [[nodiscard]] bool unknown_is_voltage(std::size_t i) const {
    return i < node_names_.size() - 1;
  }

 private:
  std::vector<std::string> node_names_;  // index = NodeId, [0] = "0"
  std::unordered_map<std::string, NodeId> node_index_;
  std::vector<std::unique_ptr<Device>> devices_;
  StepHooks hooks_;
  std::vector<std::string> unknown_labels_;
  std::size_t branch_count_ = 0;
  bool prepared_ = false;
};

}  // namespace softfet::sim
