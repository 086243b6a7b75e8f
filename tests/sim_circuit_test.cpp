#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "devices/capacitor.hpp"
#include "devices/resistor.hpp"
#include "devices/sources.hpp"
#include "sim/analyses.hpp"
#include "sim/circuit.hpp"
#include "util/error.hpp"

namespace ss = softfet::sim;
namespace sd = softfet::devices;

TEST(Circuit, GroundAliases) {
  ss::Circuit c;
  EXPECT_EQ(c.node("0"), ss::kGroundNode);
  EXPECT_EQ(c.node("gnd"), ss::kGroundNode);
  EXPECT_EQ(c.node("GND"), ss::kGroundNode);
  EXPECT_EQ(c.node("ground"), ss::kGroundNode);
}

TEST(Circuit, NodesAreCaseInsensitiveAndStable) {
  ss::Circuit c;
  const auto a = c.node("VDD");
  const auto b = c.node("vdd");
  EXPECT_EQ(a, b);
  EXPECT_EQ(c.node_name(a), "vdd");
  EXPECT_EQ(c.node_count(), 2u);  // ground + vdd
}

TEST(Circuit, FindNodeThrowsOnUnknown) {
  ss::Circuit c;
  EXPECT_THROW((void)c.find_node("nope"), softfet::InvalidCircuitError);
  (void)c.node("a");
  EXPECT_EQ(c.find_node("A"), c.node("a"));
  EXPECT_TRUE(c.has_node("a"));
  EXPECT_FALSE(c.has_node("b"));
}

TEST(Circuit, UnknownLayoutNodesThenBranches) {
  ss::Circuit c;
  const auto vdd = c.node("vdd");
  const auto out = c.node("out");
  c.add<sd::Resistor>("R1", vdd, out, 1e3);
  c.add<sd::VSource>("Vdd", vdd, ss::kGroundNode,
                     sd::SourceSpec::dc(1.0));
  c.prepare();
  // 2 node unknowns + 1 branch current.
  EXPECT_EQ(c.unknown_count(), 3u);
  const auto& labels = c.unknown_labels();
  ASSERT_EQ(labels.size(), 3u);
  EXPECT_EQ(labels[0], "v(vdd)");
  EXPECT_EQ(labels[1], "v(out)");
  EXPECT_EQ(labels[2], "i(vdd)");
  EXPECT_TRUE(c.unknown_is_voltage(0));
  EXPECT_FALSE(c.unknown_is_voltage(2));
}

TEST(Circuit, FindDeviceCaseInsensitive) {
  ss::Circuit c;
  c.add<sd::Resistor>("Rload", c.node("a"), ss::kGroundNode, 50.0);
  EXPECT_NE(c.find_device("rload"), nullptr);
  EXPECT_EQ(c.find_device("nothere"), nullptr);
}

TEST(Circuit, PrepareIsIdempotent) {
  ss::Circuit c;
  c.add<sd::VSource>("V1", c.node("a"), ss::kGroundNode,
                     sd::SourceSpec::dc(1.0));
  c.prepare();
  const auto n = c.unknown_count();
  c.prepare();
  EXPECT_EQ(c.unknown_count(), n);
}

TEST(Circuit, InvalidDeviceParamsThrow) {
  ss::Circuit c;
  EXPECT_THROW(
      c.add<sd::Resistor>("R1", c.node("a"), ss::kGroundNode, -5.0),
      softfet::InvalidCircuitError);
  EXPECT_THROW(c.add<sd::Resistor>("R2", c.node("a"), ss::kGroundNode, 0.0),
               softfet::InvalidCircuitError);
}

namespace {

/// Stamps nothing; the hook-list tests only register these.
class Inert : public ss::Device {
 public:
  using Device::Device;
  void setup(ss::Circuit&) override {}
  void load(const std::vector<double>&, ss::Stamper&,
            const ss::LoadContext&) override {}
};

class Plain final : public Inert {
 public:
  using Inert::Inert;
};

class Corner final : public Inert {
 public:
  using Inert::Inert;
  double next_breakpoint(double) const override { return 1e-9; }
};

class Committer final : public Inert {
 public:
  using Inert::Inert;
  void accept_step(const std::vector<double>&,
                   const ss::LoadContext&) override {}
};

class Prober final : public Inert {
 public:
  using Inert::Inert;
  std::vector<ss::Probe> probes() const override { return {{"p", 1.0}}; }
};

class Capped : public Inert {
 public:
  using Inert::Inert;
  double max_timestep() const override { return 1e-12; }
};

class CappedLeaf final : public Capped {  // inherits Capped's override
 public:
  using Capped::Capped;
};

class Hidden final : public Inert {  // not public: cannot be detected
 public:
  using Inert::Inert;

 private:
  double event_time(const std::vector<double>&, double,
                    double) const override {
    return ss::kNeverTime;
  }
};

std::vector<const ss::Device*> as_const(const std::vector<ss::Device*>& list) {
  return {list.begin(), list.end()};
}

/// Forwards every call to the device it wraps, overriding every per-step
/// hook, so it sits on every hook list: the dispatch that called each hook
/// on every device.
class EveryHook final : public ss::Device {
 public:
  explicit EveryHook(std::unique_ptr<ss::Device> inner)
      : Device(inner->name()), inner_(std::move(inner)) {}
  void setup(ss::Circuit& c) override { inner_->setup(c); }
  void load(const std::vector<double>& x, ss::Stamper& stamper,
            const ss::LoadContext& ctx) override {
    inner_->load(x, stamper, ctx);
  }
  void init_state(const std::vector<double>& x) override {
    inner_->init_state(x);
  }
  void accept_step(const std::vector<double>& x,
                   const ss::LoadContext& ctx) override {
    inner_->accept_step(x, ctx);
  }
  double event_time(const std::vector<double>& x, double t_start,
                    double t_end) const override {
    return inner_->event_time(x, t_start, t_end);
  }
  double next_breakpoint(double time) const override {
    return inner_->next_breakpoint(time);
  }
  double max_timestep() const override { return inner_->max_timestep(); }
  std::vector<ss::Probe> probes() const override { return inner_->probes(); }
  void probe_values(std::vector<double>& out) const override {
    inner_->probe_values(out);
  }
  bool update_quasistatic_state(const std::vector<double>& x) override {
    return inner_->update_quasistatic_state(x);
  }

 private:
  std::unique_ptr<ss::Device> inner_;
};

/// Records v(node) at each accepted step and probes it.
class AcceptedSample final : public ss::Device {
 public:
  AcceptedSample(std::string name, ss::NodeId node)
      : Device(std::move(name)), node_(node) {}
  void setup(ss::Circuit& c) override {
    unknown_ = static_cast<std::size_t>(c.node_unknown(node_));
  }
  void load(const std::vector<double>&, ss::Stamper&,
            const ss::LoadContext&) override {}
  void accept_step(const std::vector<double>& x,
                   const ss::LoadContext&) override {
    last_ = x[unknown_];
    ++accepted_;
  }
  std::vector<ss::Probe> probes() const override {
    return {{"sample(out)", last_}, {"accepted", accepted_}};
  }

 private:
  ss::NodeId node_;
  std::size_t unknown_ = 0;
  double last_ = 0.0;
  double accepted_ = 0.0;
};

template <bool kWrap, typename T, typename... Args>
void place(ss::Circuit& c, Args&&... args) {
  if constexpr (kWrap) {
    c.add<EveryHook>(std::make_unique<T>(std::forward<Args>(args)...));
  } else {
    c.add<T>(std::forward<Args>(args)...);
  }
}

const std::vector<softfet::numeric::PwlPoint> kCorners = {
    {0.0, 0.0}, {0.13e-9, 1.0}, {0.61e-9, 1.0}, {0.67e-9, 0.25}};

/// RC low-pass on a PWL source plus an AcceptedSample probe; kWrap puts
/// every device behind EveryHook.
template <bool kWrap>
ss::TranResult rc_pwl_transient() {
  ss::Circuit c;
  const auto in = c.node("in");
  const auto out = c.node("out");
  place<kWrap, sd::VSource>(c, "Vin", in, ss::kGroundNode,
                            sd::SourceSpec::pwl(kCorners));
  place<kWrap, sd::Resistor>(c, "R1", in, out, 1e3);
  place<kWrap, sd::Capacitor>(c, "C1", out, ss::kGroundNode, 1e-13);
  place<kWrap, AcceptedSample>(c, "S1", out);
  return ss::run_transient(c, 1e-9);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

TEST(StepHooks, ListOnlyTheDevicesThatOverrideEachHook) {
  ss::Circuit c;
  const auto a = c.node("a");
  const auto* plain = c.add<Plain>("plain");
  const auto* corner = c.add<Corner>("corner");
  const auto* committer = c.add<Committer>("committer");
  const auto* prober = c.add<Prober>("prober");
  const auto* leaf = c.add<CappedLeaf>("leaf");
  const auto* hidden = c.add<Hidden>("hidden");
  c.add<sd::Resistor>("R1", a, ss::kGroundNode, 1e3);
  const auto* source = c.add<sd::VSource>(
      "V1", a, ss::kGroundNode, sd::SourceSpec::pwl(kCorners));
  const auto* cap = c.add<sd::Capacitor>("C1", a, ss::kGroundNode, 1e-12);
  const auto* late_corner = c.add<Corner>("late corner");
  (void)plain;

  const ss::StepHooks& hooks = c.hooks();
  using List = std::vector<const ss::Device*>;
  EXPECT_EQ(as_const(hooks.max_timestep), List{leaf});
  EXPECT_EQ(as_const(hooks.next_breakpoint),
            (List{corner, source, late_corner}));
  EXPECT_EQ(as_const(hooks.event_time), List{hidden});
  EXPECT_EQ(as_const(hooks.accept_step), (List{committer, cap}));
  EXPECT_EQ(as_const(hooks.probes), List{prober});
}

TEST(StepHooks, RcPwlTransientMatchesCallingEveryDevice) {
  const auto listed = rc_pwl_transient<false>();
  const auto every = rc_pwl_transient<true>();
  ASSERT_FALSE(listed.truncated);
  EXPECT_TRUE(same_bits(listed.time, every.time));
  EXPECT_EQ(listed.accepted_steps, every.accepted_steps);
  EXPECT_EQ(listed.rejected_steps, every.rejected_steps);
  ASSERT_EQ(listed.table.names(), every.table.names());
  for (std::size_t col = 0; col < listed.table.columns(); ++col) {
    EXPECT_TRUE(same_bits(listed.table.column(col), every.table.column(col)))
        << listed.table.names()[col];
  }
  // Every corner inside the run is a step boundary; the probe columns
  // follow the unknowns and count the accepted steps.
  for (const auto& corner : kCorners) {
    if (corner.x == 0.0) continue;
    EXPECT_NE(std::find(listed.time.begin(), listed.time.end(), corner.x),
              listed.time.end())
        << corner.x;
  }
  const auto& names = listed.table.names();
  ASSERT_GE(names.size(), 2u);
  EXPECT_EQ(names[names.size() - 2], "sample(out)");
  EXPECT_EQ(names.back(), "accepted");
  EXPECT_EQ(listed.table.signal("accepted").back(),
            static_cast<double>(listed.accepted_steps));
}
