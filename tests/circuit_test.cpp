#include "netlist/circuit.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "common/diagnostics.hpp"
#include "common/time.hpp"
#include "netlist/delay_annotation.hpp"

namespace waveck {
namespace {

Circuit two_gate() {
  Circuit c("two");
  const NetId a = c.add_net("a");
  const NetId b = c.add_net("b");
  const NetId x = c.add_net("x");
  const NetId y = c.add_net("y");
  c.declare_input(a);
  c.declare_input(b);
  c.add_gate(GateType::kAnd, x, {a, b}, DelaySpec::fixed(3));
  c.add_gate(GateType::kNot, y, {x}, DelaySpec::fixed(2));
  c.declare_output(y);
  c.finalize();
  return c;
}

TEST(Circuit, BuildAndQuery) {
  const Circuit c = two_gate();
  EXPECT_EQ(c.num_nets(), 4u);
  EXPECT_EQ(c.num_gates(), 2u);
  EXPECT_EQ(c.inputs().size(), 2u);
  EXPECT_EQ(c.outputs().size(), 1u);
  ASSERT_TRUE(c.find_net("x").has_value());
  const Net& x = c.net(*c.find_net("x"));
  EXPECT_TRUE(x.driver.valid());
  EXPECT_EQ(x.fanouts.size(), 1u);
}

TEST(Circuit, TopoOrderRespectsDependencies) {
  const Circuit c = two_gate();
  ASSERT_EQ(c.topo_order().size(), 2u);
  EXPECT_EQ(c.gate(c.topo_order()[0]).type, GateType::kAnd);
  EXPECT_EQ(c.gate(c.topo_order()[1]).type, GateType::kNot);
}

TEST(Circuit, DuplicateNetNameRejected) {
  Circuit c;
  c.add_net("a");
  EXPECT_THROW(c.add_net("a"), CircuitError);
}

TEST(Circuit, NetByNameOrAddReuses) {
  Circuit c;
  const NetId a = c.add_net("a");
  EXPECT_EQ(c.net_by_name_or_add("a"), a);
  EXPECT_NE(c.net_by_name_or_add("b"), a);
}

TEST(Circuit, MultipleDriversRejected) {
  Circuit c;
  const NetId a = c.add_net("a");
  const NetId x = c.add_net("x");
  c.declare_input(a);
  c.add_gate(GateType::kBuf, x, {a});
  EXPECT_THROW(c.add_gate(GateType::kNot, x, {a}), CircuitError);
}

TEST(Circuit, UndrivenInternalNetRejected) {
  Circuit c;
  const NetId a = c.add_net("a");
  const NetId x = c.add_net("x");
  c.add_gate(GateType::kBuf, x, {a});  // `a` neither input nor driven
  c.declare_output(x);
  EXPECT_THROW(c.finalize(), CircuitError);
}

TEST(Circuit, CycleRejected) {
  Circuit c;
  const NetId a = c.add_net("a");
  const NetId x = c.add_net("x");
  const NetId y = c.add_net("y");
  c.declare_input(a);
  c.add_gate(GateType::kAnd, x, {a, y});
  c.add_gate(GateType::kBuf, y, {x});
  EXPECT_THROW(c.finalize(), CircuitError);
}

TEST(Circuit, UnaryArityEnforced) {
  Circuit c;
  const NetId a = c.add_net("a");
  const NetId b = c.add_net("b");
  const NetId x = c.add_net("x");
  EXPECT_THROW(c.add_gate(GateType::kNot, x, {a, b}), CircuitError);
  EXPECT_THROW(c.add_gate(GateType::kMux, x, {a, b}), CircuitError);
}

TEST(Circuit, UniformDelay) {
  Circuit c = two_gate();
  c.set_uniform_delay(DelaySpec::fixed(10));
  for (GateId g : c.all_gates()) {
    EXPECT_EQ(c.gate(g).delay, DelaySpec::fixed(10));
  }
}

/// m = AND(a, b), y = BUF(m), z = NOT(m), with m and y at delay `d`.
Circuit series_pair(std::int64_t d) {
  Circuit c("series");
  const NetId a = c.add_net("a");
  const NetId b = c.add_net("b");
  const NetId m = c.add_net("m");
  const NetId y = c.add_net("y");
  const NetId z = c.add_net("z");
  c.declare_input(a);
  c.declare_input(b);
  c.add_gate(GateType::kAnd, m, {a, b}, DelaySpec::fixed(d));
  c.add_gate(GateType::kBuf, y, {m}, DelaySpec::fixed(d));
  c.add_gate(GateType::kNot, z, {m}, DelaySpec::fixed(1));
  c.declare_output(y);
  c.declare_output(z);
  c.finalize();
  return c;
}

TEST(Circuit, TimeRangeBoundsDelayPathsAndDeltas) {
  // A path of 4e18 passes Time's largest finite value: STA and the
  // simulator would report it while the engine saturates, so the netlist
  // is rejected before any analysis.
  EXPECT_THROW((void)series_pair(2'000'000'000'000'000'000), CircuitError);
  const Circuit c = series_pair(1'000'000'000'000'000'000);  // path 2e18
  EXPECT_NO_THROW(c.check_time_range(300'000'000'000'000'000));
  EXPECT_NO_THROW(c.check_time_range(-300'000'000'000'000'000));
  // |delta| plus the 2e18 path must stay below Time::kMaxFinite.
  EXPECT_THROW(c.check_time_range(400'000'000'000'000'000), CircuitError);
  EXPECT_THROW(c.check_time_range(-400'000'000'000'000'000), CircuitError);
  // A delta outside the finite range fails whatever the circuit.
  const Circuit small = two_gate();
  EXPECT_NO_THROW(small.check_time_range(Time::kMaxFinite - 6));
  EXPECT_THROW(small.check_time_range(Time::kMaxFinite - 5), CircuitError);
  EXPECT_THROW(small.check_time_range(Time::kMaxFinite), CircuitError);
  EXPECT_THROW(small.check_time_range(INT64_MIN), CircuitError);
}

TEST(Circuit, LongestPathDecidesTheDeltaRange) {
  const Circuit c = series_pair(1'000'000'000'000'000'000);
  EXPECT_EQ(c.longest_path(), 2'000'000'000'000'000'000);
  EXPECT_EQ(two_gate().longest_path(), 5);
  for (const std::int64_t delta :
       {std::int64_t{0}, std::int64_t{300'000'000'000'000'000},
        std::int64_t{-300'000'000'000'000'000},
        Time::kMaxFinite - 2'000'000'000'000'000'000,
        Time::kMaxFinite - 2'000'000'000'000'000'001,
        -(Time::kMaxFinite - 2'000'000'000'000'000'001),
        std::int64_t{400'000'000'000'000'000}, Time::kMaxFinite,
        -Time::kMaxFinite, std::int64_t{INT64_MAX}, std::int64_t{INT64_MIN}}) {
    bool accepted = true;
    try {
      c.check_time_range(delta);
    } catch (const CircuitError&) {
      accepted = false;
    }
    EXPECT_EQ(Circuit::delta_in_range(delta, c.longest_path()), accepted)
        << delta;
  }
  // Delays written through gate_mut are not re-checked; the path saturates.
  Circuit wide = series_pair(1);
  for (GateId g : wide.all_gates()) {
    wide.gate_mut(g).delay = DelaySpec::fixed(Time::kMaxFinite - 1);
  }
  EXPECT_EQ(wide.longest_path(), Time::kMaxFinite);
  EXPECT_FALSE(Circuit::delta_in_range(0, wide.longest_path()));
}

TEST(Circuit, DelaysSetAfterFinalizeAreRangeChecked) {
  // Two gates of 2e18 in series pass Time's largest finite value (~2.3e18),
  // whichever path sets them on the finalized netlist.
  const std::string records = "m 2000000000000000000 2000000000000000000\n"
                              "y 2000000000000000000 2000000000000000000\n";
  {
    Circuit c = series_pair(1);
    EXPECT_THROW(
        c.set_uniform_delay(DelaySpec::fixed(2'000'000'000'000'000'000)),
        CircuitError);
  }
  {
    Circuit c = series_pair(1);
    std::istringstream is(records);
    EXPECT_THROW(read_delays(is, c), CircuitError);
  }
  {
    Circuit c = series_pair(1);
    EXPECT_THROW(read_delays_string(records, c), CircuitError);
    // The default record reaches every gate the same way.
    Circuit d = series_pair(1);
    EXPECT_THROW(read_delays_string("* 0 2000000000000000000\n", d),
                 CircuitError);
  }
  {
    const std::string path =
        "circuit_test_" + std::to_string(getpid()) + ".delays";
    std::ofstream(path) << records;
    Circuit c = series_pair(1);
    EXPECT_THROW(read_delays_file(path, c), CircuitError);
    std::remove(path.c_str());
  }
  // Delays inside the range still apply.
  Circuit c = series_pair(1);
  EXPECT_NO_THROW(
      c.set_uniform_delay(DelaySpec::fixed(1'000'000'000'000'000'000)));
  EXPECT_EQ(c.longest_path(), 2'000'000'000'000'000'000);
}

TEST(Circuit, ReconvergentStemDetection) {
  // stem fans out to two NANDs that reconverge on an AND.
  Circuit c;
  const NetId a = c.add_net("a");
  const NetId b = c.add_net("b");
  const NetId x = c.add_net("x");
  const NetId y = c.add_net("y");
  const NetId z = c.add_net("z");
  c.declare_input(a);
  c.declare_input(b);
  c.add_gate(GateType::kNand, x, {a, b});
  c.add_gate(GateType::kNot, y, {a});
  c.add_gate(GateType::kAnd, z, {x, y});
  c.declare_output(z);
  c.finalize();
  EXPECT_TRUE(c.is_reconvergent_stem(a));
  EXPECT_FALSE(c.is_reconvergent_stem(b));
  const auto stems = c.fanout_stems();
  ASSERT_EQ(stems.size(), 1u);
  EXPECT_EQ(stems[0], a);
}

TEST(Circuit, NonReconvergentFanout) {
  // stem feeds two independent outputs: fanout but no reconvergence.
  Circuit c;
  const NetId a = c.add_net("a");
  const NetId x = c.add_net("x");
  const NetId y = c.add_net("y");
  c.declare_input(a);
  c.add_gate(GateType::kNot, x, {a});
  c.add_gate(GateType::kBuf, y, {a});
  c.declare_output(x);
  c.declare_output(y);
  c.finalize();
  EXPECT_FALSE(c.is_reconvergent_stem(a));
}

TEST(GateTraits, ControllingValues) {
  EXPECT_FALSE(controlling_value(GateType::kAnd));
  EXPECT_FALSE(controlling_value(GateType::kNand));
  EXPECT_TRUE(controlling_value(GateType::kOr));
  EXPECT_TRUE(controlling_value(GateType::kNor));
  EXPECT_FALSE(has_controlling_value(GateType::kXor));
  EXPECT_FALSE(has_controlling_value(GateType::kNot));
}

TEST(GateTraits, Eval) {
  EXPECT_TRUE(eval_gate(GateType::kAnd, {true, true}));
  EXPECT_FALSE(eval_gate(GateType::kAnd, {true, false}));
  EXPECT_TRUE(eval_gate(GateType::kNand, {true, false}));
  EXPECT_TRUE(eval_gate(GateType::kOr, {false, true}));
  EXPECT_TRUE(eval_gate(GateType::kNor, {false, false}));
  EXPECT_TRUE(eval_gate(GateType::kXor, {true, false}));
  EXPECT_FALSE(eval_gate(GateType::kXor, {true, true}));
  EXPECT_TRUE(eval_gate(GateType::kXnor, {true, true}));
  EXPECT_FALSE(eval_gate(GateType::kNot, {true}));
  EXPECT_TRUE(eval_gate(GateType::kBuf, {true}));
  EXPECT_TRUE(eval_gate(GateType::kDelay, {true}));
  // MUX: (sel, d0, d1).
  EXPECT_TRUE(eval_gate(GateType::kMux, {false, true, false}));
  EXPECT_FALSE(eval_gate(GateType::kMux, {true, true, false}));
}

}  // namespace
}  // namespace waveck
