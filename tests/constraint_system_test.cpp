#include "constraints/constraint_system.hpp"

#include <gtest/gtest.h>

#include "gen/generators.hpp"

namespace waveck {
namespace {

constexpr Time kNI = Time::neg_inf();

Circuit and_not_chain() {
  Circuit c("chain");
  const NetId a = c.add_net("a"), b = c.add_net("b");
  const NetId x = c.add_net("x"), y = c.add_net("y");
  c.declare_input(a);
  c.declare_input(b);
  c.add_gate(GateType::kAnd, x, {a, b}, DelaySpec::fixed(5));
  c.add_gate(GateType::kNot, y, {x}, DelaySpec::fixed(5));
  c.declare_output(y);
  c.finalize();
  return c;
}

TEST(ConstraintSystem, InitialDomainsAreTop) {
  const Circuit c = and_not_chain();
  ConstraintSystem cs(c);
  for (NetId n : c.all_nets()) {
    EXPECT_TRUE(cs.domain(n).is_top());
  }
  EXPECT_FALSE(cs.inconsistent());
}

TEST(ConstraintSystem, ForwardFixpointBoundsArrivals) {
  const Circuit c = and_not_chain();
  ConstraintSystem cs(c);
  for (NetId in : c.inputs()) {
    cs.restrict_domain(in, AbstractSignal::floating_input());
  }
  cs.schedule_all();
  EXPECT_EQ(cs.reach_fixpoint(),
            ConstraintSystem::Status::kPossibleViolation);
  const NetId y = *c.find_net("y");
  EXPECT_EQ(cs.domain(y).cls(false), LtInterval(kNI, Time(10)));
  EXPECT_EQ(cs.domain(y).cls(true), LtInterval(kNI, Time(10)));
}

TEST(ConstraintSystem, InfeasibleCheckDetected) {
  const Circuit c = and_not_chain();
  ConstraintSystem cs(c);
  for (NetId in : c.inputs()) {
    cs.restrict_domain(in, AbstractSignal::floating_input());
  }
  // Output cannot transition at/after 11 (top = 10).
  cs.restrict_domain(*c.find_net("y"), AbstractSignal::violating(Time(11)));
  cs.schedule_all();
  EXPECT_EQ(cs.reach_fixpoint(), ConstraintSystem::Status::kNoViolation);
  EXPECT_TRUE(cs.inconsistent());
}

TEST(ConstraintSystem, FeasibleCheckStaysConsistent) {
  const Circuit c = and_not_chain();
  ConstraintSystem cs(c);
  for (NetId in : c.inputs()) {
    cs.restrict_domain(in, AbstractSignal::floating_input());
  }
  cs.restrict_domain(*c.find_net("y"), AbstractSignal::violating(Time(10)));
  cs.schedule_all();
  EXPECT_EQ(cs.reach_fixpoint(),
            ConstraintSystem::Status::kPossibleViolation);
}

TEST(ConstraintSystem, RestrictReturnsWhetherNarrowed) {
  const Circuit c = and_not_chain();
  ConstraintSystem cs(c);
  const NetId a = *c.find_net("a");
  EXPECT_TRUE(cs.restrict_domain(a, AbstractSignal::floating_input()));
  EXPECT_FALSE(cs.restrict_domain(a, AbstractSignal::floating_input()));
}

TEST(ConstraintSystem, TrailPushPopRestoresDomains) {
  const Circuit c = and_not_chain();
  ConstraintSystem cs(c);
  for (NetId in : c.inputs()) {
    cs.restrict_domain(in, AbstractSignal::floating_input());
  }
  cs.schedule_all();
  cs.reach_fixpoint();
  const NetId x = *c.find_net("x");
  const AbstractSignal before = cs.domain(x);

  const auto mark = cs.push_state();
  cs.restrict_domain(x, AbstractSignal::class_only(false));
  cs.reach_fixpoint();
  EXPECT_NE(cs.domain(x), before);
  cs.pop_to(mark);
  EXPECT_EQ(cs.domain(x), before);
  EXPECT_FALSE(cs.inconsistent());
}

TEST(ConstraintSystem, NestedPushPop) {
  const Circuit c = and_not_chain();
  ConstraintSystem cs(c);
  const NetId a = *c.find_net("a"), b = *c.find_net("b");

  const auto m1 = cs.push_state();
  cs.restrict_domain(a, AbstractSignal::class_only(true));
  const AbstractSignal a_at_1 = cs.domain(a);
  const auto m2 = cs.push_state();
  cs.restrict_domain(b, AbstractSignal::class_only(false));
  cs.restrict_domain(a, AbstractSignal::floating_input());
  cs.pop_to(m2);
  EXPECT_EQ(cs.domain(a), a_at_1);
  EXPECT_TRUE(cs.domain(b).is_top());
  cs.pop_to(m1);
  EXPECT_TRUE(cs.domain(a).is_top());
}

TEST(ConstraintSystem, PopRestoresInconsistency) {
  const Circuit c = and_not_chain();
  ConstraintSystem cs(c);
  for (NetId in : c.inputs()) {
    cs.restrict_domain(in, AbstractSignal::floating_input());
  }
  cs.schedule_all();
  cs.reach_fixpoint();
  const auto mark = cs.push_state();
  cs.restrict_domain(*c.find_net("y"), AbstractSignal::violating(Time(999)));
  cs.reach_fixpoint();
  EXPECT_TRUE(cs.inconsistent());
  cs.pop_to(mark);
  EXPECT_FALSE(cs.inconsistent());
}

TEST(ConstraintSystem, ChangedSinceListsTouchedNets) {
  const Circuit c = and_not_chain();
  ConstraintSystem cs(c);
  const auto mark = cs.push_state();
  cs.restrict_domain(*c.find_net("a"), AbstractSignal::class_only(true));
  cs.reach_fixpoint();
  const auto changed = cs.changed_since(mark);
  EXPECT_FALSE(changed.empty());
  bool has_a = false;
  for (NetId n : changed) has_a |= (n == *c.find_net("a"));
  EXPECT_TRUE(has_a);
}

TEST(ConstraintSystem, ClassPropagationThroughChain) {
  // a=0 forces x=0 forces y=1 (pure class reasoning, no timing).
  const Circuit c = and_not_chain();
  ConstraintSystem cs(c);
  cs.restrict_domain(*c.find_net("a"), AbstractSignal::class_only(false));
  cs.reach_fixpoint();
  EXPECT_TRUE(cs.domain(*c.find_net("x")).single_class());
  EXPECT_FALSE(cs.domain(*c.find_net("x")).the_class());
  EXPECT_TRUE(cs.domain(*c.find_net("y")).single_class());
  EXPECT_TRUE(cs.domain(*c.find_net("y")).the_class());
}

TEST(ConstraintSystem, BackwardClassPropagation) {
  // y=0 forces x=1 forces a=b=1.
  const Circuit c = and_not_chain();
  ConstraintSystem cs(c);
  cs.restrict_domain(*c.find_net("y"), AbstractSignal::class_only(false));
  cs.reach_fixpoint();
  EXPECT_TRUE(cs.domain(*c.find_net("a")).single_class());
  EXPECT_TRUE(cs.domain(*c.find_net("a")).the_class());
  EXPECT_TRUE(cs.domain(*c.find_net("b")).the_class());
}

TEST(ConstraintSystem, ImplicationTableFires) {
  const Circuit c = and_not_chain();
  // Artificial implication: a=1 => b=0.
  const ImplicationTable::Implication a1_b0{
      *c.find_net("a"), true, {*c.find_net("b"), false}};
  const ImplicationTable table(c.num_nets(), {&a1_b0, 1});
  ConstraintSystem cs(c);
  cs.set_implications(&table);
  cs.restrict_domain(*c.find_net("a"), AbstractSignal::class_only(true));
  EXPECT_TRUE(cs.domain(*c.find_net("b")).single_class());
  EXPECT_FALSE(cs.domain(*c.find_net("b")).the_class());
}

TEST(ConstraintSystem, StatsAdvance) {
  const Circuit c = gen::hrapcenko();
  ConstraintSystem cs(c);
  for (NetId in : c.inputs()) {
    cs.restrict_domain(in, AbstractSignal::floating_input());
  }
  cs.schedule_all();
  cs.reach_fixpoint();
  EXPECT_GT(cs.applications(), 0u);
  EXPECT_GT(cs.narrowings(), 0u);
}

}  // namespace
}  // namespace waveck
