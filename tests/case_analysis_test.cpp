#include "verify/case_analysis.hpp"

#include <gtest/gtest.h>

#include "analysis/head_lines.hpp"
#include "analysis/scoap.hpp"
#include "gen/generators.hpp"
#include "netlist/topo_delay.hpp"
#include "sim/floating_sim.hpp"
#include "test_circuits.hpp"

namespace waveck {
namespace {

ConstraintSystem make_system(const Circuit& c, NetId s, Time delta) {
  ConstraintSystem cs(c);
  for (NetId in : c.inputs()) {
    cs.restrict_domain(in, AbstractSignal::floating_input());
  }
  cs.restrict_domain(s, AbstractSignal::violating(delta));
  cs.schedule_all();
  cs.reach_fixpoint();
  return cs;
}

TEST(CaseAnalysis, FindsVectorAtExactDelay) {
  const Circuit c = gen::hrapcenko(10);
  const NetId s = *c.find_net("s");
  const TimingCheck check{s, Time(60)};
  ConstraintSystem cs = make_system(c, s, Time(60));
  ASSERT_FALSE(cs.inconsistent());
  const Scoap sc = compute_scoap(c);
  const auto out = run_case_analysis(cs, check, &sc, compute_head_lines(c));
  ASSERT_EQ(out.result, CaseResult::kViolation);
  // Independent validation.
  const auto sim = simulate_floating(c, out.vector);
  EXPECT_GE(sim.settle[s.index()], Time(60));
}

TEST(CaseAnalysis, ProvesNoViolationAboveExactDelay) {
  // The gated-contradiction circuit keeps the fixpoint (and dominators) at
  // P for delta in (50, 70]: only search can prove N there.
  const Circuit c = testing::gated_contradiction();
  const NetId s = *c.find_net("s");
  ASSERT_EQ(exhaustive_floating_delay(c), Time(50));
  const TimingCheck check{s, Time(51)};
  ConstraintSystem cs = testing::checked_system(c, s, Time(51));
  ASSERT_FALSE(cs.inconsistent()) << "narrowing alone must not close it";
  const Scoap sc = compute_scoap(c);
  const auto out = run_case_analysis(cs, check, &sc, compute_head_lines(c));
  EXPECT_EQ(out.result, CaseResult::kNoViolation);
  EXPECT_GE(out.backtracks, 1u);
}

TEST(CaseAnalysis, CarrySkipVectorAtExactDelay) {
  Circuit c = gen::carry_skip_adder(8, 4);
  c.set_uniform_delay(DelaySpec::fixed(10));
  const NetId cout = *c.find_net("cout");
  const Time exact = exhaustive_floating_delay(c, cout, 17);
  const TimingCheck check{cout, exact};
  ConstraintSystem cs = make_system(c, cout, exact);
  ASSERT_FALSE(cs.inconsistent());
  const Scoap sc = compute_scoap(c);
  const auto out = run_case_analysis(cs, check, &sc, compute_head_lines(c));
  ASSERT_EQ(out.result, CaseResult::kViolation);
  const auto sim = simulate_floating(c, out.vector);
  EXPECT_GE(sim.settle[cout.index()], exact);
}

TEST(CaseAnalysis, RestoresStateOnNoViolation) {
  const Circuit c = testing::gated_contradiction();
  const NetId s = *c.find_net("s");
  ConstraintSystem cs = testing::checked_system(c, s, Time(51));
  ASSERT_FALSE(cs.inconsistent());
  std::vector<AbstractSignal> snapshot;
  for (NetId n : c.all_nets()) snapshot.push_back(cs.domain(n));
  const TimingCheck check{s, Time(51)};
  const auto out = run_case_analysis(cs, check, nullptr, compute_head_lines(c));
  ASSERT_EQ(out.result, CaseResult::kNoViolation);
  for (NetId n : c.all_nets()) {
    EXPECT_EQ(cs.domain(n), snapshot[n.index()]) << c.net(n).name;
  }
}

TEST(CaseAnalysis, AbandonsOnTinyBudget) {
  // No violation at 51, so search must backtrack; a zero budget aborts at
  // the first backtrack and restores the entry state.
  const Circuit c = testing::gated_contradiction();
  const NetId s = *c.find_net("s");
  const TimingCheck check{s, Time(51)};
  ConstraintSystem cs = testing::checked_system(c, s, Time(51));
  ASSERT_FALSE(cs.inconsistent());
  std::vector<AbstractSignal> snapshot;
  for (NetId n : c.all_nets()) snapshot.push_back(cs.domain(n));
  CaseAnalysisOptions opt;
  opt.max_backtracks = 0;
  const auto out =
      run_case_analysis(cs, check, nullptr, compute_head_lines(c), opt);
  ASSERT_EQ(out.result, CaseResult::kAbandoned);
  EXPECT_GE(out.backtracks, 1u);
  for (NetId n : c.all_nets()) {
    EXPECT_EQ(cs.domain(n), snapshot[n.index()]) << c.net(n).name;
  }
}

TEST(CaseAnalysis, HeuristicVariantsAllCorrect) {
  const Circuit c = gen::hrapcenko(10);
  const NetId s = *c.find_net("s");
  const Scoap sc = compute_scoap(c);
  for (const bool sum_mode : {false, true}) {
    for (const bool use_scoap : {false, true}) {
      for (const bool three_phase : {false, true}) {
        CaseAnalysisOptions opt;
        opt.sum_at_fanout = sum_mode;
        opt.use_scoap = use_scoap;
        opt.three_phase = three_phase;
        const TimingCheck check{s, Time(60)};
        ConstraintSystem cs = make_system(c, s, Time(60));
        const auto out =
            run_case_analysis(cs, check, &sc, compute_head_lines(c), opt);
        EXPECT_EQ(out.result, CaseResult::kViolation)
            << "sum=" << sum_mode << " scoap=" << use_scoap
            << " phases=" << three_phase;
      }
    }
  }
}

TEST(CaseAnalysis, WorksWithoutDominatorsInSearch) {
  const Circuit c = gen::hrapcenko(10);
  const NetId s = *c.find_net("s");
  CaseAnalysisOptions opt;
  opt.dominators_in_search = false;
  const TimingCheck check{s, Time(60)};
  ConstraintSystem cs = make_system(c, s, Time(60));
  const auto out =
      run_case_analysis(cs, check, nullptr, compute_head_lines(c), opt);
  EXPECT_EQ(out.result, CaseResult::kViolation);
}

TEST(CaseAnalysis, C17ExactDelayVectors) {
  Circuit c = gen::c17();
  c.set_uniform_delay(DelaySpec::fixed(10));
  const Time exact = exhaustive_floating_delay(c);
  const Scoap sc = compute_scoap(c);
  bool found = false;
  for (NetId o : c.outputs()) {
    const TimingCheck check{o, exact};
    ConstraintSystem cs = make_system(c, o, exact);
    if (cs.inconsistent()) continue;
    const auto out = run_case_analysis(cs, check, &sc, compute_head_lines(c));
    if (out.result == CaseResult::kViolation) {
      found = true;
      const auto sim = simulate_floating(c, out.vector);
      EXPECT_GE(sim.settle[o.index()], exact);
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace waveck
