#include "verify/verifier.hpp"

#include <gtest/gtest.h>

#include "gen/generators.hpp"
#include "gen/iscas_suite.hpp"
#include "netlist/topo_delay.hpp"
#include "netlist/transforms.hpp"
#include "sim/floating_sim.hpp"

namespace waveck {
namespace {

TEST(Verifier, HrapcenkoNoViolationAt61ByNarrowingAlone) {
  const Circuit c = gen::hrapcenko(10);
  Verifier v(c);
  const auto rep = v.check_output(*c.find_net("s"), Time(61));
  EXPECT_EQ(rep.conclusion, CheckConclusion::kNoViolation);
  EXPECT_EQ(rep.before_gitd, StageStatus::kNoViolation);  // Example 2
}

TEST(Verifier, HrapcenkoViolationAt60WithVector) {
  const Circuit c = gen::hrapcenko(10);
  Verifier v(c);
  const auto rep = v.check_output(*c.find_net("s"), Time(60));
  ASSERT_EQ(rep.conclusion, CheckConclusion::kViolation);
  ASSERT_TRUE(rep.vector.has_value());
  const auto sim = simulate_floating(c, *rep.vector);
  EXPECT_GE(sim.settle[c.find_net("s")->index()], Time(60));
}

TEST(Verifier, ExactDelayHrapcenko) {
  const Circuit c = gen::hrapcenko(10);
  Verifier v(c);
  const auto res = v.exact_floating_delay();
  EXPECT_EQ(res.delay, Time(60));
  EXPECT_EQ(res.topological, Time(70));
  EXPECT_TRUE(res.exact);
  ASSERT_TRUE(res.witness.has_value());
}

TEST(Verifier, ExactDelayMatchesOracleC17) {
  Circuit c = gen::c17();
  c.set_uniform_delay(DelaySpec::fixed(10));
  Verifier v(c);
  const auto res = v.exact_floating_delay();
  EXPECT_EQ(res.delay, exhaustive_floating_delay(c));
  EXPECT_TRUE(res.exact);
}

TEST(Verifier, ExactDelayMatchesOracleNorC17) {
  Circuit c = gen::prepare_for_experiment(gen::c17());
  Verifier v(c);
  const auto res = v.exact_floating_delay();
  EXPECT_EQ(res.delay, exhaustive_floating_delay(c));
}

TEST(Verifier, ExactDelayCarrySkip8) {
  Circuit c = gen::carry_skip_adder(8, 4);
  c.set_uniform_delay(DelaySpec::fixed(10));
  Verifier v(c);
  const auto res = v.exact_floating_delay();
  EXPECT_EQ(res.delay, exhaustive_floating_delay(c, 17));
  EXPECT_LT(res.delay, res.topological);  // false ripple path removed
}

TEST(Verifier, CheckCircuitAggregates) {
  Circuit c = gen::c17();
  c.set_uniform_delay(DelaySpec::fixed(10));
  Verifier v(c);
  const Time exact = exhaustive_floating_delay(c);
  const auto viol = v.check_circuit(exact);
  EXPECT_EQ(viol.conclusion, CheckConclusion::kViolation);
  ASSERT_TRUE(viol.vector.has_value());
  ASSERT_TRUE(viol.violating_output.has_value());

  const auto clean = v.check_circuit(exact + 1);
  EXPECT_EQ(clean.conclusion, CheckConclusion::kNoViolation);
}

TEST(Verifier, TrivialOutputsSkippedViaSta) {
  Circuit c = gen::c17();
  c.set_uniform_delay(DelaySpec::fixed(10));
  Verifier v(c);
  // delta above topological: every output is skipped as trivially safe.
  const auto rep = v.check_circuit(topological_delay(c) + 1);
  EXPECT_EQ(rep.conclusion, CheckConclusion::kNoViolation);
  EXPECT_EQ(rep.backtracks, 0u);
}

TEST(Verifier, StagesDisabledFallThrough) {
  const Circuit c = gen::hrapcenko(10);
  VerifyOptions opt;
  opt.use_case_analysis = false;
  Verifier v(c, opt);
  const auto rep = v.check_output(*c.find_net("s"), Time(60));
  EXPECT_EQ(rep.conclusion, CheckConclusion::kPossible);
}

TEST(Verifier, NoLearningStillSound) {
  VerifyOptions opt;
  opt.use_learning = false;
  const Circuit c = gen::hrapcenko(10);
  Verifier v(c, opt);
  const auto res = v.exact_floating_delay();
  EXPECT_EQ(res.delay, Time(60));
}

TEST(Verifier, NoDominatorsStillSound) {
  VerifyOptions opt;
  opt.use_dominators = false;
  opt.case_analysis.dominators_in_search = false;
  Circuit c = gen::carry_skip_adder(8, 4);
  c.set_uniform_delay(DelaySpec::fixed(10));
  Verifier v(c, opt);
  const auto res = v.exact_floating_delay();
  EXPECT_EQ(res.delay, exhaustive_floating_delay(c, 17));
}

TEST(Verifier, NoStemCorrelationStillSound) {
  VerifyOptions opt;
  opt.use_stem_correlation = false;
  const Circuit c = gen::hrapcenko(10);
  Verifier v(c, opt);
  EXPECT_EQ(v.exact_floating_delay().delay, Time(60));
}

TEST(Verifier, AbandonedReportsUpperBoundOnly) {
  VerifyOptions opt;
  opt.case_analysis.max_backtracks = 0;
  Circuit c = gen::carry_skip_adder(16, 4);
  c.set_uniform_delay(DelaySpec::fixed(10));
  Verifier v(c, opt);
  const auto res = v.exact_floating_delay();
  // Either it still resolves every probe without backtracks or it reports
  // inexactness -- never a wrong "exact" claim above the true delay.
  if (!res.exact) {
    EXPECT_LE(res.delay, res.upper);
    EXPECT_LE(res.upper, res.topological);
  } else {
    EXPECT_LE(res.delay, res.topological);
    EXPECT_EQ(res.upper, res.delay);
  }
}

TEST(Verifier, WitnessWithoutConflictSkipsStems) {
  // c17 at its exact delay: the search reaches the witness without a
  // conflict, so stem correlation never runs. Its stage column reads P (a
  // sound stage cannot close a check that has a witness), and the search
  // is the one a run without stem correlation makes.
  Circuit c = gen::c17();
  c.set_uniform_delay(DelaySpec::fixed(10));
  ASSERT_FALSE(Verifier(c).reconvergent_stems().empty());
  const NetId out = *c.find_net("22");
  const Time delta = exhaustive_floating_delay(c);
  const auto rep = Verifier(c).check_output(out, delta);
  ASSERT_EQ(rep.conclusion, CheckConclusion::kViolation);
  EXPECT_EQ(rep.backtracks, 0u);
  EXPECT_EQ(rep.stems_processed, 0u);
  EXPECT_EQ(rep.after_stem, StageStatus::kPossible);

  VerifyOptions no_stems;
  no_stems.use_stem_correlation = false;
  const auto plain = Verifier(c, no_stems).check_output(out, delta);
  ASSERT_EQ(plain.conclusion, CheckConclusion::kViolation);
  EXPECT_EQ(plain.after_stem, StageStatus::kNotRun);
  EXPECT_EQ(rep.vector, plain.vector);
  EXPECT_EQ(rep.decisions, plain.decisions);
}

TEST(Verifier, AbandonedProbesBracketTheDelay) {
  const Circuit c = gen::hrapcenko(10);  // exact 60, topological 70
  Verifier v(c);
  const auto exact = v.exact_floating_delay();
  ASSERT_TRUE(exact.exact);
  EXPECT_EQ(exact.upper, exact.delay);

  // Probes at lo <= delta <= hi conclude 'A'; the others are real.
  const auto search = [&](std::int64_t lo, std::int64_t hi) {
    return v.exact_floating_delay([&, lo, hi](Time delta) {
      SuiteReport r = v.check_circuit(delta);
      if (delta.value() >= lo && delta.value() <= hi) {
        r.conclusion = CheckConclusion::kAbandoned;
      }
      return r;
    });
  };
  // Probes 65 (N), 62 (A), 61 (A): the smallest delta proved N is 65.
  const auto some = search(61, 63);
  EXPECT_FALSE(some.exact);
  EXPECT_EQ(some.delay, Time(60));
  EXPECT_EQ(some.upper, Time(64));
  // No probe proves N: the topological bound is all that is known.
  const auto none = search(61, 70);
  EXPECT_FALSE(none.exact);
  EXPECT_EQ(none.delay, Time(60));
  EXPECT_EQ(none.upper, Time(70));
}

TEST(Verifier, FormatVector) {
  EXPECT_EQ(format_vector({true, false, true, true}), "1011");
  EXPECT_EQ(format_vector({}), "");
}

TEST(Verifier, VectorSimSettleEqualsClaimedDelta) {
  // The witness at the exact delay must settle exactly at the exact delay.
  const Circuit c = gen::hrapcenko(10);
  Verifier v(c);
  const auto res = v.exact_floating_delay();
  ASSERT_TRUE(res.witness.has_value());
  const auto sim = simulate_floating(c, *res.witness);
  Time settle = Time::neg_inf();
  for (NetId o : c.outputs()) {
    settle = Time::max(settle, sim.settle[o.index()]);
  }
  EXPECT_EQ(settle, res.delay);
}

}  // namespace
}  // namespace waveck
