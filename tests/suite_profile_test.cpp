// Integration regression: the Table-1 suite's stage profile must match the
// paper's (which pruning stage closes which circuit). Guards the experiment
// harness against silent drift. The two big circuits (c6288/c7552 class)
// are exercised in the bench harness instead -- this test keeps the ctest
// wall-clock short.
#include <gtest/gtest.h>

#include <ostream>

#include "gen/iscas_suite.hpp"
#include "netlist/topo_delay.hpp"
#include "verify/verifier.hpp"

namespace waveck {
namespace {

struct Expectation {
  const char* name;
  // Stage that first proves the delta = exact + 1 row, as in Table 1:
  // "sta" (exact == top: nothing to prove), "narrow", "gitd", "stem".
  const char* closes;
};

// Prints the contents, not the raw bytes: gtest puts the printed parameter
// into the discovered ctest name, and the bytes of a const char* are an
// address that changes from run to run.
void PrintTo(const Expectation& e, std::ostream* os) {
  *os << "{" << e.name << ", " << e.closes << "}";
}

class SuiteProfile : public ::testing::TestWithParam<Expectation> {};

TEST_P(SuiteProfile, MatchesPaperTable1) {
  const auto& exp = GetParam();
  const Circuit c = gen::prepare_for_experiment(gen::build_raw(exp.name));
  VerifyOptions opt;
  opt.case_analysis.max_backtracks = 20000;
  Verifier v(c, opt);
  const auto exact = v.exact_floating_delay();
  ASSERT_TRUE(exact.exact) << exp.name;

  if (std::string(exp.closes) == "sta") {
    EXPECT_EQ(exact.delay, exact.topological) << exp.name;
    // Witness row exists with few backtracks; its stem column reads P
    // whether or not its checks ran stems.
    const auto at = v.check_circuit(exact.delay);
    EXPECT_EQ(at.conclusion, CheckConclusion::kViolation) << exp.name;
    EXPECT_LE(at.backtracks, 32u) << exp.name;
    EXPECT_EQ(at.after_stem, StageStatus::kPossible) << exp.name;
    return;
  }

  ASSERT_LT(exact.delay, exact.topological) << exp.name;
  const Time delta = exact.delay + 1;
  auto closes = [&](bool gitd, bool stems) {
    VerifyOptions o;
    o.use_dominators = gitd;
    o.use_stem_correlation = stems;
    o.use_case_analysis = false;
    Verifier vv(c, o);
    return vv.check_circuit(delta).conclusion ==
           CheckConclusion::kNoViolation;
  };
  const bool narrow = closes(false, false);
  const bool gitd = closes(true, false);
  const bool stems = closes(true, true);
  const std::string want = exp.closes;
  if (want == "narrow") {
    EXPECT_TRUE(narrow) << exp.name;
  } else if (want == "gitd") {
    EXPECT_FALSE(narrow) << exp.name;
    EXPECT_TRUE(gitd) << exp.name;
  } else if (want == "stem") {
    EXPECT_FALSE(narrow) << exp.name;
    EXPECT_FALSE(gitd) << exp.name;
    EXPECT_TRUE(stems) << exp.name;
    // The full pipeline runs stems only at the search's first conflict,
    // and they still close the row before any backtrack: (P, P, N).
    const auto row = v.check_circuit(delta);
    EXPECT_EQ(row.conclusion, CheckConclusion::kNoViolation) << exp.name;
    EXPECT_EQ(row.after_gitd, StageStatus::kPossible) << exp.name;
    EXPECT_EQ(row.after_stem, StageStatus::kNoViolation) << exp.name;
    EXPECT_EQ(row.backtracks, 0u) << exp.name;
    bool stem_closed = false;
    for (const CheckReport& r : row.per_output) {
      if (r.after_stem != StageStatus::kNoViolation) continue;
      stem_closed = true;
      // Stems ran because the first search pass took decisions into a
      // conflict; that pass took no backtrack.
      EXPECT_GT(r.stems_processed, 0u) << exp.name;
      EXPECT_GT(r.decisions, 0u) << exp.name;
      EXPECT_EQ(r.backtracks, 0u) << exp.name;
    }
    EXPECT_TRUE(stem_closed) << exp.name;
  } else {
    FAIL() << "bad expectation " << want;
  }

  // Witness row: a validated vector at the exact delay.
  const auto at = v.check_circuit(exact.delay);
  EXPECT_EQ(at.conclusion, CheckConclusion::kViolation) << exp.name;
  EXPECT_EQ(at.after_stem, StageStatus::kPossible) << exp.name;
}

INSTANTIATE_TEST_SUITE_P(
    Table1, SuiteProfile,
    ::testing::Values(Expectation{"c17", "sta"},     //
                      Expectation{"c432", "sta"},    //
                      Expectation{"c499", "sta"},    //
                      Expectation{"c880", "sta"},    //
                      Expectation{"c1355", "sta"},   //
                      Expectation{"c1908", "gitd"},  // paper: G.I.T.D.
                      Expectation{"c2670", "stem"},  // paper: stem corr.
                      Expectation{"c3540", "gitd"},  // paper: G.I.T.D.
                      Expectation{"c5315", "narrow"}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace waveck
