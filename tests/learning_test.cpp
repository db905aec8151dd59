#include "analysis/learning.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "gen/generators.hpp"
#include "gen/iscas_suite.hpp"
#include "netlist/transforms.hpp"

namespace waveck {
namespace {

/// The hash-set learner the flat one replaced, kept as an oracle: every
/// (y=v => x=w) pair is deduplicated through a set of packed keys, and
/// consequences are grouped per antecedent in a hash map, in insertion order.
struct OracleLearning {
  std::unordered_map<std::uint64_t, std::vector<ImplicationTable::Consequence>>
      table;
  std::size_t size = 0;
  std::vector<std::pair<NetId, bool>> impossible;
  std::size_t direct = 0;
  std::size_t contrapositive = 0;
};

std::uint64_t oracle_key(NetId y, bool v) {
  return (std::uint64_t{y.value()} << 1) | (v ? 1 : 0);
}

OracleLearning oracle_learn(const Circuit& c, const LearningOptions& opt) {
  OracleLearning res;
  if (c.num_nets() > opt.max_nets) return res;
  const auto pair_key = [](NetId y, bool v, NetId x, bool w) {
    return (std::uint64_t{y.value()} << 33) | (std::uint64_t{v} << 32) |
           (std::uint64_t{x.value()} << 1) | std::uint64_t{w};
  };
  const auto add = [&](NetId y, bool v, NetId x, bool w) {
    res.table[oracle_key(y, v)].push_back({x, w});
    ++res.size;
  };
  ConstraintSystem cs(c);
  std::unordered_set<std::uint64_t> seen;
  for (NetId y : c.all_nets()) {
    if (res.size >= opt.max_implications) break;
    for (int v = 0; v <= 1; ++v) {
      const bool vy = v != 0;
      const auto mark = cs.push_state();
      cs.restrict_domain(y, AbstractSignal::class_only(vy));
      if (cs.reach_fixpoint() == ConstraintSystem::Status::kNoViolation) {
        res.impossible.emplace_back(y, vy);
        cs.pop_to(mark);
        continue;
      }
      for (std::size_t i = mark; i < cs.trail_size(); ++i) {
        const NetId x = cs.trail_net(i);
        if (x == y) continue;
        const AbstractSignal d = cs.domain(x);
        if (!d.single_class()) continue;
        const bool wx = d.the_class();
        if (seen.insert(pair_key(y, vy, x, wx)).second) {
          add(y, vy, x, wx);
          ++res.direct;
        }
        if (opt.contrapositives &&
            seen.insert(pair_key(x, !wx, y, !vy)).second) {
          add(x, !wx, y, !vy);
          ++res.contrapositive;
        }
      }
      cs.pop_to(mark);
    }
  }
  return res;
}

/// Same consequences in the same order for every literal, same counters.
/// Returns the learned table's size.
std::size_t expect_matches_oracle(const Circuit& c, const LearningOptions& opt,
                                  const std::string& label) {
  const LearningResult got = learn_implications(c, opt);
  const OracleLearning want = oracle_learn(c, opt);
  EXPECT_EQ(got.table.size(), want.size) << label;
  EXPECT_EQ(got.direct, want.direct) << label;
  EXPECT_EQ(got.contrapositive, want.contrapositive) << label;
  EXPECT_EQ(got.impossible, want.impossible) << label;
  std::size_t mismatched = 0;
  for (NetId y : c.all_nets()) {
    for (const bool v : {false, true}) {
      const auto of = got.table.of(y, v);
      const auto it = want.table.find(oracle_key(y, v));
      const std::size_t n = it == want.table.end() ? 0 : it->second.size();
      bool same = of.size() == n;
      for (std::size_t i = 0; same && i < n; ++i) {
        same = of[i].net == it->second[i].net && of[i].cls == it->second[i].cls;
      }
      mismatched += same ? 0 : 1;
    }
  }
  EXPECT_EQ(mismatched, 0u) << label << ": literals whose consequences differ";
  return got.table.size();
}

bool implies(const ImplicationTable& t, NetId y, bool v, NetId x, bool w) {
  for (const auto& cons : t.of(y, v)) {
    if (cons.net == x && cons.cls == w) return true;
  }
  return false;
}

TEST(Learning, ChainImplications) {
  // y = NOT(AND(a, b)): y=0 => a=1 and b=1.
  Circuit c("chain");
  const NetId a = c.add_net("a"), b = c.add_net("b");
  const NetId x = c.add_net("x"), y = c.add_net("y");
  c.declare_input(a);
  c.declare_input(b);
  c.add_gate(GateType::kAnd, x, {a, b});
  c.add_gate(GateType::kNot, y, {x});
  c.declare_output(y);
  c.finalize();

  const LearningResult res = learn_implications(c);
  EXPECT_TRUE(implies(res.table, y, false, a, true));
  EXPECT_TRUE(implies(res.table, y, false, b, true));
  EXPECT_TRUE(implies(res.table, y, false, x, true));
  // Forward: a=0 => x=0 => y=1.
  EXPECT_TRUE(implies(res.table, a, false, y, true));
  EXPECT_TRUE(res.impossible.empty());
}

TEST(Learning, ContrapositivesRecorded) {
  Circuit c("c");
  const NetId a = c.add_net("a"), x = c.add_net("x");
  c.declare_input(a);
  c.add_gate(GateType::kNot, x, {a});
  c.declare_output(x);
  c.finalize();
  const LearningResult res = learn_implications(c);
  // a=0 => x=1, contrapositive x=0 => a=1 (also found directly here).
  EXPECT_TRUE(implies(res.table, a, false, x, true));
  EXPECT_TRUE(implies(res.table, x, false, a, true));
  EXPECT_GT(res.direct, 0u);
}

TEST(Learning, ConstantNetClassImpossible) {
  // x = AND(a, NOT a) is constant 0: class 1 is impossible.
  Circuit c("const0");
  const NetId a = c.add_net("a"), na = c.add_net("na"), x = c.add_net("x");
  c.declare_input(a);
  c.add_gate(GateType::kNot, na, {a});
  c.add_gate(GateType::kAnd, x, {a, na});
  c.declare_output(x);
  c.finalize();
  const LearningResult res = learn_implications(c);
  bool found = false;
  for (const auto& [net, cls] : res.impossible) {
    found |= (net == x && cls == true);
  }
  EXPECT_TRUE(found);
}

TEST(Learning, NonLocalImplicationThroughReconvergence) {
  // The SOCRATES classic: z = AND(a, b) OR AND(a, c) ... z=1 => a=1 is
  // non-local (needs the OR's case split); the contrapositive a=0 => z=0 IS
  // local, so learning must expose z=1 => a=1 via contrapositive storage.
  Circuit c("socrates");
  const NetId a = c.add_net("a"), b = c.add_net("b"), d = c.add_net("d");
  const NetId x = c.add_net("x"), y = c.add_net("y"), z = c.add_net("z");
  c.declare_input(a);
  c.declare_input(b);
  c.declare_input(d);
  c.add_gate(GateType::kAnd, x, {a, b});
  c.add_gate(GateType::kAnd, y, {a, d});
  c.add_gate(GateType::kOr, z, {x, y});
  c.declare_output(z);
  c.finalize();
  const LearningResult res = learn_implications(c);
  EXPECT_TRUE(implies(res.table, z, true, a, true));
}

TEST(Learning, SizeGuardSkipsHugeCircuits) {
  const Circuit c = gen::c17();
  LearningOptions opt;
  opt.max_nets = 1;  // force skip
  const LearningResult res = learn_implications(c, opt);
  EXPECT_EQ(res.table.size(), 0u);
}

TEST(Learning, NorMappedC17HasImplications) {
  const Circuit c = map_to_nor(gen::c17());
  const LearningResult res = learn_implications(c);
  EXPECT_GT(res.table.size(), 0u);
}

TEST(Learning, EmptySpanForLiteralWithoutConsequences) {
  // A lone input feeding a buffer: a=0 => z=0, but nothing is implied by
  // the unrelated input b, and a default table answers every literal.
  Circuit c("lone");
  const NetId a = c.add_net("a"), b = c.add_net("b"), z = c.add_net("z");
  c.declare_input(a);
  c.declare_input(b);
  c.add_gate(GateType::kBuf, z, {a});
  c.declare_output(z);
  c.declare_output(b);
  c.finalize();
  const LearningResult res = learn_implications(c);
  EXPECT_FALSE(res.table.of(a, false).empty());
  EXPECT_TRUE(res.table.of(b, false).empty());
  EXPECT_TRUE(res.table.of(b, true).empty());
  const ImplicationTable none;
  EXPECT_TRUE(none.of(a, true).empty());
  EXPECT_EQ(none.size(), 0u);
}

TEST(Learning, MatchesHashSetOracleOnSuite) {
  for (const char* name : {"c17", "c432", "c499", "c880", "c1355", "c1908",
                           "c2670", "c3540", "c5315", "c6288", "c7552"}) {
    const Circuit c = gen::prepare_for_experiment(gen::build_raw(name));
    expect_matches_oracle(c, {}, name);
  }
}

TEST(Learning, MatchesHashSetOracleOnRandomCircuits) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    gen::StructuredCircuitConfig rc;
    rc.inputs = 14;
    rc.gates = 60;
    rc.outputs = 4;
    rc.false_path_blocks = 1 + seed % 2;
    rc.seed = seed;
    const Circuit raw = gen::structured_random_circuit(rc);
    const std::string label = "seed " + std::to_string(seed);
    expect_matches_oracle(map_to_nor(decompose_for_solver(raw)), {}, label);
    expect_matches_oracle(decompose_for_solver(raw), {}, label + " unmapped");
  }
}

TEST(Learning, MatchesHashSetOracleWithoutContrapositives) {
  LearningOptions opt;
  opt.contrapositives = false;
  for (const char* name : {"c432", "c880", "c1908"}) {
    const Circuit c = gen::prepare_for_experiment(gen::build_raw(name));
    expect_matches_oracle(c, opt, name);
  }
}

TEST(Learning, MatchesHashSetOracleUnderImplicationCap) {
  for (const std::size_t cap : {1u, 100u, 5000u}) {
    LearningOptions opt;
    opt.max_implications = cap;
    const Circuit c = gen::prepare_for_experiment(gen::build_raw("c880"));
    EXPECT_GE(expect_matches_oracle(c, opt, "cap " + std::to_string(cap)), cap);
  }
}

}  // namespace
}  // namespace waveck
