#include "analysis/learning.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "gen/generators.hpp"
#include "gen/iscas_suite.hpp"
#include "netlist/transforms.hpp"

namespace waveck {
namespace {

/// The hash-set learner the flat one replaced, kept as an oracle of the full
/// SOCRATES closure: every fact a probe derives and its contrapositive,
/// deduplicated through a set of packed keys, in insertion order. Probing
/// stops once `derived` (every fact found, duplicates included) reaches the
/// cap, as in the learner.
struct OracleLearning {
  std::vector<ImplicationTable::Implication> closure;
  std::unordered_set<std::uint64_t> direct;  // pair keys of derived facts
  std::vector<std::pair<NetId, bool>> impossible;
  std::size_t derived = 0;
};

std::uint64_t oracle_key(NetId y, bool v) {
  return (std::uint64_t{y.value()} << 1) | (v ? 1 : 0);
}

std::uint64_t pair_key(NetId y, bool v, NetId x, bool w) {
  return (oracle_key(y, v) << 32) | oracle_key(x, w);
}

OracleLearning oracle_learn(const Circuit& c, const LearningOptions& opt) {
  OracleLearning res;
  if (c.num_nets() > opt.max_nets) return res;
  ConstraintSystem cs(c);
  std::unordered_set<std::uint64_t> seen;
  const auto add = [&](NetId y, bool v, NetId x, bool w) {
    if (seen.insert(pair_key(y, v, x, w)).second) {
      res.closure.push_back({y, v, {x, w}});
    }
  };
  for (NetId y : c.all_nets()) {
    if (res.derived >= opt.max_implications) break;
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
        ++res.derived;
        res.direct.insert(pair_key(y, vy, x, wx));
        add(y, vy, x, wx);
        add(x, !wx, y, !vy);
      }
      cs.pop_to(mark);
    }
  }
  return res;
}

/// The part of the closure propagation cannot rederive: every pair no probe
/// derived, grouped per antecedent in closure order.
std::unordered_map<std::uint64_t, std::vector<ImplicationTable::Consequence>>
oracle_kept(const OracleLearning& o) {
  std::unordered_map<std::uint64_t,
                     std::vector<ImplicationTable::Consequence>> kept;
  for (const auto& [y, v, then] : o.closure) {
    if (!o.direct.contains(pair_key(y, v, then.net, then.cls))) {
      kept[oracle_key(y, v)].push_back(then);
    }
  }
  return kept;
}

/// Same kept consequences in the same order for every literal, same
/// counters. Returns the number of derived facts.
std::size_t expect_matches_oracle(const Circuit& c, const LearningOptions& opt,
                                  const std::string& label) {
  const LearningResult got = learn_implications(c, opt);
  const OracleLearning want = oracle_learn(c, opt);
  const auto kept = oracle_kept(want);
  std::size_t kept_size = 0;
  for (const auto& [lit, cons] : kept) kept_size += cons.size();
  EXPECT_EQ(got.table.size(), kept_size) << label;
  EXPECT_EQ(got.derived, want.derived) << label;
  EXPECT_EQ(got.impossible, want.impossible) << label;
  std::size_t mismatched = 0;
  for (NetId y : c.all_nets()) {
    for (const bool v : {false, true}) {
      const auto of = got.table.of(y, v);
      const auto it = kept.find(oracle_key(y, v));
      const std::size_t n = it == kept.end() ? 0 : it->second.size();
      bool same = of.size() == n;
      for (std::size_t i = 0; same && i < n; ++i) {
        same = of[i].net == it->second[i].net && of[i].cls == it->second[i].cls;
      }
      mismatched += same ? 0 : 1;
    }
  }
  EXPECT_EQ(mismatched, 0u) << label << ": literals whose consequences differ";
  return got.derived;
}

/// Decides `cls` of `n` on both systems and drains them; the pruned table
/// and the full closure must reach the same status and, unless the drain
/// hit a conflict, the same domains.
void expect_same_decision(const Circuit& c, ConstraintSystem& pruned,
                          ConstraintSystem& full, NetId n, bool cls,
                          const std::string& label) {
  pruned.restrict_domain(n, AbstractSignal::class_only(cls));
  full.restrict_domain(n, AbstractSignal::class_only(cls));
  const auto status = pruned.reach_fixpoint();
  ASSERT_EQ(status, full.reach_fixpoint()) << label;
  // A drain that empties a domain stops after that level sweep, so the
  // domains it leaves depend on the evaluation order; the search only
  // backtracks from them. Every other return is the greatest fixpoint.
  if (status == ConstraintSystem::Status::kNoViolation) return;
  std::size_t differing = 0;
  for (NetId x : c.all_nets()) {
    differing += pruned.domain(x) == full.domain(x) ? 0 : 1;
  }
  EXPECT_EQ(differing, 0u) << label << ": nets whose domains differ";
}

/// Seeded random class-decision sequences: 24 decisions each, a decision
/// that conflicts is undone, and every sequence starts again from the root.
void expect_same_fixpoints(const Circuit& c, std::uint64_t seed,
                           const std::string& label) {
  const LearningResult learned = learn_implications(c);
  const ImplicationTable closure(c.num_nets(), oracle_learn(c, {}).closure);
  ASSERT_LT(learned.table.size(), closure.size()) << label;
  ConstraintSystem pruned(c), full(c);
  pruned.set_implications(&learned.table);
  full.set_implications(&closure);
  std::mt19937_64 rng(seed);
  for (int sequence = 0; sequence < 8; ++sequence) {
    const auto root = pruned.push_state();
    const auto full_root = full.push_state();
    for (int depth = 0; depth < 24; ++depth) {
      const NetId n{static_cast<std::size_t>(rng() % c.num_nets())};
      const bool cls = (rng() & 1) != 0;
      const auto mark = pruned.push_state();
      const auto full_mark = full.push_state();
      expect_same_decision(c, pruned, full, n, cls,
                           label + " sequence " + std::to_string(sequence) +
                               " depth " + std::to_string(depth));
      if (pruned.inconsistent()) {
        pruned.pop_to(mark);
        full.pop_to(full_mark);
      }
    }
    pruned.pop_to(root);
    full.pop_to(full_root);
  }
}

bool implies(const ImplicationTable& t, NetId y, bool v, NetId x, bool w) {
  for (const auto& cons : t.of(y, v)) {
    if (cons.net == x && cons.cls == w) return true;
  }
  return false;
}

/// True iff deciding y=v on a fresh system (no table) collapses x to w.
bool propagates(const Circuit& c, NetId y, bool v, NetId x, bool w) {
  ConstraintSystem cs(c);
  cs.restrict_domain(y, AbstractSignal::class_only(v));
  if (cs.reach_fixpoint() == ConstraintSystem::Status::kNoViolation) {
    return false;
  }
  const AbstractSignal& d = cs.domain(x);
  return d.single_class() && d.the_class() == w;
}

/// Propagation derives (y=v => x=w), so the table does not store it.
void expect_rederived_not_stored(const Circuit& c, const LearningResult& res,
                                 NetId y, bool v, NetId x, bool w) {
  EXPECT_TRUE(propagates(c, y, v, x, w));
  EXPECT_FALSE(implies(res.table, y, v, x, w));
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
  expect_rederived_not_stored(c, res, y, false, a, true);
  expect_rederived_not_stored(c, res, y, false, b, true);
  expect_rederived_not_stored(c, res, y, false, x, true);
  // Forward: a=0 => x=0 => y=1.
  expect_rederived_not_stored(c, res, a, false, y, true);
  EXPECT_TRUE(res.impossible.empty());
  // Every fact of a fanout-free circuit is local: nothing is stored.
  EXPECT_GT(res.derived, 0u);
  EXPECT_EQ(res.table.size(), 0u);
}

TEST(Learning, ContrapositivesRecorded) {
  // a=0 => x=1 and its contrapositive x=0 => a=1 are both found directly
  // by propagation, so neither is recorded.
  Circuit c("c");
  const NetId a = c.add_net("a"), x = c.add_net("x");
  c.declare_input(a);
  c.add_gate(GateType::kNot, x, {a});
  c.declare_output(x);
  c.finalize();
  const LearningResult res = learn_implications(c);
  expect_rederived_not_stored(c, res, a, false, x, true);
  expect_rederived_not_stored(c, res, x, false, a, true);
  EXPECT_EQ(res.derived, 4u);
  EXPECT_EQ(res.table.size(), 0u);
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
  // A lone input feeding a buffer: a=0 => z=0 is rederived by propagation,
  // so not stored; nothing is implied by the unrelated input b, and a
  // default table answers every literal.
  Circuit c("lone");
  const NetId a = c.add_net("a"), b = c.add_net("b"), z = c.add_net("z");
  c.declare_input(a);
  c.declare_input(b);
  c.add_gate(GateType::kBuf, z, {a});
  c.declare_output(z);
  c.declare_output(b);
  c.finalize();
  const LearningResult res = learn_implications(c);
  expect_rederived_not_stored(c, res, a, false, z, false);
  EXPECT_TRUE(res.table.of(a, false).empty());
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

TEST(Learning, MatchesHashSetOracleUnderImplicationCap) {
  for (const std::size_t cap : {1u, 100u, 5000u}) {
    LearningOptions opt;
    opt.max_implications = cap;
    const Circuit c = gen::prepare_for_experiment(gen::build_raw("c880"));
    EXPECT_GE(expect_matches_oracle(c, opt, "cap " + std::to_string(cap)), cap);
  }
}

TEST(Learning, PrunedTableReachesTheSameFixpoint) {
  for (const char* name : {"c17", "c432", "c499", "c880", "c1908"}) {
    const Circuit c = gen::prepare_for_experiment(gen::build_raw(name));
    expect_same_fixpoints(c, 1, name);
  }
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    gen::StructuredCircuitConfig rc;
    rc.inputs = 14;
    rc.gates = 60;
    rc.outputs = 4;
    rc.false_path_blocks = 1 + seed % 2;
    rc.seed = seed;
    const Circuit raw = gen::structured_random_circuit(rc);
    const std::string label = "seed " + std::to_string(seed);
    expect_same_fixpoints(map_to_nor(decompose_for_solver(raw)), seed, label);
    expect_same_fixpoints(decompose_for_solver(raw), seed, label + " unmapped");
  }
}

}  // namespace
}  // namespace waveck
