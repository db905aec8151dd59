#include "analysis/learning.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "constraints/projection.hpp"
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
  std::size_t probed_nets = 0;
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
    ++res.probed_nets;
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
/// counters. Returns the oracle's tallies.
OracleLearning expect_matches_oracle(const Circuit& c,
                                     const LearningOptions& opt,
                                     const std::string& label) {
  const LearningResult got = learn_implications(c, opt);
  OracleLearning want = oracle_learn(c, opt);
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
  return want;
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
  // A batch probes 32 nets (64 literals); most of these circuits end
  // inside one.
  std::size_t partial = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    gen::StructuredCircuitConfig rc;
    rc.inputs = 14;
    rc.gates = 60;
    rc.outputs = 4;
    rc.false_path_blocks = 1 + seed % 2;
    rc.seed = seed;
    const Circuit raw = gen::structured_random_circuit(rc);
    const std::string label = "seed " + std::to_string(seed);
    for (const Circuit& c :
         {map_to_nor(decompose_for_solver(raw)), decompose_for_solver(raw)}) {
      partial += c.num_nets() % 32 != 0 ? 1 : 0;
      expect_matches_oracle(c, {}, label + " nets " +
                                       std::to_string(c.num_nets()));
    }
  }
  EXPECT_GT(partial, 12u);
}

TEST(Learning, MatchesHashSetOracleOnXorMuxHeavyCircuits) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    gen::StructuredCircuitConfig rc;
    rc.inputs = 9 + static_cast<unsigned>(seed % 5);
    rc.gates = 40 + static_cast<unsigned>(seed * 7 % 31);
    rc.outputs = 3;
    rc.w_and = rc.w_or = rc.w_nand = rc.w_nor = 1;
    rc.w_xor = 6;
    rc.w_xnor = 4;
    rc.w_mux = 5;
    rc.false_path_blocks = seed % 3;
    rc.seed = seed;
    const Circuit raw = gen::structured_random_circuit(rc);
    const std::string label = "xor/mux seed " + std::to_string(seed);
    expect_matches_oracle(decompose_for_solver(raw), {}, label);
    expect_matches_oracle(map_to_nor(decompose_for_solver(raw)), {},
                          label + " mapped");
  }
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    gen::RandomCircuitConfig rc;
    rc.inputs = 6;
    rc.gates = 20 + static_cast<unsigned>(seed * 13 % 50);
    rc.seed = seed;
    rc.with_mux = true;
    expect_matches_oracle(decompose_for_solver(gen::random_circuit(rc)), {},
                          "random mux seed " + std::to_string(seed));
  }
}

TEST(Learning, MatchesHashSetOracleWithRepeatedPins) {
  // A gate that reads one net on two pins treats them as two variables of
  // its relation, as project_gate does, and the learner does not
  // re-evaluate a gate after its own narrowing: intersecting the pins
  // keeps a support for every surviving class. Inputs drawn only from the
  // newest two nets make such gates common.
  Circuit c("repeat");
  const NetId a = c.add_net("a"), b = c.add_net("b");
  const NetId x = c.add_net("x"), y = c.add_net("y"), z = c.add_net("z");
  c.declare_input(a);
  c.declare_input(b);
  c.add_gate(GateType::kXor, x, {a, a});
  c.add_gate(GateType::kAnd, y, {b, b});
  c.add_gate(GateType::kMux, z, {y, x, y});
  c.declare_output(z);
  c.finalize();
  expect_matches_oracle(c, {}, "repeated pins");
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    gen::StructuredCircuitConfig rc;
    rc.inputs = 4;
    rc.gates = 50;
    rc.outputs = 3;
    rc.reconvergence_percent = 100;
    rc.recent_window = 2;
    rc.w_mux = 3;
    rc.seed = seed;
    expect_matches_oracle(decompose_for_solver(gen::structured_random_circuit(rc)),
                          {}, "narrow window seed " + std::to_string(seed));
  }
}

TEST(Learning, MatchesHashSetOracleUnderImplicationCap) {
  const Circuit c880 = gen::prepare_for_experiment(gen::build_raw("c880"));
  gen::StructuredCircuitConfig rc;
  rc.inputs = 12;
  rc.gates = 90;
  rc.w_xor = 5;
  rc.w_mux = 3;
  rc.seed = 3;
  const Circuit xm = decompose_for_solver(gen::structured_random_circuit(rc));
  std::size_t mid_batch = 0;
  for (const Circuit* c : {&c880, &xm}) {
    for (const std::size_t cap : {1u, 7u, 100u, 333u, 1000u, 5000u, 12345u}) {
      LearningOptions opt;
      opt.max_implications = cap;
      const OracleLearning o =
          expect_matches_oracle(*c, opt, "cap " + std::to_string(cap));
      if (o.probed_nets < c->num_nets()) {
        EXPECT_GE(o.derived, cap);
        mid_batch += o.probed_nets % 32 != 0 ? 1 : 0;
      }
    }
  }
  EXPECT_GT(mid_batch, 3u) << "caps that stop probing inside a batch";
}

TEST(Learning, NetCountGuardMatchesOracle) {
  const Circuit c = gen::prepare_for_experiment(gen::build_raw("c432"));
  LearningOptions opt;
  opt.max_nets = c.num_nets();  // at the guard: learns
  EXPECT_GT(expect_matches_oracle(c, opt, "at guard").derived, 0u);
  opt.max_nets = c.num_nets() - 1;  // over it: nothing
  EXPECT_EQ(expect_matches_oracle(c, opt, "over guard").derived, 0u);
}

/// One class set per pin, pin 0 the output: bit v set iff class v allowed.
using ClassSets = std::vector<unsigned>;

AbstractSignal signal_of(unsigned set) {
  AbstractSignal s;
  for (const bool v : {false, true}) {
    if (((set >> (v ? 1 : 0)) & 1) == 0) s.cls(v) = LtInterval::empty();
  }
  return s;
}

unsigned set_of(const AbstractSignal& s) {
  return (s.cls(false).is_empty() ? 0u : 1u) | (s.cls(true).is_empty() ? 0u : 2u);
}

/// `project_gate` applied until nothing changes. Nullopt when some pin
/// empties; otherwise the class sets, after checking every interval
/// stayed top or empty.
std::optional<ClassSets> projected(GateType type, DelaySpec delay,
                                   const ClassSets& sets) {
  AbstractSignal out = signal_of(sets[0]);
  std::vector<AbstractSignal> ins;
  for (std::size_t i = 1; i < sets.size(); ++i) ins.push_back(signal_of(sets[i]));
  while (project_gate(type, delay, out, ins).any()) {
  }
  ClassSets res{set_of(out)};
  for (const AbstractSignal& in : ins) res.push_back(set_of(in));
  for (const AbstractSignal& s : ins) {
    for (const bool v : {false, true}) {
      EXPECT_TRUE(s.cls(v).is_empty() || s.cls(v).is_top());
    }
  }
  for (const bool v : {false, true}) {
    EXPECT_TRUE(out.cls(v).is_empty() || out.cls(v).is_top());
  }
  if (std::find(res.begin(), res.end(), 0u) != res.end()) return std::nullopt;
  return res;
}

/// Boolean generalized arc consistency by enumeration: a class survives
/// iff some full assignment of the gate supports it.
std::optional<ClassSets> enumerated(GateType type, const ClassSets& sets) {
  const std::size_t n = sets.size() - 1;
  ClassSets res(sets.size(), 0);
  std::vector<bool> in(n);
  for (std::uint64_t a = 0; a < (std::uint64_t{1} << n); ++a) {
    bool ok = true;
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = ((a >> i) & 1) != 0;
      ok = ok && ((sets[i + 1] >> (in[i] ? 1 : 0)) & 1) != 0;
    }
    const bool o = eval_gate(type, in);
    if (!ok || ((sets[0] >> (o ? 1 : 0)) & 1) == 0) continue;
    res[0] |= o ? 2u : 1u;
    for (std::size_t i = 0; i < n; ++i) res[i + 1] |= in[i] ? 2u : 1u;
  }
  if (std::find(res.begin(), res.end(), 0u) != res.end()) return std::nullopt;
  return res;
}

/// Runs `combos` through narrow_gate_classes 64 lanes at a time and
/// compares each lane with `want(combo)` (nullopt: the lane must lose
/// both classes of some pin).
template <class Want>
void expect_rule(GateType type, const std::vector<ClassSets>& combos,
                 Want&& want, const std::string& label) {
  const std::size_t pins = combos.front().size();
  std::size_t wrong = 0;
  for (std::size_t base = 0; base < combos.size(); base += 64) {
    const std::size_t lanes = std::min<std::size_t>(64, combos.size() - base);
    std::vector<ClassMasks> m(pins, ClassMasks{{0, 0}});
    for (std::size_t l = 0; l < lanes; ++l) {
      for (std::size_t p = 0; p < pins; ++p) {
        for (std::size_t v = 0; v < 2; ++v) {
          m[p].can[v] |= std::uint64_t{(combos[base + l][p] >> v) & 1u} << l;
        }
      }
    }
    narrow_gate_classes(type, m[0], std::span<ClassMasks>(m).subspan(1));
    for (std::size_t l = 0; l < lanes; ++l) {
      ClassSets got(pins);
      bool dead = false;
      for (std::size_t p = 0; p < pins; ++p) {
        got[p] = static_cast<unsigned>(((m[p].can[0] >> l) & 1) |
                                       (((m[p].can[1] >> l) & 1) << 1));
        dead = dead || got[p] == 0;
      }
      const std::optional<ClassSets> w = want(combos[base + l]);
      wrong += (w ? !dead && got == *w : dead) ? 0 : 1;
    }
  }
  EXPECT_EQ(wrong, 0u) << label << ": lanes that differ";
}

std::vector<ClassSets> every_combo(std::size_t pins) {
  std::vector<ClassSets> all{{}};
  for (std::size_t p = 0; p < pins; ++p) {
    std::vector<ClassSets> next;
    for (const ClassSets& prefix : all) {
      for (const unsigned set : {1u, 2u, 3u}) {
        next.push_back(prefix);
        next.back().push_back(set);
      }
    }
    all = std::move(next);
  }
  return all;
}

TEST(Learning, BitwiseRulesEqualProjectionFixpoint) {
  struct Case {
    GateType type;
    std::size_t lo, hi;  // arities project_gate takes
  };
  for (const Case& k : {Case{GateType::kAnd, 1, 4}, Case{GateType::kNand, 1, 4},
                        Case{GateType::kOr, 1, 4}, Case{GateType::kNor, 1, 4},
                        Case{GateType::kXor, 2, 2}, Case{GateType::kXnor, 2, 2},
                        Case{GateType::kNot, 1, 1}, Case{GateType::kBuf, 1, 1},
                        Case{GateType::kDelay, 1, 1}, Case{GateType::kMux, 3, 3}}) {
    for (std::size_t arity = k.lo; arity <= k.hi; ++arity) {
      const std::string label =
          std::string(to_string(k.type)) + "/" + std::to_string(arity);
      const auto combos = every_combo(arity + 1);
      for (const DelaySpec d : {DelaySpec::fixed(10), DelaySpec{2, 7}}) {
        expect_rule(k.type, combos,
                    [&](const ClassSets& s) { return projected(k.type, d, s); },
                    label);
      }
      expect_rule(k.type, combos,
                  [&](const ClassSets& s) { return enumerated(k.type, s); },
                  label + " enumerated");
    }
  }
  // Wide parity, which project_gate leaves to decomposition.
  for (const GateType t : {GateType::kXor, GateType::kXnor}) {
    for (std::size_t arity = 1; arity <= 4; ++arity) {
      expect_rule(t, every_combo(arity + 1),
                  [&](const ClassSets& s) { return enumerated(t, s); },
                  std::string(to_string(t)) + "/" + std::to_string(arity));
    }
  }
}

TEST(Learning, BitwiseRuleEqualsProjectionOnWideNor) {
  // 33 pins: seeded samples, mostly both classes, plus every single-pin
  // restriction.
  std::vector<ClassSets> combos;
  for (std::size_t p = 0; p <= kMaxGateFanin; ++p) {
    for (const unsigned set : {1u, 2u}) {
      combos.emplace_back(kMaxGateFanin + 1, 3u);
      combos.back()[p] = set;
    }
  }
  std::mt19937_64 rng(7);
  for (int i = 0; i < 64 * 40; ++i) {
    ClassSets s(kMaxGateFanin + 1);
    const unsigned narrow = static_cast<unsigned>(rng() % 8);
    for (unsigned& set : s) {
      set = rng() % 8 < narrow ? 1u + static_cast<unsigned>(rng() % 2) : 3u;
    }
    combos.push_back(std::move(s));
  }
  expect_rule(GateType::kNor, combos,
              [](const ClassSets& s) {
                return projected(GateType::kNor, DelaySpec::fixed(10), s);
              },
              "NOR/32");
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
