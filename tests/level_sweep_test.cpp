// The level-sweep drain: its fixpoint against a naive worklist over
// project_gate, on structured, NOR-mapped, XOR/MUX-heavy and wide-fan-in
// circuits.
#include <algorithm>
#include <deque>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "constraints/constraint_system.hpp"
#include "constraints/projection.hpp"
#include "gen/builder.hpp"
#include "gen/generators.hpp"
#include "gen/rng.hpp"
#include "netlist/topo_delay.hpp"
#include "netlist/transforms.hpp"

namespace waveck {
namespace {

/// Domain restrictions applied before the first drain: every input
/// floating, plus (optionally) one output asked to settle late.
using Restrictions = std::vector<std::pair<NetId, AbstractSignal>>;

/// Naive worklist fixpoint straight over Gate objects and project_gate:
/// the reference the level-sweep engine must reproduce exactly.
std::vector<AbstractSignal> reference_fixpoint(const Circuit& c,
                                               const Restrictions& r) {
  std::vector<AbstractSignal> dom(c.num_nets(), AbstractSignal::top());
  for (const auto& [n, s] : r) dom[n.index()] = dom[n.index()].intersect(s);
  std::deque<GateId> work;
  std::vector<char> inq(c.num_gates(), 0);
  for (GateId g : c.topo_order()) {
    work.push_back(g);
    inq[g.index()] = 1;
  }
  const auto push_net = [&](NetId n) {
    const auto pushg = [&](GateId g) {
      if (!inq[g.index()]) {
        inq[g.index()] = 1;
        work.push_back(g);
      }
    };
    if (c.net(n).driver.valid()) pushg(c.net(n).driver);
    for (GateId f : c.net(n).fanouts) pushg(f);
  };
  while (!work.empty()) {
    const GateId gid = work.front();
    work.pop_front();
    inq[gid.index()] = 0;
    const Gate& g = c.gate(gid);
    AbstractSignal out = dom[g.out.index()];
    std::vector<AbstractSignal> ins;
    for (NetId in : g.ins) ins.push_back(dom[in.index()]);
    const ProjectionDelta delta = project_gate(g.type, g.delay, out, ins);
    if (delta.out_changed) {
      dom[g.out.index()] = dom[g.out.index()].intersect(out);
      push_net(g.out);
    }
    for (std::size_t i = 0; i < ins.size(); ++i) {
      if (delta.in_changed(i)) {
        dom[g.ins[i].index()] = dom[g.ins[i].index()].intersect(ins[i]);
        push_net(g.ins[i]);
      }
    }
  }
  return dom;
}

/// One engine-vs-reference input circuit.
struct KernelCase {
  enum Family : std::uint8_t { kStructured, kNorMapped, kXorMux, kWideFanin };
  Family family;
  std::uint64_t seed;
};

/// The structured family prints as its bare seed, so its test names stay
/// `.../1` .. `.../12`; the others carry a family prefix.
void PrintTo(const KernelCase& k, std::ostream* os) {
  constexpr const char* kPrefix[] = {"", "nor_", "xor_mux_", "wide_"};
  *os << kPrefix[k.family] << k.seed;
}

/// AND/NAND/OR/NOR gates over a pool of the inputs and earlier outputs:
/// two of every three have fan-in 9..16, the rest 2; delays are intervals.
Circuit wide_fanin_circuit(std::uint64_t seed) {
  gen::Rng rng(seed);
  gen::detail::Builder b("wide_fanin");
  std::vector<NetId> pool;
  for (unsigned i = 0; i < 20; ++i) {
    pool.push_back(b.input("i" + std::to_string(i)));
  }
  const GateType kinds[] = {GateType::kAnd, GateType::kNand, GateType::kOr,
                            GateType::kNor};
  for (unsigned g = 0; g < 24; ++g) {
    const bool wide = g % 3 != 2;
    const std::size_t arity = wide ? 9 + rng.below(8) : 2;
    std::vector<NetId> ins;
    while (ins.size() < arity) {
      const NetId pick = pool[rng.below(pool.size())];
      if (std::find(ins.begin(), ins.end(), pick) == ins.end()) {
        ins.push_back(pick);
      }
    }
    pool.push_back(b.op(kinds[rng.below(4)], std::move(ins)));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    b.c.declare_output(pool[pool.size() - 1 - i]);
  }
  for (GateId g : b.c.all_gates()) {
    const std::int64_t dmax = 1 + static_cast<std::int64_t>(rng.below(10));
    b.c.gate_mut(g).delay =
        DelaySpec(static_cast<std::int64_t>(rng.below(dmax + 1)), dmax);
  }
  b.c.finalize();
  return std::move(b.c);
}

Circuit make_circuit(const KernelCase& k) {
  gen::StructuredCircuitConfig cfg;
  cfg.seed = k.seed * 131 + 5;
  cfg.gates = 60;
  switch (k.family) {
    case KernelCase::kStructured:
      return gen::structured_random_circuit(cfg);
    case KernelCase::kNorMapped: {
      Circuit c = map_to_nor(gen::structured_random_circuit(cfg));
      c.set_uniform_delay(DelaySpec::fixed(10));
      return c;
    }
    case KernelCase::kXorMux:
      cfg.w_and = cfg.w_or = cfg.w_nand = cfg.w_nor = 1;
      cfg.w_xor = 4;
      cfg.w_xnor = 3;
      cfg.w_mux = 4;
      cfg.delay_intervals = true;
      return gen::structured_random_circuit(cfg);
    case KernelCase::kWideFanin:
      return wide_fanin_circuit(k.seed);
  }
  return {};
}

class KernelEquivalence : public ::testing::TestWithParam<KernelCase> {};

TEST_P(KernelEquivalence, BatchedSweepMatchesNaiveWorklist) {
  const Circuit c = make_circuit(GetParam());
  Restrictions floating;
  for (NetId in : c.inputs()) {
    floating.emplace_back(in, AbstractSignal::floating_input());
  }
  // Second round: one output must settle at or after half the topological
  // delay, which drives the backward rules.
  Restrictions late = floating;
  const Time topo = topological_delay(c);
  late.emplace_back(c.outputs().front(),
                    AbstractSignal::violating(
                        Time(topo.is_finite() ? topo.value() / 2 : 0)));

  for (const Restrictions* r : {&floating, &late}) {
    const auto ref = reference_fixpoint(c, *r);
    ConstraintSystem cs(c);
    for (const auto& [n, s] : *r) cs.restrict_domain(n, s);
    cs.schedule_all();
    if (cs.reach_fixpoint() == ConstraintSystem::Status::kNoViolation) {
      // The engine stops at its first empty domain; that net is empty in
      // the greatest fixpoint too.
      bool ref_bottom = false;
      for (NetId n : c.all_nets()) {
        if (cs.domain(n).is_bottom()) {
          ASSERT_TRUE(ref[n.index()].is_bottom()) << "net " << c.net(n).name;
          ref_bottom = true;
        }
      }
      ASSERT_TRUE(ref_bottom);
      continue;
    }
    for (NetId n : c.all_nets()) {
      ASSERT_EQ(cs.domain(n), ref[n.index()])
          << (r == &late ? "late output, " : "") << "net "
          << c.net(n).name;
    }
  }
}

std::vector<KernelCase> kernel_cases() {
  std::vector<KernelCase> cases;
  for (std::uint64_t s = 1; s <= 12; ++s) {
    cases.push_back({KernelCase::kStructured, s});
  }
  for (const auto f : {KernelCase::kNorMapped, KernelCase::kXorMux,
                       KernelCase::kWideFanin}) {
    for (std::uint64_t s = 1; s <= 4; ++s) cases.push_back({f, s});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelEquivalence,
                         ::testing::ValuesIn(kernel_cases()));

}  // namespace
}  // namespace waveck
