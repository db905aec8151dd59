// SoA domain planes and the level-sweep drain: encoding round-trips,
// sentinel saturation at the Time range edges, plane-predicate parity with
// the AbstractSignal definitions, and the drain's fixpoint against a naive
// worklist over project_gate.
#include <algorithm>
#include <deque>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "constraints/constraint_system.hpp"
#include "constraints/projection.hpp"
#include "constraints/soa_domain.hpp"
#include "gen/builder.hpp"
#include "gen/generators.hpp"
#include "gen/rng.hpp"
#include "netlist/topo_delay.hpp"
#include "netlist/transforms.hpp"
#include "waveform/soa_encoding.hpp"

namespace waveck {
namespace {

TEST(SoaEncoding, SentinelsMatchTimeRawBounds) {
  EXPECT_EQ(soa::kNegInf, Time::kRawNegInf);
  EXPECT_EQ(soa::kPosInf, Time::kRawPosInf);
  EXPECT_EQ(Time::neg_inf().raw(), soa::kNegInf);
  EXPECT_EQ(Time::pos_inf().raw(), soa::kPosInf);
  // Sentinels sit at INT64_MIN/4..INT64_MAX/4: adding any two raw values
  // (or a raw value and a negated one) can never overflow int64.
  EXPECT_GT(soa::kNegInf, INT64_MIN / 2);
  EXPECT_LT(soa::kPosInf, INT64_MAX / 2);
}

TEST(SoaEncoding, SaturatingAddKeepsInfinitiesSticky) {
  // Infinities absorb any finite shift, exactly like Time::operator+.
  EXPECT_EQ(soa::sat_add(soa::kNegInf, 1000), soa::kNegInf);
  EXPECT_EQ(soa::sat_add(soa::kNegInf, -1000), soa::kNegInf);
  EXPECT_EQ(soa::sat_add(soa::kPosInf, 1000), soa::kPosInf);
  EXPECT_EQ(soa::sat_add(soa::kPosInf, -1000), soa::kPosInf);
  EXPECT_EQ(soa::sat_add(5, 7), 12);
  EXPECT_EQ(soa::sat_add(-5, -7), -12);
}

TEST(SoaEncoding, FiniteValuesNearSentinelsStayFinite) {
  // The largest finite raw values: one inside each sentinel. A delay shift
  // never overflows int64 because sentinels sit at INT64_MIN/4..MAX/4 and
  // finite deltas are circuit delays (tiny by comparison); the algebra must
  // not confuse these extremes with the infinities themselves.
  const std::int64_t lo_edge = soa::kNegInf + 1;
  const std::int64_t hi_edge = soa::kPosInf - 1;
  EXPECT_EQ(soa::sat_add(lo_edge, 5), lo_edge + 5);
  EXPECT_EQ(soa::sat_add(hi_edge, -5), hi_edge - 5);
  // shift_forward on a [lo_edge, hi_edge] interval shifts both bounds.
  const soa::RawInterval s =
      soa::shift_forward({lo_edge, hi_edge}, 2, 3);
  EXPECT_EQ(s.lo, lo_edge + 2);
  EXPECT_EQ(s.hi, hi_edge + 3);
  // An infinite bound in the same interval stays put.
  const soa::RawInterval t =
      soa::shift_forward({soa::kNegInf, hi_edge}, 2, 3);
  EXPECT_EQ(t.lo, soa::kNegInf);
  EXPECT_EQ(t.hi, hi_edge + 3);
}

TEST(SoaEncoding, ToRawCanonicalisesEveryEmptyRepresentation) {
  // Any lo > hi LtInterval must land on THE canonical empty so that bitwise
  // plane equality is semantic equality.
  const soa::RawInterval e1 = soa::to_raw(LtInterval(Time(5), Time(3)));
  const soa::RawInterval e2 = soa::to_raw(LtInterval::empty());
  EXPECT_EQ(e1, soa::kEmpty);
  EXPECT_EQ(e2, soa::kEmpty);
  EXPECT_EQ(soa::kEmpty.lo, soa::kPosInf);
  EXPECT_EQ(soa::kEmpty.hi, soa::kNegInf);
}

TEST(SoaDomain, TopEmptyBottomRoundTrip) {
  SoaDomain d(4);
  const NetId n0{std::uint32_t{0}}, n1{std::uint32_t{1}},
      n2{std::uint32_t{2}}, n3{std::uint32_t{3}};
  EXPECT_TRUE(d.get(n0).is_top());  // fresh domain starts at top

  d.set(n1, AbstractSignal::bottom());
  EXPECT_TRUE(d.get(n1).is_bottom());
  EXPECT_TRUE(d.is_bottom(n1.index()));

  const AbstractSignal cls0 = AbstractSignal::class_only(false);
  d.set(n2, cls0);
  EXPECT_EQ(d.get(n2), cls0);
  EXPECT_TRUE(d.single_class(n2.index()));
  EXPECT_FALSE(d.cls_empty(n2.index(), 0));
  EXPECT_TRUE(d.cls_empty(n2.index(), 1));

  const AbstractSignal mixed{LtInterval(Time(-3), Time(7)),
                             LtInterval(Time(0), Time(12))};
  d.set(n3, mixed);
  EXPECT_EQ(d.get(n3), mixed);
  EXPECT_FALSE(d.single_class(n3.index()));
}

TEST(SoaDomain, PredicatesMatchAbstractSignalDefinitions) {
  // Randomised parity sweep: every plane predicate must agree with the
  // AbstractSignal it round-trips to.
  gen::Rng rng(7);
  SoaDomain d(1);
  const NetId n{std::uint32_t{0}};
  const auto rand_iv = [&]() -> LtInterval {
    switch (rng.below(4)) {
      case 0: return LtInterval::top();
      case 1: return LtInterval::empty();
      case 2: return LtInterval(Time::neg_inf(), Time(rng.below(50)) - 25);
      default: {
        const std::int64_t a =
            static_cast<std::int64_t>(rng.below(60)) - 30;
        return LtInterval(Time(a), Time(a + rng.below(20)));
      }
    }
  };
  for (int trial = 0; trial < 500; ++trial) {
    const AbstractSignal s{rand_iv(), rand_iv()};
    d.set(n, s);
    const AbstractSignal back = d.get(n);
    ASSERT_EQ(back, s);
    ASSERT_EQ(d.is_bottom(0), s.is_bottom());
    ASSERT_EQ(d.single_class(0), s.single_class());
    ASSERT_EQ(d.cls_empty(0, 0), s.cls(false).is_empty());
    ASSERT_EQ(d.cls_empty(0, 1), s.cls(true).is_empty());
    ASSERT_EQ(Time::from_raw(d.latest_raw(0)), s.latest());
    for (std::int64_t t : {-40, -1, 0, 1, 40}) {
      ASSERT_EQ(d.has_transition_at_or_after(0, Time(t)),
                s.has_transition_at_or_after(Time(t)))
          << s.str() << " t=" << t;
    }
  }
}

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
