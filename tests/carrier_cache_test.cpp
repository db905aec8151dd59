// Randomized equivalence tests for the incremental CarrierCache: after any
// interleaving of domain narrowings, fixpoints, push_state/pop_to (marked
// in the cache as a search marks them, or not at all) and inconsistency
// episodes, the cached carriers()/dominators() must be bit-for-bit the
// from-scratch dynamic_carriers()/timing_dominators().
#include <algorithm>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/carrier_cache.hpp"
#include "analysis/carriers.hpp"
#include "common/telemetry.hpp"
#include "constraints/constraint_system.hpp"
#include "gen/generators.hpp"
#include "netlist/topo_delay.hpp"
#include "netlist/transforms.hpp"
#include "verify/verifier.hpp"

namespace waveck {
namespace {

/// A random domain restriction of the kinds the real search applies:
/// final-class decisions, Corollary-1 timing cuts, and stability bounds.
AbstractSignal random_restriction(std::mt19937_64& rng, std::int64_t t_max) {
  std::uniform_int_distribution<std::int64_t> t_dist(0, t_max);
  switch (rng() % 3) {
    case 0:
      return AbstractSignal::class_only((rng() & 1) != 0);
    case 1:
      return AbstractSignal::violating(Time(t_dist(rng)));
    default:
      return AbstractSignal::floating_input(Time(t_dist(rng)));
  }
}

void expect_cache_matches(ConstraintSystem& cs, const TimingCheck& check,
                          CarrierCache& cache, int step) {
  const CarrierSet fresh = dynamic_carriers(cs, check);
  EXPECT_EQ(cache.carriers().distance, fresh.distance)
      << "carrier mismatch at step " << step;
  const std::vector<NetId> fresh_doms =
      cs.inconsistent() ? std::vector<NetId>{}
                        : timing_dominators(cs.circuit(), check, fresh);
  EXPECT_EQ(cache.dominators(), fresh_doms)
      << "dominator mismatch at step " << step;
}

void run_random_trace(std::uint64_t seed) {
  gen::StructuredCircuitConfig cfg;
  cfg.seed = seed;
  cfg.inputs = 6;
  cfg.gates = 48;
  cfg.outputs = 3;
  cfg.false_path_blocks = 2;
  cfg.delay_intervals = (seed & 1) != 0;
  const Circuit c = gen::structured_random_circuit(cfg);

  const Time topo = topological_delay(c);
  const std::int64_t t = topo.is_finite() ? topo.value() : 1;
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);

  for (NetId s : c.outputs()) {
    for (std::int64_t d : {t / 2, t}) {
      const TimingCheck check{s, Time(d)};
      ConstraintSystem cs(c);
      CarrierCache cache(cs, check);
      std::vector<ConstraintSystem::Mark> marks;
      marks.push_back(cs.push_state());

      std::uniform_int_distribution<std::size_t> net_dist(0,
                                                          c.num_nets() - 1);
      for (int step = 0; step < 120; ++step) {
        const unsigned roll = rng() % 10;
        if (cs.inconsistent() || (roll >= 8 && marks.size() > 1)) {
          // Backtrack to a random earlier mark (always to a consistent
          // state; the trail restores flow through the change log too).
          std::uniform_int_distribution<std::size_t> pick(0,
                                                          marks.size() - 1);
          const std::size_t i = pick(rng);
          cs.pop_to(marks[i]);
          marks.resize(i + 1);
        } else if (roll >= 6) {
          marks.push_back(cs.push_state());
        } else {
          const NetId n{static_cast<std::uint32_t>(net_dist(rng))};
          cs.restrict_domain(n, random_restriction(rng, t + 2));
          cs.reach_fixpoint();
        }
        // Skipping some queries lets several commits/restores accumulate in
        // the change log, exercising the batched cone rebuild.
        if (rng() % 10 < 6) expect_cache_matches(cs, check, cache, step);
        if (::testing::Test::HasFailure()) return;
      }
      expect_cache_matches(cs, check, cache, -1);
    }
  }
}

TEST(CarrierCache, MatchesFromScratchSeed1) { run_random_trace(1); }
TEST(CarrierCache, MatchesFromScratchSeed2) { run_random_trace(2); }
TEST(CarrierCache, MatchesFromScratchSeed3) { run_random_trace(3); }
TEST(CarrierCache, MatchesFromScratchSeed4) { run_random_trace(4); }
TEST(CarrierCache, MatchesFromScratchSeed5) { run_random_trace(5); }

// The degenerate netlists the fuzz shrinker emits: checked output is a
// primary input (possibly undeclared as an output).
TEST(CarrierCache, OutputIsPrimaryInput) {
  gen::StructuredCircuitConfig cfg;
  cfg.seed = 11;
  cfg.gates = 12;
  const Circuit c = gen::structured_random_circuit(cfg);
  const NetId in = c.inputs().front();
  const TimingCheck check{in, Time(1)};
  ConstraintSystem cs(c);
  CarrierCache cache(cs, check);
  expect_cache_matches(cs, check, cache, 0);
  cs.restrict_domain(in, AbstractSignal::violating(Time(2)));
  cs.reach_fixpoint();
  expect_cache_matches(cs, check, cache, 1);
}

/// The Figure 4 loop the search runs after each decision, served by the
/// cache. Returns false on inconsistency.
bool propagate(ConstraintSystem& cs, const TimingCheck& check,
               CarrierCache& cache) {
  for (;;) {
    if (cs.reach_fixpoint() == ConstraintSystem::Status::kNoViolation) {
      return false;
    }
    if (apply_dominator_implications(cs, check, &cache) == 0) return true;
  }
}

/// A search-shaped walk: push a level and decide a class of an undecided
/// net, run the fixpoint and dominator loop, pop back on conflicts (or at
/// random) and take the other class, and once restart at the entry mark as
/// a conflicted first pass does. Every push and pop is marked in the cache;
/// carriers and dominators are compared after every step. Returns the
/// number of decisions taken.
int run_search_walk(const Circuit& c, const TimingCheck& check,
                    std::uint64_t seed) {
  ConstraintSystem cs(c);
  for (NetId in : c.inputs()) {
    cs.restrict_domain(in, AbstractSignal::floating_input());
  }
  cs.restrict_domain(check.output, AbstractSignal::violating(check.delta));
  cs.schedule_all();
  CarrierCache cache(cs, check);
  if (!propagate(cs, check, cache)) return 0;  // proved by narrowing alone
  std::mt19937_64 rng(seed);
  const ConstraintSystem::Mark entry = cs.push_state();
  cache.push_level(entry);
  expect_cache_matches(cs, check, cache, -1);

  struct Decision {
    ConstraintSystem::Mark mark;
    NetId net;
    bool cls;
    bool flipped;
  };
  std::vector<Decision> stack;
  bool consistent = true;
  bool restarted = false;
  int decisions = 0;
  for (int step = 0; step < 160; ++step) {
    std::vector<NetId> open;
    for (std::size_t i = 0; i < c.num_nets(); ++i) {
      const NetId n{static_cast<std::uint32_t>(i)};
      if (!cs.domain(n).single_class() && !cs.domain(n).is_bottom()) {
        open.push_back(n);
      }
    }
    if (!restarted && step == 80) {
      cs.pop_to(entry);
      cache.pop_level(entry);
      stack.clear();
      consistent = !cs.inconsistent();
      restarted = true;
    } else if (consistent && !open.empty() && rng() % 5 != 0) {
      const NetId n = open[rng() % open.size()];
      const bool cls = (rng() & 1) != 0;
      stack.push_back({cs.push_state(), n, cls, false});
      cache.push_level(stack.back().mark);
      cs.restrict_domain(n, AbstractSignal::class_only(cls));
      consistent = propagate(cs, check, cache);
      ++decisions;
    } else {
      while (!stack.empty() && stack.back().flipped) {
        cs.pop_to(stack.back().mark);
        cache.pop_level(stack.back().mark);
        stack.pop_back();
      }
      if (stack.empty()) {
        cs.pop_to(entry);
        cache.pop_level(entry);
        consistent = !cs.inconsistent();
      } else {
        Decision& d = stack.back();
        cs.pop_to(d.mark);
        cache.pop_level(d.mark);
        d.cls = !d.cls;
        d.flipped = true;
        cs.restrict_domain(d.net, AbstractSignal::class_only(d.cls));
        consistent = propagate(cs, check, cache);
      }
    }
    expect_cache_matches(cs, check, cache, step);
    if (::testing::Test::HasFailure()) break;
  }
  return decisions;
}

Circuit nor_mapped(const Circuit& raw) {
  Circuit c = map_to_nor(decompose_for_solver(raw));
  c.set_uniform_delay(DelaySpec::fixed(10));
  return c;
}

/// Walks on every output at deltas around the circuit's floating delay,
/// where narrowing alone does not settle the check.
int run_search_walks(const Circuit& c, std::uint64_t seed) {
  const std::int64_t t = Verifier(c).exact_floating_delay().delay.value();
  int decisions = 0;
  for (NetId s : c.outputs()) {
    for (std::int64_t d : {t - 20, t, t + 10}) {
      decisions +=
          run_search_walk(c, TimingCheck{s, Time(d)}, seed + s.value());
      if (::testing::Test::HasFailure()) return decisions;
    }
  }
  return decisions;
}

TEST(CarrierCache, SearchWalksOnNorMappedRandomCircuits) {
  int decisions = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    gen::StructuredCircuitConfig cfg;
    cfg.seed = seed;
    cfg.inputs = 8;
    cfg.gates = 40;
    cfg.outputs = 2;
    cfg.false_path_blocks = 2;
    decisions +=
        run_search_walks(nor_mapped(gen::structured_random_circuit(cfg)), seed);
    if (HasFailure()) return;
  }
  EXPECT_GT(decisions, 500);
}

TEST(CarrierCache, SearchWalksOnMul6) {
  const Circuit c = nor_mapped(gen::array_multiplier(6, true));
  const Time topo = topological_delay(c);
  // The three slowest outputs carry the long multiplier paths.
  std::vector<NetId> outs = c.outputs();
  const auto arrival = topo_arrival(c);
  std::sort(outs.begin(), outs.end(), [&](NetId a, NetId b) {
    return arrival[a.index()] > arrival[b.index()];
  });
  outs.resize(3);
  int decisions = 0;
  for (NetId s : outs) {
    for (std::int64_t d : {topo.value() * 3 / 4, topo.value()}) {
      decisions += run_search_walk(c, TimingCheck{s, Time(d)}, 7 + s.value());
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(decisions, 100);
}

/// a -> p -> m -> s and b -> q -> m, every gate delay 10: both halves of
/// the AND reach T, so the dominators are {s, m}.
struct Diamond {
  Circuit c{"diamond"};
  NetId a, b, p, q, m, s;
  Diamond() {
    const DelaySpec d = DelaySpec::fixed(10);
    a = c.add_net("a");
    b = c.add_net("b");
    c.declare_input(a);
    c.declare_input(b);
    p = c.add_net("p");
    q = c.add_net("q");
    m = c.add_net("m");
    s = c.add_net("s");
    c.add_gate(GateType::kBuf, p, {a}, d);
    c.add_gate(GateType::kBuf, q, {b}, d);
    c.add_gate(GateType::kAnd, m, {p, q}, d);
    c.add_gate(GateType::kBuf, s, {m}, d);
    c.declare_output(s);
    c.finalize();
  }
};

// Losing p leaves one path s -> m -> q -> b -> T: the region after m gains
// the new dominators q and b, found by a regional re-test, not a full one.
TEST(CarrierCache, RegionGainsNewDominators) {
  const Diamond dm;
  telemetry::Registry reg;
  const telemetry::ScopedRegistry scope(reg);
  const TimingCheck check{dm.s, Time(30)};
  ConstraintSystem cs(dm.c);
  CarrierCache cache(cs, check);
  EXPECT_EQ(cache.dominators(), (std::vector<NetId>{dm.s, dm.m}));
  cache.push_level(cs.push_state());
  // Stable from time 5 on: no transition at or after 30 - 20.
  cs.restrict_domain(dm.p, AbstractSignal::floating_input(Time(5)));
  EXPECT_EQ(cache.dominators(),
            (std::vector<NetId>{dm.s, dm.m, dm.q, dm.b}));
  expect_cache_matches(cs, check, cache, 0);
  EXPECT_EQ(reg.counter("cache.dom_rebuilds").value(), 1u);
  EXPECT_EQ(reg.counter("cache.dom_retests").value(), 1u);
}

// An old dominator that stops being a carrier cuts every path to T: the
// list is {s}, and it stays {s} as carriers keep shrinking.
TEST(CarrierCache, DominatorLeavingTheCarriersLeavesOnlyS) {
  const Diamond dm;
  telemetry::Registry reg;
  const telemetry::ScopedRegistry scope(reg);
  const TimingCheck check{dm.s, Time(30)};
  ConstraintSystem cs(dm.c);
  CarrierCache cache(cs, check);
  EXPECT_EQ(cache.dominators(), (std::vector<NetId>{dm.s, dm.m}));
  const ConstraintSystem::Mark mark = cs.push_state();
  cache.push_level(mark);
  cs.restrict_domain(dm.m, AbstractSignal::floating_input(Time(5)));
  EXPECT_EQ(cache.dominators(), (std::vector<NetId>{dm.s}));
  expect_cache_matches(cs, check, cache, 0);
  cs.restrict_domain(dm.q, AbstractSignal::floating_input(Time(5)));
  EXPECT_EQ(cache.dominators(), (std::vector<NetId>{dm.s}));
  expect_cache_matches(cs, check, cache, 1);
  // The pop hands back the level's list without computing it.
  cs.pop_to(mark);
  cache.pop_level(mark);
  EXPECT_EQ(cache.dominators(), (std::vector<NetId>{dm.s, dm.m}));
  EXPECT_EQ(reg.counter("cache.dom_rebuilds").value(), 1u);
  EXPECT_EQ(reg.counter("cache.dom_restores").value(), 1u);
}

// One fixed search: a check of the NOR-mapped 6x6 multiplier's slowest
// output that runs G.I.T.D., a conflicted first pass, stems and a second
// pass. The first
// query is the only full dominator computation; every other one is a
// restore at a pop or a regional update, so a return to recomputing on
// every carrier change shows up here.
TEST(CarrierCache, FixedSearchComputesDominatorsInFullOnce) {
  const Circuit c = nor_mapped(gen::array_multiplier(6, true));
  telemetry::Registry reg;
  const telemetry::ScopedRegistry scope(reg);
  Verifier v(c);
  NetId worst = c.outputs().front();
  const auto arrival = topo_arrival(c);
  for (NetId o : c.outputs()) {
    if (arrival[o.index()] > arrival[worst.index()]) worst = o;
  }
  // Below the floating delay of 640: a witness after a few dozen
  // decisions and backtracks.
  const CheckReport rep = v.check_output(worst, Time(600));
  EXPECT_EQ(rep.conclusion, CheckConclusion::kViolation);
  EXPECT_GT(rep.backtracks, 10u);
  EXPECT_GT(reg.counter("cache.dom_restores").value(), 20u);
  EXPECT_EQ(reg.counter("cache.dom_rebuilds").value(), 1u);
}

}  // namespace
}  // namespace waveck
