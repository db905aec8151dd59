// M1 -- microbenchmarks: abstract-waveform algebra, gate projections, and
// fixpoint throughput (google-benchmark).
#include <benchmark/benchmark.h>

#include <array>

#include "constraints/constraint_system.hpp"
#include "constraints/projection.hpp"
#include "gen/builder.hpp"
#include "gen/generators.hpp"
#include "gen/iscas_suite.hpp"
#include "waveform/abstract_waveform.hpp"

namespace {

using namespace waveck;

void BM_IntervalIntersectHull(benchmark::State& state) {
  LtInterval a{Time(0), Time(100)};
  LtInterval b{Time(50), Time(150)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.intersect(b));
    benchmark::DoNotOptimize(a.hull(b));
  }
}
BENCHMARK(BM_IntervalIntersectHull);

void BM_SignalOps(benchmark::State& state) {
  AbstractSignal a{LtInterval(Time(0), Time(100)),
                   LtInterval(Time(10), Time(90))};
  AbstractSignal b{LtInterval(Time(50), Time(150)),
                   LtInterval(Time(-5), Time(60))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.intersect(b));
    benchmark::DoNotOptimize(a.unite(b));
    benchmark::DoNotOptimize(a.narrower_than(b));
  }
}
BENCHMARK(BM_SignalOps);

void BM_ProjectAnd(benchmark::State& state) {
  const auto n = state.range(0);
  for (auto _ : state) {
    std::vector<AbstractSignal> ins(
        n, AbstractSignal{LtInterval(Time(0), Time(50)),
                          LtInterval(Time(5), Time(60))});
    AbstractSignal out = AbstractSignal::violating(Time(40));
    benchmark::DoNotOptimize(
        project_gate(GateType::kAnd, DelaySpec::fixed(10), out,
                     std::span<AbstractSignal>(ins)));
  }
}
BENCHMARK(BM_ProjectAnd)->Arg(2)->Arg(4)->Arg(8);

void BM_ProjectXor(benchmark::State& state) {
  for (auto _ : state) {
    std::vector<AbstractSignal> ins(
        2, AbstractSignal{LtInterval(Time(0), Time(50)),
                          LtInterval(Time(5), Time(60))});
    AbstractSignal out = AbstractSignal::violating(Time(40));
    benchmark::DoNotOptimize(
        project_gate(GateType::kXor, DelaySpec::fixed(10), out,
                     std::span<AbstractSignal>(ins)));
  }
}
BENCHMARK(BM_ProjectXor);

void BM_FixpointHrapcenko(benchmark::State& state) {
  const Circuit c = gen::hrapcenko(10);
  for (auto _ : state) {
    ConstraintSystem cs(c);
    for (NetId in : c.inputs()) {
      cs.restrict_domain(in, AbstractSignal::floating_input());
    }
    cs.restrict_domain(*c.find_net("s"), AbstractSignal::violating(Time(61)));
    cs.schedule_all();
    benchmark::DoNotOptimize(cs.reach_fixpoint());
  }
}
BENCHMARK(BM_FixpointHrapcenko);

void BM_FixpointCarrySkip(benchmark::State& state) {
  Circuit c = gen::carry_skip_adder(unsigned(state.range(0)), 4);
  c.set_uniform_delay(DelaySpec::fixed(10));
  const NetId cout_net = *c.find_net("cout");
  for (auto _ : state) {
    ConstraintSystem cs(c);
    for (NetId in : c.inputs()) {
      cs.restrict_domain(in, AbstractSignal::floating_input());
    }
    cs.restrict_domain(cout_net, AbstractSignal::violating(Time(100)));
    cs.schedule_all();
    benchmark::DoNotOptimize(cs.reach_fixpoint());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(c.num_gates()));
}
BENCHMARK(BM_FixpointCarrySkip)->Arg(16)->Arg(32)->Arg(64);

void BM_FixpointNorC17(benchmark::State& state) {
  const Circuit c = gen::prepare_for_experiment(gen::c17());
  const NetId out = c.outputs().front();
  for (auto _ : state) {
    ConstraintSystem cs(c);
    for (NetId in : c.inputs()) {
      cs.restrict_domain(in, AbstractSignal::floating_input());
    }
    cs.restrict_domain(out, AbstractSignal::violating(Time(30)));
    cs.schedule_all();
    benchmark::DoNotOptimize(cs.reach_fixpoint());
  }
}
BENCHMARK(BM_FixpointNorC17);

// ----- level sweeps on synthetic wide levels ---------------------------------
// One wide level of independent gates over a small shared input pool: the
// constraint system drains it in a handful of level sweeps, so the measured
// cost is almost purely the per-gate projection and its commits. Reported
// as ns per gate evaluation (items == gate evals).
Circuit wide_level_circuit(GateType type, unsigned arity, unsigned gates) {
  gen::detail::Builder b("wide_level");
  std::vector<NetId> pool;
  for (unsigned i = 0; i < 12; ++i) {
    pool.push_back(b.input("i" + std::to_string(i)));
  }
  for (unsigned g = 0; g < gates; ++g) {
    std::vector<NetId> ins;
    for (unsigned k = 0; k < arity; ++k) {
      ins.push_back(pool[(g * 7 + k * 5 + k) % pool.size()]);
    }
    b.out(type, "o" + std::to_string(g), std::move(ins));
  }
  b.c.set_uniform_delay(DelaySpec(8, 12));
  b.c.finalize();
  return std::move(b.c);
}

void run_level_sweep(benchmark::State& state, const Circuit& c) {
  std::uint64_t evals = 0;
  for (auto _ : state) {
    ConstraintSystem cs(c);
    for (NetId in : c.inputs()) {
      cs.restrict_domain(in, AbstractSignal::floating_input());
    }
    // δ inside the [8, 12] gate delay: every gate narrows forward and
    // backward, where δ above 12 would empty the first output evaluated.
    for (NetId out : c.outputs()) {
      cs.restrict_domain(out, AbstractSignal::violating(Time(10)));
    }
    cs.schedule_all();
    benchmark::DoNotOptimize(cs.reach_fixpoint());
    evals += cs.applications();
  }
  state.SetItemsProcessed(static_cast<int64_t>(evals));
}

void BM_LevelSweepAnd(benchmark::State& state) {
  const auto arity = static_cast<unsigned>(state.range(0));
  run_level_sweep(state, wide_level_circuit(GateType::kAnd, arity, 256));
}
void BM_LevelSweepNor(benchmark::State& state) {
  const auto arity = static_cast<unsigned>(state.range(0));
  run_level_sweep(state, wide_level_circuit(GateType::kNor, arity, 256));
}
BENCHMARK(BM_LevelSweepAnd)->Arg(2)->Arg(3)->Arg(4)->Arg(5);
BENCHMARK(BM_LevelSweepNor)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

// Mixed gate classes and arities in one level.
void BM_LevelSweepMixed(benchmark::State& state) {
  gen::detail::Builder b("mixed_level");
  std::vector<NetId> pool;
  for (unsigned i = 0; i < 12; ++i) {
    pool.push_back(b.input("i" + std::to_string(i)));
  }
  const GateType kinds[] = {GateType::kAnd, GateType::kOr, GateType::kNand,
                            GateType::kNor, GateType::kNot, GateType::kXor};
  for (unsigned g = 0; g < 240; ++g) {
    const GateType t = kinds[g % 6];
    const unsigned arity = t == GateType::kNot ? 1 : 2 + g % 3;
    std::vector<NetId> ins;
    for (unsigned k = 0; k < arity; ++k) {
      ins.push_back(pool[(g * 7 + k * 5 + k) % pool.size()]);
    }
    b.out(t, "o" + std::to_string(g), std::move(ins));
  }
  b.c.set_uniform_delay(DelaySpec(8, 12));
  b.c.finalize();
  run_level_sweep(state, b.c);
}
BENCHMARK(BM_LevelSweepMixed);

void BM_TrailPushPop(benchmark::State& state) {
  Circuit c = gen::carry_skip_adder(16, 4);
  c.set_uniform_delay(DelaySpec::fixed(10));
  ConstraintSystem cs(c);
  for (NetId in : c.inputs()) {
    cs.restrict_domain(in, AbstractSignal::floating_input());
  }
  cs.schedule_all();
  cs.reach_fixpoint();
  const NetId stem = c.fanout_stems().front();
  for (auto _ : state) {
    const auto mark = cs.push_state();
    cs.restrict_domain(stem, AbstractSignal::class_only(false));
    cs.reach_fixpoint();
    cs.pop_to(mark);
  }
}
BENCHMARK(BM_TrailPushPop);

}  // namespace
