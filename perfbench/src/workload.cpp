#include "workload.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <iostream>

#include "common/telemetry.hpp"

namespace perfbench {

void fail(Outcome& out, const std::string& what) {
  ++out.failed;
  if (out.failures.size() < 20) out.failures.push_back(what);
}

EngineCounters EngineCounters::read() {
  auto& reg = waveck::telemetry::Registry::global();
  const auto c = [&](const char* name) { return reg.counter(name).value(); };
  const auto t = [&](const char* name) { return reg.timer(name).seconds(); };
  EngineCounters e;
  e.decisions = c("search.decisions");
  e.backtracks = c("search.backtracks");
  e.conflicts = c("search.conflicts");
  e.cache_hits = c("cache.hits");
  e.cache_misses = c("cache.misses");
  e.dom_rebuilds = c("cache.dom_rebuilds");
  e.gate_evals = c("fixpoint.gate_evals");
  e.level_sweeps = c("fixpoint.level_sweeps");
  e.scalar_tail = c("fixpoint.scalar_tail");
  e.narrowings = c("engine.narrowings");
  e.checks_skipped = c("sched.checks_skipped");
  e.narrowing_s = t("stage.narrowing");
  e.gitd_s = t("stage.gitd");
  e.stem_s = t("stage.stem");
  e.case_analysis_s = t("stage.case_analysis");
  return e;
}

EngineCounters EngineCounters::minus(const EngineCounters& o) const {
  EngineCounters d;
  d.decisions = decisions - o.decisions;
  d.backtracks = backtracks - o.backtracks;
  d.conflicts = conflicts - o.conflicts;
  d.cache_hits = cache_hits - o.cache_hits;
  d.cache_misses = cache_misses - o.cache_misses;
  d.dom_rebuilds = dom_rebuilds - o.dom_rebuilds;
  d.gate_evals = gate_evals - o.gate_evals;
  d.level_sweeps = level_sweeps - o.level_sweeps;
  d.scalar_tail = scalar_tail - o.scalar_tail;
  d.narrowings = narrowings - o.narrowings;
  d.checks_skipped = checks_skipped - o.checks_skipped;
  d.narrowing_s = narrowing_s - o.narrowing_s;
  d.gitd_s = gitd_s - o.gitd_s;
  d.stem_s = stem_s - o.stem_s;
  d.case_analysis_s = case_analysis_s - o.case_analysis_s;
  return d;
}

void EngineCounters::add(const EngineCounters& o) {
  decisions += o.decisions;
  backtracks += o.backtracks;
  conflicts += o.conflicts;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  dom_rebuilds += o.dom_rebuilds;
  gate_evals += o.gate_evals;
  level_sweeps += o.level_sweeps;
  scalar_tail += o.scalar_tail;
  narrowings += o.narrowings;
  checks_skipped += o.checks_skipped;
  narrowing_s += o.narrowing_s;
  gitd_s += o.gitd_s;
  stem_s += o.stem_s;
  case_analysis_s += o.case_analysis_s;
}

std::size_t iteration_count(double seconds, double nominal_s) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(seconds / nominal_s)));
}

std::vector<Iteration> run_iterations(
    std::size_t count, bool trace, double deadline_s,
    const std::function<void(std::size_t)>& body) {
  std::vector<Iteration> its;
  const std::size_t least = trace ? 2 : 1;
  count = std::max(count, least);
  const std::uint64_t t_start = wall_ns();
  for (std::size_t i = 0; i < count; ++i) {
    if (i >= least &&
        static_cast<double>(wall_ns() - t_start) * 1e-9 > deadline_s) {
      std::cout << "deadline: " << deadline_s << " s passed, stopped after "
                << i << " of " << count << " iterations\n";
      break;
    }
    Iteration it;
    it.traced = trace && i % 2 == 1;
    Recorder::set_recording(it.traced);
    const OpTotals ops0 = Recorder::totals();
    const EngineCounters eng0 = EngineCounters::read();
    const double cpu0 = process_cpu_s();
    it.start_ns = wall_ns();
    body(i);
    it.end_ns = wall_ns();
    it.cpu_s = process_cpu_s() - cpu0;
    it.engine = EngineCounters::read().minus(eng0);
    const OpTotals ops1 = Recorder::totals();
    for (std::size_t k = 0; k < kNumOps; ++k) {
      it.ops.calls[k] = ops1.calls[k] - ops0.calls[k];
      it.ops.ns[k] = ops1.ns[k] - ops0.ns[k];
    }
    Recorder::set_recording(false);
    std::cout << "iteration " << i << (it.traced ? " traced" : "")
              << " wall_s=" << it.wall_s() << " cpu_s=" << it.cpu_s << "\n";
    its.push_back(it);
  }
  return its;
}

namespace {

/// A random cyclic permutation of 32 Ki entries (128 KiB: beyond L1d,
/// well inside one core's L2), walked by the CPU probe.
const std::vector<std::uint32_t>& probe_cycle() {
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> v(1u << 15);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<std::uint32_t>(i);
    std::uint64_t s = 0x9E3779B97F4A7C15ull;
    for (std::size_t i = v.size() - 1; i > 0; --i) {  // Sattolo: one cycle
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      std::swap(v[i], v[s % i]);
    }
    return v;
  }();
  return next;
}

bool pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

}  // namespace

QuietCpu::QuietCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

QuietCpu::~QuietCpu() {
  if (!any_) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus_) CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

void QuietCpu::step(std::int64_t job) {
  if (cpus_.size() < 2) return;
  if (last_ns_ != 0 &&
      static_cast<double>(wall_ns() - last_ns_) * 1e-9 < kInterval) {
    return;
  }
  Span span(Op::kCpuProbe, job);
  const std::vector<std::uint32_t>& next = probe_cycle();
  std::uint32_t j = 0;
  int best_cpu = -1;
  std::uint64_t best_ns = ~0ull;
  for (const int cpu : cpus_) {
    if (!pin_to(cpu)) continue;
    any_ = true;
    for (std::size_t i = 0; i < next.size(); ++i) j = next[j];  // warm up
    const std::uint64_t t0 = wall_ns();
    for (std::size_t i = 0; i < next.size(); ++i) j = next[j];
    const std::uint64_t ns = wall_ns() - t0;
    if (ns < best_ns) {
      best_ns = ns;
      best_cpu = cpu;
    }
  }
  asm volatile("" : : "r"(j));  // the walks' result is used: keep them
  if (best_cpu >= 0) (void)pin_to(best_cpu);
  last_ns_ = wall_ns();
}

double timed_setups(int times, const std::function<void()>& setup) {
  std::vector<double> s;
  for (int i = 0; i < times; ++i) {
    const std::uint64_t t0 = wall_ns();
    setup();
    s.push_back(static_cast<double>(wall_ns() - t0) * 1e-9);
  }
  return median(s);
}

namespace {

/// Mean over the traced iterations of `f(it)`.
double traced_mean(const std::vector<Iteration>& its,
                   const std::function<double(const Iteration&)>& f) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const Iteration& it : its) {
    if (!it.traced) continue;
    sum += f(it);
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace

Metrics layer_metrics(const std::vector<Iteration>& its) {
  Metrics m;
  const auto per_it = [&](const std::string& name, const std::string& unit,
                          const std::function<double(const Iteration&)>& f) {
    m[name] = {traced_mean(its, f), unit};
  };
  const auto op_s = [&](const std::string& name, Op op) {
    per_it(name, "s", [op](const Iteration& it) { return it.ops.seconds(op); });
  };
  const auto count = [&](const std::string& name,
                         std::uint64_t EngineCounters::*field) {
    per_it(name, "count", [field](const Iteration& it) {
      return static_cast<double>(it.engine.*field);
    });
  };
  op_s("netlist.parse_s", Op::kParse);
  op_s("netlist.decompose_s", Op::kDecompose);
  op_s("netlist.nor_map_s", Op::kNorMap);
  op_s("analysis.scoap_s", Op::kScoap);
  op_s("analysis.learning_s", Op::kLearning);
  op_s("analysis.stems_s", Op::kStems);
  op_s("sim.witness_s", Op::kWitness);
  per_it("sim.witnesses", "count", [](const Iteration& it) {
    return static_cast<double>(
        it.ops.calls[static_cast<std::size_t>(Op::kWitness)]);
  });
  per_it("verify.narrowing_s", "s",
         [](const Iteration& it) { return it.engine.narrowing_s; });
  per_it("verify.gitd_s", "s",
         [](const Iteration& it) { return it.engine.gitd_s; });
  per_it("verify.stem_s", "s",
         [](const Iteration& it) { return it.engine.stem_s; });
  per_it("verify.case_analysis_s", "s",
         [](const Iteration& it) { return it.engine.case_analysis_s; });
  // Check wall (serial and scheduler suite checks, timed here) minus the
  // stage timers the engine keeps: time inside a check no stage covers.
  // Serve checks run inside the daemon and have no outside check span.
  per_it("verify.unattributed_s", "s", [](const Iteration& it) {
    const double check_s =
        it.ops.seconds(Op::kCheck) + it.ops.seconds(Op::kSchedCheck);
    return check_s > 0.0 ? check_s - it.engine.stage_s() : 0.0;
  });
  count("search.decisions", &EngineCounters::decisions);
  count("search.backtracks", &EngineCounters::backtracks);
  count("search.conflicts", &EngineCounters::conflicts);
  count("cache.hits", &EngineCounters::cache_hits);
  count("cache.misses", &EngineCounters::cache_misses);
  count("cache.dom_rebuilds", &EngineCounters::dom_rebuilds);
  count("fixpoint.gate_evals", &EngineCounters::gate_evals);
  count("fixpoint.level_sweeps", &EngineCounters::level_sweeps);
  count("engine.narrowings", &EngineCounters::narrowings);
  count("sched.checks_skipped", &EngineCounters::checks_skipped);

  // Ratios over the traced iterations' totals, each with its base.
  EngineCounters tot;
  double cpu = 0.0;
  double wall = 0.0;
  for (const Iteration& it : its) {
    if (!it.traced) continue;
    tot.add(it.engine);
    cpu += it.cpu_s;
    wall += it.wall_s();
  }
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  m["cache.hit_ratio"] = {
      ratio(static_cast<double>(tot.cache_hits),
            static_cast<double>(tot.cache_hits + tot.cache_misses)),
      "ratio"};
  m["fixpoint.sweep_width"] = {ratio(static_cast<double>(tot.gate_evals),
                                     static_cast<double>(tot.level_sweeps)),
                               "gates"};
  m["fixpoint.scalar_tail_share"] = {
      ratio(static_cast<double>(tot.scalar_tail),
            static_cast<double>(tot.gate_evals)),
      "ratio"};
  m["fixpoint.gate_evals_per_s"] = {
      ratio(static_cast<double>(tot.gate_evals), tot.stage_s()), "1/s"};
  m["sched.cpu_over_wall"] = {ratio(cpu, wall), "ratio"};

  // Span-derived: self time per layer, time no span covers, overhead.
  const std::vector<SpanRecord> spans = Recorder::spans();
  std::map<std::string, double> self;
  double covered = 0.0;
  double spans_n = 0.0;
  std::size_t traced = 0;
  std::vector<double> walls[2];
  for (const Iteration& it : its) {
    walls[it.traced ? 1 : 0].push_back(it.wall_s());
    if (!it.traced) continue;
    ++traced;
    const TraceSummary s = summarize(spans, it.start_ns, it.end_ns);
    for (const auto& [layer, secs] : s.self_s) self[layer] += secs;
    covered += s.covered_s;
    spans_n += static_cast<double>(s.spans);
  }
  const double n = traced > 0 ? static_cast<double>(traced) : 1.0;
  for (const char* layer :
       {"netlist", "analysis", "verify", "sched", "sim", "serve"}) {
    m[std::string("self.") + layer + "_s"] = {self[layer] / n, "s"};
  }
  m["unattributed_s"] = {(wall - covered) / n, "s"};
  m["trace.spans"] = {spans_n / n, "count"};
  m["trace.overhead_s"] = {median(walls[1]) - median(walls[0]), "s"};
  return m;
}

}  // namespace perfbench
