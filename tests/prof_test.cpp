// Perf observatory tests: counter math, graceful degradation, the dual
// accumulation invariant (registry totals == sum over per-check reports),
// the sampling profiler, and the progress/watchdog heartbeat.
//
// This container may or may not expose a PMU, so every test that touches
// real hardware counters is availability-agnostic: degradation is forced
// deterministically via WAVECK_PERF_FAKE_ERRNO, and the merge invariant
// holds on wall_ns/sections, which accumulate on both paths.
#include <gtest/gtest.h>

#include <cstdlib>
#include <chrono>
#include <ctime>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/flight_recorder.hpp"
#include "common/telemetry.hpp"
#include "gen/generators.hpp"
#include "gen/iscas_suite.hpp"
#include "json_checker.hpp"
#include "netlist/transforms.hpp"
#include "prof/heartbeat.hpp"
#include "prof/perf_counters.hpp"
#include "prof/profiler.hpp"
#include "sched/check_scheduler.hpp"
#include "verify/report_io.hpp"
#include "verify/verifier.hpp"

// The CPU-bound leaf of Profiler.LeafFrameIsTheSampledFunction. External
// linkage (exported through -rdynamic), and noipa so the optimizer neither
// inlines it nor runs it as a local clone (GCC's `.constprop.0` at -O2 is
// not exported, and its samples would symbolize to the caller): its samples
// symbolize to its own name.
extern "C" __attribute__((noipa)) double waveck_prof_test_spin(double acc,
                                                              int n) {
  for (int i = 0; i < n; ++i) acc = acc * 1.0000001 + 0.5;
  return acc;
}

namespace waveck {
namespace {

using testjson::valid_json;

/// A raw suite circuit prepared the way the CLI does it: paper delays (10
/// per gate) and solver decomposition. Without delays every output is
/// STA-trivial and no pipeline stage ever runs.
Circuit prepared(const std::string& name) {
  Circuit c = gen::build_raw(name);
  c.set_uniform_delay(DelaySpec::fixed(10));
  return decompose_for_solver(c);
}

/// Restores the counters switch and the thread's group on scope exit, so a
/// failing assertion can't leak forced-degradation state into later tests.
struct CounterGuard {
  ~CounterGuard() {
    prof::set_counters_enabled(false);
    unsetenv("WAVECK_PERF_FAKE_ERRNO");
    prof::reset_thread_counter_group_for_testing();
  }
};

TEST(ScaleMultiplexed, IdentityWhenNotMultiplexed) {
  EXPECT_EQ(prof::scale_multiplexed(1000, 500, 500), 1000u);
  EXPECT_EQ(prof::scale_multiplexed(0, 500, 250), 0u);
}

TEST(ScaleMultiplexed, ExtrapolatesLinearly) {
  // Group ran half the window: raw doubles.
  EXPECT_EQ(prof::scale_multiplexed(1000, 1000, 500), 2000u);
  // Rounded, not truncated.
  EXPECT_EQ(prof::scale_multiplexed(1, 3, 2), 2u);  // 1.5 -> 2
}

TEST(ScaleMultiplexed, RunningZeroReturnsRaw) {
  // The group never got the PMU; raw is necessarily 0 and must pass
  // through without a divide.
  EXPECT_EQ(prof::scale_multiplexed(0, 1000, 0), 0u);
  EXPECT_EQ(prof::scale_multiplexed(7, 1000, 0), 7u);
}

TEST(CounterTotals, RatiosGuardZeroDivide) {
  prof::CounterTotals t;
  EXPECT_EQ(t.ipc(), 0.0);
  EXPECT_EQ(t.cache_miss_rate(), 0.0);
  t.cycles = 1000;
  t.instructions = 2500;
  t.cache_references = 100;
  t.cache_misses = 25;
  EXPECT_DOUBLE_EQ(t.ipc(), 2.5);
  EXPECT_DOUBLE_EQ(t.cache_miss_rate(), 0.25);
}

TEST(CounterTotals, JsonNeverCarriesNonFiniteRates) {
  // Regression: a stage whose hardware group read zero cycles/references
  // (multiplexed out, or degraded mid-run) must not leak "nan"/"inf"
  // tokens into machine-parseable JSON (`waveck check --counters`,
  // bench_table1 rows).
  StagePerf p;
  prof::CounterTotals& t = p.narrowing;
  t.wall_ns = 123;
  t.sections = 1;
  t.instructions = 500;  // ipc denominator (cycles) is zero
  t.cache_misses = 7;    // miss-rate denominator (references) is zero
  const std::string j = "{" + stage_costs_json(p) + "}";
  EXPECT_EQ(j.find("nan"), std::string::npos) << j;
  EXPECT_EQ(j.find("inf"), std::string::npos) << j;
  EXPECT_TRUE(valid_json(j)) << j;
  EXPECT_NE(j.find("\"ipc\":0"), std::string::npos) << j;
  EXPECT_NE(j.find("\"cache_miss_rate\":0"), std::string::npos) << j;
}

TEST(CounterTotals, AddSkipsEmptyAndAndsValidity) {
  prof::CounterTotals a;
  prof::CounterTotals d;  // one counter window
  d.sections = 1;
  d.cycles = 10;
  d.wall_ns = 5;
  a.add(d);
  EXPECT_TRUE(a.any());
  EXPECT_TRUE(a.hw_valid);

  // A totals without counter windows contributes its wall time only -- in
  // particular it must not AND its hw_valid into a populated accumulator.
  prof::CounterTotals wall_only;
  wall_only.hw_valid = false;
  wall_only.wall_ns = 2;
  a.add(wall_only);
  EXPECT_TRUE(a.hw_valid);
  EXPECT_EQ(a.sections, 1u);
  EXPECT_EQ(a.wall_ns, 7u);

  prof::CounterTotals degraded;
  degraded.sections = 1;
  degraded.hw_valid = false;
  degraded.wall_ns = 3;
  a.add(degraded);
  EXPECT_FALSE(a.hw_valid);
  EXPECT_EQ(a.wall_ns, 10u);
  EXPECT_EQ(a.sections, 2u);
}

TEST(DeltaBetween, WallClockAlwaysValid) {
  prof::CounterSample begin, end;
  begin.monotonic_ns = 100;
  end.monotonic_ns = 350;
  const prof::CounterTotals d = prof::delta_between(begin, end);
  EXPECT_EQ(d.sections, 1u);
  EXPECT_FALSE(d.hw_valid);  // neither sample had hardware data
  EXPECT_EQ(d.wall_ns, 250u);
  EXPECT_EQ(d.cycles, 0u);
}

TEST(PerfCounters, FakeErrnoForcesDegradation) {
  CounterGuard guard;
  setenv("WAVECK_PERF_FAKE_ERRNO", "EACCES", 1);
  prof::reset_thread_counter_group_for_testing();

  const std::uint64_t warnings_before = prof::warnings_emitted();
  prof::PerfCounterGroup& g = prof::thread_counter_group();
  EXPECT_FALSE(g.available());
  EXPECT_NE(g.unavailable_reason().find("WAVECK_PERF_FAKE_ERRNO"),
            std::string::npos);

  // The degraded sample still carries a monotonic clock.
  const prof::CounterSample s = g.read();
  EXPECT_FALSE(s.hw_valid);
  EXPECT_GT(s.monotonic_ns, 0u);

  // Warning policy: at most one per process, ever -- repeated re-opens
  // (every pool worker degrades the same way) stay quiet.
  prof::reset_thread_counter_group_for_testing();
  (void)prof::thread_counter_group();
  prof::reset_thread_counter_group_for_testing();
  (void)prof::thread_counter_group();
  EXPECT_LE(prof::warnings_emitted(), 1u);
  EXPECT_LE(prof::warnings_emitted() - warnings_before, 1u);
  EXPECT_FALSE(prof::unavailable_reason().empty());
}

TEST(PerfCounters, DegradedCheckReportSaysUnavailable) {
  CounterGuard guard;
  setenv("WAVECK_PERF_FAKE_ERRNO", "EPERM", 1);
  prof::reset_thread_counter_group_for_testing();
  prof::set_counters_enabled(true);

  const Circuit c = prepared("c17");
  Verifier v(c);
  const CheckReport rep = v.check_output(c.outputs().front(), Time(1));

  ASSERT_TRUE(rep.stage_perf.any());
  EXPECT_FALSE(rep.stage_perf.total().hw_valid);
  EXPECT_GT(rep.stage_perf.total().wall_ns, 0u);

  const std::string js = to_json(c, rep);
  std::string err;
  EXPECT_TRUE(valid_json(js, &err)) << err;
  EXPECT_NE(js.find("\"counters\":\"unavailable\""), std::string::npos);
  EXPECT_NE(js.find("\"reason\":"), std::string::npos);
  EXPECT_NE(js.find("\"wall_ns\":"), std::string::npos);
}

TEST(PerfCounters, DisabledLeavesReportsEmpty) {
  CounterGuard guard;
  prof::set_counters_enabled(false);
  const Circuit c = prepared("c17");
  Verifier v(c);
  const CheckReport rep = v.check_output(c.outputs().front(), Time(1));
  EXPECT_FALSE(rep.stage_perf.any());
  const std::string js = to_json(c, rep);
  EXPECT_EQ(js.find("\"perf\":"), std::string::npos);
  std::string err;
  EXPECT_TRUE(valid_json(js, &err)) << err;
}

/// The dual-accumulation invariant: every stage window adds its delta both
/// to the CheckReport and to the emitting thread's registry, and worker
/// registries merge at batch end -- so the global registry's growth must
/// equal the sum over per-check reports under ANY jobs count. wall_ns and
/// sections accumulate even on the degraded path, which makes the test
/// availability-agnostic. The report folds delay_correlation into its
/// narrowing slot; the registry keeps them separate.
///
/// The check runs just ABOVE the exact floating delay of a false-path
/// circuit (the carry-skip adder): no output violates, so the serial loop
/// and the parallel batch execute the identical check set. Checking a
/// violating delta instead would break the equality by design: parallel
/// workers speculatively complete checks ordered after the first
/// violation, and the registry keeps that honest record of work done while
/// the deterministic report merge discards it.
TEST(PerfCounters, RegistryMergeEqualsReportSums) {
  CounterGuard guard;
  prof::set_counters_enabled(true);

  const Circuit c = [] {
    // Generators leave delays at zero; without real delays every output is
    // STA-trivial and no stage ever runs.
    Circuit raw = gen::carry_skip_adder(16, 4);
    raw.set_uniform_delay(DelaySpec::fixed(10));
    return decompose_for_solver(raw);
  }();
  const Time above = [&] {
    Verifier probe(c);
    return probe.exact_floating_delay().delay + 1;
  }();
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}}) {
    auto& reg = telemetry::Registry::global();
    const auto snap = [&](const std::string& key) {
      return reg.counter(key).value();
    };

    Verifier v(c);
    sched::CheckScheduler s(v, sched::ScheduleOptions{.jobs = jobs});
    // Registry snapshot AFTER constructing the scheduler, BEFORE the run.
    const std::string fields[] = {"wall_ns", "sections"};
    std::uint64_t before[5][2];
    const char* stages[] = {"stage.narrowing", "stage.delay_correlation",
                            "stage.gitd", "stage.stem",
                            "stage.case_analysis"};
    for (int i = 0; i < 5; ++i) {
      for (int f = 0; f < 2; ++f) {
        before[i][f] =
            snap("perf." + std::string(stages[i]) + "." + fields[f]);
      }
    }

    // Every fixpoint drain adds one counter window to "perf.fixpoint".
    const std::uint64_t fixpoints0 = snap("engine.fixpoints");
    const std::uint64_t fixpoint_sections0 = snap("perf.fixpoint.sections");

    const SuiteReport rep = s.check_circuit(above);
    ASSERT_NE(rep.conclusion, CheckConclusion::kViolation);
    EXPECT_GT(snap("engine.fixpoints"), fixpoints0) << "jobs=" << jobs;
    EXPECT_EQ(snap("perf.fixpoint.sections") - fixpoint_sections0,
              snap("engine.fixpoints") - fixpoints0)
        << "jobs=" << jobs;
    ASSERT_TRUE(rep.stage_perf.any()) << "jobs=" << jobs;

    std::uint64_t delta[5][2];
    for (int i = 0; i < 5; ++i) {
      for (int f = 0; f < 2; ++f) {
        delta[i][f] =
            snap("perf." + std::string(stages[i]) + "." + fields[f]) -
            before[i][f];
      }
    }
    // Suite totals were merged from per-check reports; cross-check both
    // levels against the registry growth.
    StagePerf sum;
    for (const CheckReport& out : rep.per_output) {
      sum.add(out.stage_perf);
    }
    const struct {
      const prof::CounterTotals& merged;
      const prof::CounterTotals& summed;
      std::uint64_t reg_wall;
      std::uint64_t reg_sections;
    } rows[] = {
        {rep.stage_perf.narrowing, sum.narrowing,
         delta[0][0] + delta[1][0], delta[0][1] + delta[1][1]},
        {rep.stage_perf.gitd, sum.gitd, delta[2][0], delta[2][1]},
        {rep.stage_perf.stem, sum.stem, delta[3][0], delta[3][1]},
        {rep.stage_perf.case_analysis, sum.case_analysis, delta[4][0],
         delta[4][1]},
    };
    for (const auto& row : rows) {
      EXPECT_EQ(row.merged.wall_ns, row.summed.wall_ns) << "jobs=" << jobs;
      EXPECT_EQ(row.merged.sections, row.summed.sections) << "jobs=" << jobs;
      EXPECT_EQ(row.merged.wall_ns, row.reg_wall) << "jobs=" << jobs;
      EXPECT_EQ(row.merged.sections, row.reg_sections) << "jobs=" << jobs;
    }
    EXPECT_GT(rep.stage_perf.narrowing.sections, 0u);
  }
}

TEST(Profiler, SmokeCapturesAnnotatedStacks) {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "sanitizer runtimes intercept SIGPROF and throttle "
                  "delivery below the sample-count bound";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  GTEST_SKIP() << "sanitizer runtimes intercept SIGPROF and throttle "
                  "delivery below the sample-count bound";
#endif
#endif
  auto& p = prof::SamplingProfiler::instance();
  ASSERT_FALSE(p.running());
  std::string err;
  ASSERT_TRUE(p.start({.hz = 997, .max_samples = 1u << 14}, &err)) << err;

  flight::Slot& slot = flight::self();
  slot.busy("smoke");
  slot.stage.store("narrowing");
  // Burn ~0.6s of CPU: ITIMER_PROF fires on CPU time and the kernel caps
  // delivery at its tick rate (often 250Hz), so this yields >= ~100
  // samples on any machine.
  volatile double acc = 1.0;
  const std::clock_t t0 = std::clock();
  while (std::clock() - t0 < static_cast<std::clock_t>(0.6 * CLOCKS_PER_SEC)) {
    for (int i = 0; i < 10000; ++i) acc = acc * 1.0000001 + 0.5;
  }
  slot.idle();

  const prof::ProfileReport rep = p.stop();
  ASSERT_FALSE(p.running());
  EXPECT_GT(rep.samples, 10u);
  EXPECT_FALSE(rep.folded.empty());
  EXPECT_NE(rep.folded.find("stage:narrowing"), std::string::npos);
  EXPECT_NE(rep.folded.find("check:smoke"), std::string::npos);

  std::string jerr;
  EXPECT_TRUE(valid_json(rep.speedscope_json, &jerr)) << jerr;
  EXPECT_NE(rep.speedscope_json.find("speedscope.app/file-format-schema"),
            std::string::npos);
  EXPECT_NE(rep.speedscope_json.find("stage:narrowing"), std::string::npos);
  EXPECT_NE(rep.speedscope_json.find("\"type\":\"sampled\""),
            std::string::npos);
}

TEST(Profiler, LeafFrameIsTheSampledFunction) {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "sanitizer runtimes intercept SIGPROF";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  GTEST_SKIP() << "sanitizer runtimes intercept SIGPROF";
#endif
#endif
  auto& p = prof::SamplingProfiler::instance();
  std::string err;
  ASSERT_TRUE(p.start({.hz = 997, .max_samples = 1u << 14}, &err)) << err;
  volatile double acc = 1.0;
  const std::clock_t t0 = std::clock();
  while (std::clock() - t0 < static_cast<std::clock_t>(0.4 * CLOCKS_PER_SEC)) {
    acc = waveck_prof_test_spin(acc, 1 << 20);
  }
  const prof::ProfileReport rep = p.stop();

  // Folded lines are "root;...;leaf count": the signal handler and the
  // sigreturn trampoline must be trimmed, so the leaf is the loop itself.
  std::uint64_t total = 0, in_spin = 0;
  std::istringstream lines(rep.folded);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::uint64_t count = std::stoull(line.substr(space + 1));
    const std::size_t semi = line.rfind(';', space);
    const std::string leaf = line.substr(
        semi == std::string::npos ? 0 : semi + 1,
        space - (semi == std::string::npos ? 0 : semi + 1));
    total += count;
    if (leaf == "waveck_prof_test_spin") in_spin += count;
  }
  ASSERT_GT(total, 10u);
  EXPECT_GE(static_cast<double>(in_spin), 0.9 * static_cast<double>(total))
      << rep.folded;
}

TEST(Profiler, DoubleStartRefused) {
  auto& p = prof::SamplingProfiler::instance();
  std::string err;
  ASSERT_TRUE(p.start({.hz = 101}, &err)) << err;
  EXPECT_FALSE(p.start({.hz = 101}, &err));
  EXPECT_EQ(err, "profiler already running");
  (void)p.stop();
  EXPECT_FALSE(p.running());
}

/// Collects event names so heartbeat bracket balance can be asserted.
class NameSink final : public telemetry::TraceSink {
 public:
  void event(std::string_view name,
             std::span<const telemetry::TraceField> /*fields*/) override {
    const std::scoped_lock lock(mu_);
    names_.emplace_back(name);
  }
  [[nodiscard]] std::size_t count(const std::string& name) const {
    const std::scoped_lock lock(mu_);
    std::size_t n = 0;
    for (const auto& s : names_) n += s == name ? 1 : 0;
    return n;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> names_;
};

TEST(Heartbeat, BeatsWatchdogAndBalancedEvents) {
  NameSink sink;
  telemetry::set_trace_sink(&sink);
  std::ostringstream err;
  {
    prof::ProgressMonitor monitor({.interval_s = 0.05, .stall_s = 0.15},
                                  err);
    // Phase 1: live progress under a named check, written to this
    // thread's slot as CheckSpan, StageSpan and the search would.
    flight::Slot& slot = flight::self();
    slot.busy("out1", 40);
    slot.chk.store(7);
    slot.stage.store("case_analysis");
    slot.depth.store(3);
    for (int i = 0; i < 4; ++i) {
      slot.tick(10);
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
    }
    // Phase 2: go silent long enough to trip the watchdog.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    EXPECT_GE(monitor.beats(), 3u);
    EXPECT_GE(monitor.stalls(), 1u);
    slot.idle();
    slot.chk.store(-1);
    monitor.stop();

    const std::string log = err.str();
    EXPECT_NE(log.find("[waveck hb#"), std::string::npos);
    EXPECT_NE(log.find("gate_evals="), std::string::npos);
    EXPECT_NE(log.find("out1"), std::string::npos);
    EXPECT_NE(log.find("case_analysis"), std::string::npos);
    EXPECT_NE(log.find("d=3"), std::string::npos);
    EXPECT_NE(log.find("chk#7"), std::string::npos);
    EXPECT_NE(log.find("[waveck watchdog] no progress"), std::string::npos);

    EXPECT_EQ(sink.count("progress_begin"), 1u);
    EXPECT_EQ(sink.count("progress_end"), 1u);
    EXPECT_EQ(sink.count("heartbeat"), monitor.beats());
    EXPECT_EQ(sink.count("watchdog_stall"), monitor.stalls());
    // stop() is idempotent: no second progress_end.
    monitor.stop();
    EXPECT_EQ(sink.count("progress_end"), 1u);
  }
  telemetry::set_trace_sink(nullptr);
}

TEST(Heartbeat, RecycledSlotsKeepProgressAndRingHead) {
  // No monitor runs: producers write their slot anyway. A thread returns
  // its slot when it exits; the thread that claims it next starts idle but
  // keeps its ring head and its progress tick, so the dump's ring cursors
  // and the watchdog's sum of ticks never go back.
  const auto sum = [] {
    std::uint64_t total = 0;
    for (const flight::Slot& s : flight::slots()) total += s.progress.load();
    return total;
  };
  struct Use {
    const flight::Slot* slot = nullptr;
    std::uint64_t progress0 = 0, head0 = 0, progress1 = 0, head1 = 0;
  };
  std::vector<Use> uses;
  for (int t = 0; t < 2 * 64; ++t) {
    const std::uint64_t before = sum();
    Use u;
    std::thread([&u] {
      flight::Slot& slot = flight::self();
      u.slot = &slot;
      u.progress0 = slot.progress.load();
      u.head0 = slot.ring.head();
      EXPECT_EQ(slot.check.load(), nullptr);
      EXPECT_EQ(slot.chk.load(), -1);
      EXPECT_EQ(slot.depth.load(), 0);
      EXPECT_EQ(slot.worker.load(), 0);
      slot.worker.store(9);
      slot.busy("x");
      slot.depth.store(1);
      slot.tick(5);
      flight::record(flight::Kind::kMark, "recycled");
      slot.idle();
      u.progress1 = slot.progress.load();
      u.head1 = slot.ring.head();
    }).join();
    EXPECT_FALSE(u.slot->live.load());
    EXPECT_EQ(sum(), before + 5);
    uses.push_back(u);
  }
  std::map<const flight::Slot*, Use> last;
  std::size_t reused = 0;
  for (const Use& u : uses) {
    if (const auto it = last.find(u.slot); it != last.end()) {
      ++reused;
      EXPECT_EQ(u.progress0, it->second.progress1);
      EXPECT_EQ(u.head0, it->second.head1);
    }
    last[u.slot] = u;
  }
  EXPECT_GT(reused, 0u);
}

}  // namespace
}  // namespace waveck
