// Offline workloads: `table1_suite` and `c6288_delay`.
//
// Each circuit runs the flow a `waveck delay` + `waveck check` user waits
// on: `.bench` text -> parse -> decompose -> NOR map (delay 10) -> prepare
// (SCOAP, static learning, stem enumeration) -> exact floating delay δ*
// (every probe timed) -> suite checks at δ*+1 and δ* -> replay of every V
// witness in the floating simulator.
#include <algorithm>
#include <iostream>
#include <numeric>
#include <optional>

#include "gen/generators.hpp"
#include "gen/iscas_suite.hpp"
#include "gen/rng.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/transforms.hpp"
#include "sched/check_scheduler.hpp"
#include "sim/floating_sim.hpp"
#include "verify/verifier.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using waveck::CheckConclusion;
using waveck::Circuit;
using waveck::NetId;
using waveck::SuiteReport;
using waveck::Time;
using waveck::Verifier;

/// One circuit as the benchmark hands it to the engine.
struct FlowInput {
  std::string name;
  std::string bench_text;  // raw architecture, as `waveck gen` writes it
  std::size_t max_backtracks = 20000;
  /// Exhaustive-oracle floating delay (circuits with <= 16 inputs).
  std::optional<std::int64_t> truth;
  /// Largest settle time over seeded random vectors: a lower bound on the
  /// true delay, so no check may answer N at or below it.
  std::int64_t sampled_lb = 0;
  /// Fixed Table-1 rows (δ, allowed conclusions); empty = rows at δ*+1, δ*.
  std::vector<std::pair<std::int64_t, std::string>> rows;
  /// A seeded circuit: its cost changes with the seed, so its checks and
  /// flow stay out of the latency quantiles (they still count in every
  /// total and rate, and in the verdict gate).
  bool seeded = false;
};

/// One circuit's flow as a range of segments in its FlowTally.
struct FlowRange {
  std::size_t begin = 0;
  std::size_t delay_end = 0;  // segments up to δ* found
  std::size_t end = 0;        // segments up to the rows replayed
  bool seeded = false;
};

/// What the measured iterations accumulate across flows.
struct FlowTally {
  std::vector<double> check_ms;    // every check_circuit call, probes included
  std::vector<bool> check_seeded;  // parallel to check_ms
  /// Each flow cut into back-to-back segments, one per step: transform,
  /// each prepare call, each check with its witness replay, the search's
  /// end and the rows. Wall and process CPU seconds per segment.
  std::vector<double> seg_s, seg_cpu_s;
  std::vector<FlowRange> flows;
  std::size_t decided = 0;  // N or V
  std::size_t probes = 0;
  std::size_t gates = 0;
  std::string summary;  // per circuit: δ*, probes, row verdicts
};

/// parse -> decompose -> NOR map + uniform delay, each call a span.
Circuit transform(const FlowInput& in, std::int64_t job) {
  Span parse(Op::kParse, job);
  Circuit raw = waveck::read_bench_string(in.bench_text, in.name);
  parse.stop();
  Span dec(Op::kDecompose, job);
  Circuit solver = waveck::decompose_for_solver(raw);
  dec.stop();
  Span nor(Op::kNorMap, job);
  Circuit mapped = waveck::map_to_nor(solver);
  mapped.set_uniform_delay(waveck::DelaySpec::fixed(waveck::gen::kPaperGateDelay));
  mapped.set_name(in.name);
  return mapped;
}

/// Settle time of a witness on `out` (every output when unset).
Time replay(const Circuit& c, const std::vector<bool>& vec,
            std::optional<NetId> out, std::int64_t job) {
  Span s(Op::kWitness, job);
  const auto sim = waveck::simulate_floating(c, vec);
  if (out) return sim.settle[out->index()];
  Time settle = Time::neg_inf();
  for (NetId o : c.outputs()) settle = Time::max(settle, sim.settle[o.index()]);
  return settle;
}

/// Oracle facts for `in`, computed during set-up on the circuit the flow
/// builds: the exhaustive floating delay when asked for, and the sampled
/// lower bound from `vectors` seeded random vectors.
void add_oracle(FlowInput& in, bool exhaustive, unsigned vectors,
                std::uint64_t seed) {
  const Circuit c = transform(in, -1);
  Span s(Op::kOracle, -1);
  if (exhaustive) in.truth = waveck::exhaustive_floating_delay(c, 16).value();
  waveck::gen::Rng rng(seed);
  std::int64_t lb = 0;
  std::vector<bool> vec(c.inputs().size());
  for (unsigned k = 0; k < vectors; ++k) {
    for (std::size_t i = 0; i < vec.size(); ++i) vec[i] = (rng.next() >> 17) & 1u;
    const auto sim = waveck::simulate_floating(c, vec);
    for (NetId o : c.outputs()) {
      const Time t = sim.settle[o.index()];
      if (t.is_finite()) lb = std::max(lb, t.value());
    }
  }
  in.sampled_lb = lb;
}

/// Verdict gate for one suite check at δ.
void gate_check(const FlowInput& in, const Circuit& c, const SuiteReport& r,
                std::int64_t delta, std::int64_t job, Outcome& out) {
  const std::string at = in.name + " @" + std::to_string(delta) + ": ";
  switch (r.conclusion) {
    case CheckConclusion::kViolation: {
      if (!r.vector) {
        fail(out, at + "V without a witness");
        break;
      }
      const Time settle = replay(c, *r.vector, r.violating_output, job);
      if (!(settle >= Time(delta))) {
        fail(out, at + "witness settles at " + settle.str() + " < delta");
      }
      if (in.truth && delta > *in.truth) {
        fail(out, at + "V above the exhaustive delay " +
                      std::to_string(*in.truth));
      }
      break;
    }
    case CheckConclusion::kNoViolation:
      if (delta <= in.sampled_lb) {
        fail(out, at + "N but a sampled vector settles at " +
                      std::to_string(in.sampled_lb));
      }
      if (in.truth && delta <= *in.truth) {
        fail(out, at + "N at or below the exhaustive delay " +
                      std::to_string(*in.truth));
      }
      break;
    case CheckConclusion::kAbandoned:
      break;  // honest 'A'
    case CheckConclusion::kPossible:
      fail(out, at + "P with case analysis enabled");
      break;
  }
}

void add_report(Fingerprint& fp, std::int64_t delta, const SuiteReport& r) {
  fp.add(delta).add(waveck::to_string(r.conclusion))
      .add(static_cast<std::int64_t>(r.backtracks))
      .add(r.vector ? waveck::format_vector(*r.vector) : "-")
      .add(r.violating_output
               ? static_cast<std::int64_t>(r.violating_output->index())
               : -1);
}

/// Runs one circuit's flow. `sched_jobs` > 0 sends every suite check
/// through a CheckScheduler with that many jobs (1 keeps it on this
/// thread), else the serial Verifier. Between segments `cpu` may move the
/// thread to a quieter CPU; that probe is in no segment.
void run_flow(const FlowInput& in, std::size_t sched_jobs, std::int64_t job,
              QuietCpu& cpu, FlowTally& tally, Fingerprint& fp, Outcome& out) {
  FlowRange range;
  range.begin = tally.seg_s.size();
  range.seeded = in.seeded;
  std::uint64_t last_ns = wall_ns();
  double last_cpu = process_cpu_s();
  const auto mark = [&] {  // ends the current segment, starts the next
    tally.seg_s.push_back(static_cast<double>(wall_ns() - last_ns) * 1e-9);
    tally.seg_cpu_s.push_back(process_cpu_s() - last_cpu);
    cpu.step(job);
    last_ns = wall_ns();
    last_cpu = process_cpu_s();
  };
  const Circuit c = transform(in, job);
  tally.gates += c.num_gates();
  mark();

  waveck::VerifyOptions opt;  // bench_table1's settings
  opt.case_analysis.max_backtracks = in.max_backtracks;
  opt.max_stems = 512;
  Verifier v(c, opt);
  { Span s(Op::kScoap, job); (void)v.scoap(); }
  mark();
  { Span s(Op::kLearning, job); (void)v.learning(); }
  mark();
  { Span s(Op::kStems, job); (void)v.reconvergent_stems(); }
  mark();

  std::optional<waveck::sched::CheckScheduler> sched;
  if (sched_jobs > 0) sched.emplace(v, waveck::sched::ScheduleOptions{.jobs = sched_jobs});
  const auto check = [&](Time delta) {
    Span s(sched ? Op::kSchedCheck : Op::kCheck, job);
    SuiteReport r = sched ? sched->check_circuit(delta) : v.check_circuit(delta);
    tally.check_ms.push_back(s.stop() * 1e3);
    tally.check_seeded.push_back(in.seeded);
    if (r.conclusion == CheckConclusion::kViolation ||
        r.conclusion == CheckConclusion::kNoViolation) {
      ++tally.decided;
    }
    gate_check(in, c, r, delta.value(), job, out);
    add_report(fp, delta.value(), r);
    out.attempted += 1;
    mark();
    return r;
  };

  Span search(Op::kDelaySearch, job);
  const Verifier::ExactDelayResult res = v.exact_floating_delay(check);
  search.stop();
  mark();
  range.delay_end = tally.seg_s.size();
  tally.probes += res.probes;
  fp.add(in.name).add(static_cast<std::int64_t>(c.num_gates()))
      .add(res.delay.value()).add(res.exact ? "E" : "U")
      .add(static_cast<std::int64_t>(res.probes));

  tally.summary += in.name + ":d*=" + res.delay.str() + (res.exact ? "E" : "U") +
                   ",probes=" + std::to_string(res.probes) +
                   ",bt=" + std::to_string(res.total_backtracks);
  if (in.truth) tally.summary += ",oracle=" + std::to_string(*in.truth);
  tally.summary += ",lb=" + std::to_string(in.sampled_lb) + ",rows=";
  const std::string who = in.name + ": ";
  if (res.delay.value() < in.sampled_lb) {
    fail(out, who + "delta* " + res.delay.str() +
                  " below a sampled settle time " + std::to_string(in.sampled_lb));
  }
  if (in.truth && res.exact && res.delay.value() != *in.truth) {
    fail(out, who + "exact delta* " + res.delay.str() + " != oracle " +
                  std::to_string(*in.truth));
  }

  auto rows = in.rows;
  if (rows.empty()) {
    // δ*+1 must not yield a vector (the search proved or abandoned it);
    // an exact δ* > 0 must.
    rows.emplace_back(res.delay.value() + 1, "NA");
    rows.emplace_back(res.delay.value(),
                      res.exact && res.delay.value() > 0 ? "V" : "VNA");
  }
  for (const auto& [delta, allowed] : rows) {
    const SuiteReport r = check(Time(delta));
    tally.summary += std::to_string(delta) + waveck::to_string(r.conclusion) + "/";
    if (allowed.find(waveck::to_string(r.conclusion)) == std::string::npos) {
      fail(out, who + "row @" + std::to_string(delta) + " is " +
                    waveck::to_string(r.conclusion) + ", expected one of " +
                    allowed);
    }
  }
  tally.summary += " ";
  mark();
  range.end = tally.seg_s.size();
  tally.flows.push_back(range);
}

/// Fills every end-to-end metric from the untraced iterations, or the
/// per-layer set from the traced ones.
Outcome finish(const RunConfig& cfg, double setup_s, double oracle_s,
               const std::vector<Iteration>& its,
               const std::vector<FlowTally>& tallies, Outcome out) {
  if (cfg.trace) {
    out.metrics = layer_metrics(its);
    std::vector<double> gates, probes;
    for (std::size_t i = 0; i < its.size(); ++i) {
      if (!its[i].traced) continue;
      gates.push_back(static_cast<double>(tallies[i].gates));
      probes.push_back(static_cast<double>(tallies[i].probes));
    }
    out.metrics["netlist.gates"] = {median(gates), "count"};
    out.metrics["search.probes"] = {median(probes), "count"};
    out.metrics["sim.oracle_s"] = {oracle_s, "s"};
    for (const char* name :
         {"serve.queued_p50_us", "serve.queued_p99_us", "serve.engine_p50_us",
          "serve.engine_p99_us"}) {
      out.metrics[name] = {0.0, "us"};
    }
    out.metrics["serve.avg_batch"] = {0.0, "count"};
    out.metrics["serve.dedup_ratio"] = {0.0, "ratio"};
    out.metrics["serve.load_p50_ms"] = {0.0, "ms"};
    return out;
  }
  // Every iteration runs the same checks and flow steps in the same order
  // (the fingerprint check guarantees it), so each check and each segment
  // gets its best time over the iterations: on a shared host noise only
  // ever slows a step down, by up to 2x for stretches of a second to
  // minutes. A flow's time is the sum of its segments' best times, and
  // the suite's wall and CPU time are the sums over every segment.
  FlowTally best = tallies.front();
  std::size_t checks = 0, decided = 0;
  for (std::size_t i = 0; i < its.size(); ++i) {
    const FlowTally& t = tallies[i];
    const auto keep_min = [](std::vector<double>& b, const std::vector<double>& v) {
      for (std::size_t k = 0; k < std::min(b.size(), v.size()); ++k) {
        b[k] = std::min(b[k], v[k]);
      }
    };
    keep_min(best.check_ms, t.check_ms);
    keep_min(best.seg_s, t.seg_s);
    keep_min(best.seg_cpu_s, t.seg_cpu_s);
    checks += t.check_ms.size();
    decided += t.decided;
  }
  const auto sum = [](const std::vector<double>& v, std::size_t from,
                      std::size_t to) {
    return std::accumulate(v.begin() + static_cast<std::ptrdiff_t>(from),
                           v.begin() + static_cast<std::ptrdiff_t>(to), 0.0);
  };
  const double wall = sum(best.seg_s, 0, best.seg_s.size());
  const double cpu = sum(best.seg_cpu_s, 0, best.seg_cpu_s.size());
  double delay = 0.0;
  std::vector<double> check_ms, flow_ms;  // quantile populations
  for (std::size_t k = 0; k < best.check_ms.size(); ++k) {
    if (!best.check_seeded[k]) check_ms.push_back(best.check_ms[k]);
  }
  for (const FlowRange& f : best.flows) {
    delay += sum(best.seg_s, f.begin, f.delay_end);
    if (!f.seeded) flow_ms.push_back(sum(best.seg_s, f.begin, f.end) * 1e3);
  }
  std::cout << "samples: iterations=" << its.size() << ", per iteration checks="
            << best.check_ms.size() << " (" << check_ms.size()
            << " in quantiles) requests=" << best.flows.size() << " ("
            << flow_ms.size() << " in quantiles) segments="
            << best.seg_s.size() << "\n";
  Metrics& m = out.metrics;
  m["wall_s"] = {wall, "s"};
  m["cpu_s"] = {cpu, "s"};
  m["delay_s"] = {delay, "s"};
  // Harrell–Davis quantiles: c6288_delay has 11 checks and every offline
  // workload few flows, where a nearest-rank quantile is one sample.
  m["check_p50_ms"] = {hd_quantile(check_ms, 0.50), "ms"};
  m["check_p90_ms"] = {hd_quantile(check_ms, 0.90), "ms"};
  m["checks_per_s"] = {static_cast<double>(best.check_ms.size()) / wall, "1/s"};
  m["req_per_s"] = {static_cast<double>(best.flows.size()) / wall, "1/s"};
  m["req_p50_ms"] = {hd_quantile(flow_ms, 0.50), "ms"};
  m["req_p99_ms"] = {hd_quantile(flow_ms, 0.99), "ms"};
  m["setup_s"] = {setup_s, "s"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
  m["decided_share"] = {static_cast<double>(decided) / static_cast<double>(checks),
                        "ratio"};
  return out;
}

/// Set up (median of `setups`), then iterate the flows; one iteration
/// took `nominal_s` at the seed commit. Both run on one thread that
/// `cpu` keeps on a quiet CPU.
Outcome run_flows(const RunConfig& cfg, int setups, double nominal_s,
                  const std::function<std::vector<FlowInput>()>& setup,
                  std::size_t sched_jobs) {
  QuietCpu cpu;
  cpu.step(-1);
  std::vector<FlowInput> inputs;
  double oracle_s = 0.0;
  const double setup_s = timed_setups(setups, [&] {
    const OpTotals before = Recorder::totals();
    inputs = setup();
    oracle_s = Recorder::totals().seconds(Op::kOracle) - before.seconds(Op::kOracle);
  });

  Outcome out;
  std::vector<FlowTally> tallies;
  std::vector<std::string> digests;
  const std::size_t count = iteration_count(cfg.seconds, nominal_s);
  const auto its = run_iterations(count, cfg.trace, kDeadlineShare * cfg.seconds,
                                  [&](std::size_t i) {
    FlowTally t;
    Fingerprint fp;
    const EngineCounters e0 = EngineCounters::read();
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      run_flow(inputs[k], sched_jobs, static_cast<std::int64_t>(i * 1000 + k),
               cpu, t, fp, out);
    }
    const EngineCounters e = EngineCounters::read().minus(e0);
    fp.add(static_cast<std::int64_t>(e.decisions))
        .add(static_cast<std::int64_t>(e.backtracks))
        .add(static_cast<std::int64_t>(e.gate_evals));
    digests.push_back(fp.hex());
    tallies.push_back(std::move(t));
  });
  // Every iteration re-runs identical inputs on fresh verifiers: the
  // digests must agree, or the engine is not deterministic.
  for (std::size_t i = 1; i < digests.size(); ++i) {
    if (digests[i] != digests[0]) {
      fail(out, "iteration " + std::to_string(i) + " fingerprint " +
                    digests[i] + " != " + digests[0]);
    }
  }
  out.fingerprint = digests.front();
  out.fingerprint_detail = tallies.front().summary;
  return finish(cfg, setup_s, oracle_s, its, tallies, std::move(out));
}

}  // namespace

Outcome run_table1_suite(const RunConfig& cfg) {
  // The ten non-multiplier Table-1 circuits with their Table-1 budgets.
  static const char* kFull[] = {"c17",   "c432",  "c499",  "c880",  "c1355",
                                "c1908", "c2670", "c3540", "c5315", "c7552"};
  static const char* kSmoke[] = {"c17", "c432", "c880"};
  const std::vector<std::string> names =
      cfg.smoke ? std::vector<std::string>(std::begin(kSmoke), std::end(kSmoke))
                : std::vector<std::string>(std::begin(kFull), std::end(kFull));
  const unsigned randoms = cfg.smoke ? 2 : 6;
  const auto setup = [&] {
    std::vector<FlowInput> inputs;
    for (const std::string& name : names) {
      FlowInput in;
      in.name = name;
      in.bench_text = waveck::write_bench_string(waveck::gen::build_raw(name));
      in.max_backtracks = name == "c17" ? 1000 : 20000;
      add_oracle(in, false, 64, waveck::gen::mix_seed(cfg.seed, inputs.size()));
      inputs.push_back(std::move(in));
    }
    // Seeded random circuits small enough for the exhaustive oracle, with
    // false-path blocks so some of their N verdicts need the later stages.
    // Their sizes are fixed so that the seed changes structure, not cost.
    for (unsigned k = 0; k < randoms; ++k) {
      waveck::gen::StructuredCircuitConfig rc;
      rc.inputs = 14;
      rc.gates = 45;
      rc.outputs = 3;
      rc.false_path_blocks = 1 + k % 2;
      rc.seed = waveck::gen::mix_seed(cfg.seed, 1000 + k);
      FlowInput in;
      in.name = "rand" + std::to_string(k);
      in.seeded = true;
      in.bench_text =
          waveck::write_bench_string(waveck::gen::structured_random_circuit(rc));
      add_oracle(in, true, 64, rc.seed);
      inputs.push_back(std::move(in));
    }
    return inputs;
  };
  return run_flows(cfg, 5, cfg.smoke ? 0.05 : 0.42, setup, 0);
}

Outcome run_c6288_delay(const RunConfig& cfg) {
  const auto setup = [&] {
    FlowInput in;
    in.max_backtracks = 500;  // Table-1 budget
    if (cfg.smoke) {
      in.name = "mul6";
      in.bench_text =
          waveck::write_bench_string(waveck::gen::array_multiplier(6, true));
    } else {
      in.name = "c6288";
      in.bench_text = waveck::write_bench_string(waveck::gen::build_raw("c6288"));
      // Table 1's two rows: the witness at 1570, and 1571 not refuted
      // within the budget (N would also be sound, V would contradict).
      in.rows = {{1571, "NA"}, {1570, "V"}};
    }
    add_oracle(in, false, 256, cfg.seed);
    return std::vector<FlowInput>{std::move(in)};
  };
  return run_flows(cfg, 21, cfg.smoke ? 0.03 : 12.0, setup, 1);
}

}  // namespace perfbench
