#include "fuzz/differential.hpp"

#include <map>
#include <sstream>
#include <utility>

#include "common/telemetry.hpp"
#include "explain/analyzer.hpp"
#include "gen/rng.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/delay_annotation.hpp"
#include "netlist/topo_delay.hpp"
#include "netlist/transforms.hpp"
#include "netlist/verilog_io.hpp"
#include "sched/check_scheduler.hpp"
#include "sim/floating_sim.hpp"
#include "verify/report_io.hpp"
#include "verify/verifier.hpp"

namespace waveck::fuzz {

const char* to_string(Property p) {
  switch (p) {
    case Property::kExactDelay: return "exact_delay";
    case Property::kDeltaSoundness: return "delta_soundness";
    case Property::kDeltaMonotonic: return "delta_monotonic";
    case Property::kBufferInvariance: return "buffer_invariance";
    case Property::kNorRemap: return "nor_remap";
    case Property::kParallelDeterminism: return "parallel_determinism";
    case Property::kBenchRoundTrip: return "bench_roundtrip";
    case Property::kVerilogRoundTrip: return "verilog_roundtrip";
    case Property::kCacheEquivalence: return "cache_equivalence";
    case Property::kTraceWellFormed: return "trace_well_formed";
  }
  return "?";
}

bool property_from_string(const std::string& name, Property* out) {
  for (Property p : all_properties()) {
    if (name == to_string(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

const std::vector<Property>& all_properties() {
  static const std::vector<Property> kAll = {
      Property::kExactDelay,       Property::kDeltaSoundness,
      Property::kDeltaMonotonic,   Property::kBufferInvariance,
      Property::kNorRemap,         Property::kParallelDeterminism,
      Property::kBenchRoundTrip,   Property::kVerilogRoundTrip,
      Property::kCacheEquivalence, Property::kTraceWellFormed,
  };
  return kAll;
}

namespace {

PropertyResult pass(Property p) { return {p, true, false, ""}; }

PropertyResult fail(Property p, std::string details) {
  return {p, false, false, std::move(details)};
}

PropertyResult skip(Property p, std::string reason) {
  return {p, true, true, std::move(reason)};
}

/// Worst floating settle over every primary output under `v`.
Time replay_settle(const Circuit& c, const std::vector<bool>& v) {
  const auto sim = simulate_floating(c, v);
  Time worst = Time::neg_inf();
  for (NetId o : c.outputs()) {
    worst = Time::max(worst, sim.settle[o.index()]);
  }
  return worst;
}

/// Verifier search must agree with the exhaustive oracle on `c`; used both
/// directly (kExactDelay) and on transformed circuits.
PropertyResult verifier_matches_oracle(Property p, const Circuit& c,
                                       const BatteryOptions& opt,
                                       const char* what) {
  const Time oracle = exhaustive_floating_delay(c, opt.max_inputs);
  Verifier v(c);
  const auto res = v.exact_floating_delay();
  if (!res.exact) {
    return fail(p, std::string(what) + ": exact-delay search abandoned");
  }
  if (res.delay != oracle) {
    return fail(p, std::string(what) + ": verifier says " + res.delay.str() +
                       ", exhaustive oracle says " + oracle.str());
  }
  if (res.witness) {
    const Time settle = replay_settle(c, *res.witness);
    if (settle != res.delay) {
      return fail(p, std::string(what) + ": witness replays to " +
                         settle.str() + ", claimed delay " + res.delay.str());
    }
  }
  return pass(p);
}

PropertyResult check_exact_delay(const Circuit& c, const BatteryOptions& opt) {
  return verifier_matches_oracle(Property::kExactDelay, c, opt, "original");
}

/// δ samples: boundary-heavy around the oracle delay, plus a few salted
/// interior points up to the topological bound.
std::vector<std::int64_t> sample_deltas(Time oracle, Time topo,
                                        std::uint64_t salt) {
  const std::int64_t o = oracle.is_finite() ? oracle.value() : 0;
  const std::int64_t t =
      topo.is_finite() ? std::max(topo.value(), o) : o;
  std::map<std::int64_t, bool> set;  // ordered, deduped
  for (std::int64_t d : {std::int64_t{0}, o - 2, o - 1, o, o + 1, o + 3,
                         t, t + 1}) {
    if (d >= 0) set[d] = true;
  }
  gen::Rng rng(gen::mix_seed(salt, static_cast<std::uint64_t>(o + 1)));
  for (int i = 0; i < 4 && t > 0; ++i) {
    set[static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(t) + 1))] = true;
  }
  std::vector<std::int64_t> out;
  out.reserve(set.size());
  for (const auto& [d, _] : set) out.push_back(d);
  return out;
}

PropertyResult check_delta_soundness(const Circuit& c,
                                     const BatteryOptions& opt) {
  constexpr Property p = Property::kDeltaSoundness;
  const Time oracle = exhaustive_floating_delay(c, opt.max_inputs);
  const Time topo = topological_delay(c);
  Verifier v(c);
  for (std::int64_t d : sample_deltas(oracle, topo, opt.salt)) {
    const Time delta(d);
    const auto rep = v.check_circuit(delta);
    const bool oracle_violates = oracle >= delta;
    switch (rep.conclusion) {
      case CheckConclusion::kViolation: {
        if (!oracle_violates) {
          return fail(p, "delta " + std::to_string(d) +
                             ": verifier found a violation but the oracle "
                             "delay is only " + oracle.str());
        }
        if (!rep.vector) {
          return fail(p, "delta " + std::to_string(d) +
                             ": Violation verdict carries no witness");
        }
        const Time settle = replay_settle(c, *rep.vector);
        if (settle < delta) {
          return fail(p, "delta " + std::to_string(d) +
                             ": witness replays to settle " + settle.str() +
                             " < delta (bogus witness)");
        }
        break;
      }
      case CheckConclusion::kNoViolation:
        if (oracle_violates) {
          return fail(p, "delta " + std::to_string(d) +
                             ": verifier claims NoViolation but oracle "
                             "delay " + oracle.str() + " >= delta (unsound)");
        }
        break;
      default:
        return fail(p, "delta " + std::to_string(d) + ": inconclusive (" +
                           to_string(rep.conclusion) + ")");
    }
  }
  return pass(p);
}

PropertyResult check_delta_monotonic(const Circuit& c,
                                     const BatteryOptions& opt) {
  constexpr Property p = Property::kDeltaMonotonic;
  const Time oracle = exhaustive_floating_delay(c, opt.max_inputs);
  const Time topo = topological_delay(c);
  Verifier v(c);
  bool seen_no_violation = false;
  std::int64_t first_n = 0;
  for (std::int64_t d : sample_deltas(oracle, topo, opt.salt ^ 0x5eedu)) {
    const auto rep = v.check_circuit(Time(d));
    if (rep.conclusion == CheckConclusion::kNoViolation) {
      if (!seen_no_violation) first_n = d;
      seen_no_violation = true;
    } else if (rep.conclusion == CheckConclusion::kViolation) {
      if (seen_no_violation) {
        return fail(p, "NoViolation at delta " + std::to_string(first_n) +
                           " but Violation again at larger delta " +
                           std::to_string(d));
      }
    } else {
      return fail(p, "delta " + std::to_string(d) + ": inconclusive (" +
                         to_string(rep.conclusion) + ")");
    }
  }
  return pass(p);
}

PropertyResult check_buffer_invariance(const Circuit& c,
                                       const BatteryOptions& opt) {
  constexpr Property p = Property::kBufferInvariance;
  // Salted, deterministic site choice: roughly one net in four.
  gen::Rng rng(gen::mix_seed(opt.salt, c.num_nets()));
  std::vector<NetId> sites;
  for (NetId n : c.all_nets()) {
    if (rng.chance(25)) sites.push_back(n);
  }
  const Circuit buffered = insert_buffers(c, sites);
  const Time before = exhaustive_floating_delay(c, opt.max_inputs);
  const Time after = exhaustive_floating_delay(buffered, opt.max_inputs);
  if (before != after) {
    return fail(p, "zero-delay buffering changed the oracle delay: " +
                       before.str() + " -> " + after.str() + " (" +
                       std::to_string(sites.size()) + " sites)");
  }
  auto sub = verifier_matches_oracle(p, buffered, opt, "buffered");
  return sub;
}

PropertyResult check_nor_remap(const Circuit& c, const BatteryOptions& opt) {
  constexpr Property p = Property::kNorRemap;
  Circuit mapped = map_to_nor(c);
  if (mapped.num_gates() > opt.max_nor_gates) {
    return skip(p, "NOR remap has " + std::to_string(mapped.num_gates()) +
                       " gates > cap " + std::to_string(opt.max_nor_gates));
  }
  mapped.set_uniform_delay(DelaySpec::fixed(10));
  // Function preservation: every vector, every output value.
  const std::size_t n = c.inputs().size();
  if (n > opt.max_inputs) {
    throw OracleLimitError(c.name(), n, opt.max_inputs);
  }
  std::vector<bool> v(n, false);
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << n); ++bits) {
    for (std::size_t i = 0; i < n; ++i) v[i] = (bits >> i) & 1;
    const auto a = simulate_floating(c, v);
    const auto b = simulate_floating(mapped, v);
    for (std::size_t o = 0; o < c.outputs().size(); ++o) {
      const NetId oa = c.outputs()[o];
      const NetId ob = mapped.outputs()[o];
      if (a.value[oa.index()] != b.value[ob.index()]) {
        return fail(p, "NOR remap changed output '" + c.net(oa).name +
                           "' under vector " + std::to_string(bits));
      }
    }
  }
  return verifier_matches_oracle(p, mapped, opt, "nor-mapped");
}

/// Suite JSON with the wall-clock fields zeroed: the determinism contract
/// (doc/PARALLELISM.md) covers everything except timing. Shared with the
/// CLI (--canon) and the serve daemon via report_io.
std::string canonical_suite_json(const Circuit& c, SuiteReport rep) {
  return canonical_json(c, std::move(rep));
}

PropertyResult check_cache_equivalence(const Circuit& c,
                                       const BatteryOptions& opt) {
  (void)opt;
  constexpr Property p = Property::kCacheEquivalence;
  const Time topo = topological_delay(c);
  const std::int64_t t = topo.is_finite() ? topo.value() : 0;
  for (std::int64_t d : {t / 2, t, t + 1}) {
    if (d < 0) continue;
    const Time delta(d);
    VerifyOptions cached_opt;
    cached_opt.use_carrier_cache = true;
    Verifier cached(c, cached_opt);
    const std::string on = canonical_suite_json(c, cached.check_circuit(delta));
    VerifyOptions scratch_opt;
    scratch_opt.use_carrier_cache = false;
    Verifier scratch(c, scratch_opt);
    const std::string off =
        canonical_suite_json(c, scratch.check_circuit(delta));
    if (on != off) {
      return fail(p, "cache-on vs cache-off suite JSON differs at delta " +
                         std::to_string(d));
    }
  }
  return pass(p);
}

PropertyResult check_parallel_determinism(const Circuit& c,
                                          const BatteryOptions& opt) {
  constexpr Property p = Property::kParallelDeterminism;
  const Time topo = topological_delay(c);
  const std::int64_t t = topo.is_finite() ? topo.value() : 0;
  for (std::int64_t d : {t / 2, t, t + 1}) {
    if (d < 0) continue;
    const Time delta(d);
    Verifier serial(c);
    const std::string ser = canonical_suite_json(c, serial.check_circuit(delta));
    Verifier parallel_v(c);
    sched::CheckScheduler sched(parallel_v,
                                {.jobs = opt.jobs ? opt.jobs : 2});
    const std::string par = canonical_suite_json(c, sched.check_circuit(delta));
    if (ser != par) {
      return fail(p, "serial vs jobs=" +
                         std::to_string(opt.jobs ? opt.jobs : 2) +
                         " suite JSON differs at delta " + std::to_string(d));
    }
  }
  return pass(p);
}

/// Gate-delay map keyed by output net name (order-independent comparison).
std::map<std::string, DelaySpec> delay_map(const Circuit& c) {
  std::map<std::string, DelaySpec> m;
  for (GateId g : c.all_gates()) {
    m[c.net(c.gate(g).out).name] = c.gate(g).delay;
  }
  return m;
}

PropertyResult structure_equal(Property p, const Circuit& a, const Circuit& b,
                               const char* what) {
  if (a.num_gates() != b.num_gates() || a.num_nets() != b.num_nets() ||
      a.inputs().size() != b.inputs().size() ||
      a.outputs().size() != b.outputs().size()) {
    std::ostringstream os;
    os << what << " changed the structure: " << a.num_gates() << "g/"
       << a.num_nets() << "n/" << a.inputs().size() << "i/"
       << a.outputs().size() << "o vs " << b.num_gates() << "g/"
       << b.num_nets() << "n/" << b.inputs().size() << "i/"
       << b.outputs().size() << "o";
    return fail(p, os.str());
  }
  return pass(p);
}

PropertyResult check_bench_roundtrip(const Circuit& c,
                                     const BatteryOptions& opt) {
  (void)opt;
  constexpr Property p = Property::kBenchRoundTrip;
  const std::string s1 = write_bench_string(c);
  Circuit c2 = read_bench_string(s1, c.name());
  const std::string s2 = write_bench_string(c2);
  if (s1 != s2) {
    return fail(p, "write->read->write is not a fixpoint");
  }
  if (auto r = structure_equal(p, c, c2, ".bench round-trip"); !r.ok) {
    return r;
  }
  // Delay annotations survive a write_delays/read_delays round-trip onto
  // the reparsed circuit.
  std::ostringstream ds;
  write_delays(ds, c);
  std::istringstream is(ds.str());
  read_delays(is, c2);
  if (delay_map(c) != delay_map(c2)) {
    return fail(p, "delay annotations not preserved across round-trip");
  }
  return pass(p);
}

PropertyResult check_verilog_roundtrip(const Circuit& c,
                                       const BatteryOptions& opt) {
  (void)opt;
  constexpr Property p = Property::kVerilogRoundTrip;
  const auto hist = histogram(c);
  if (hist.of(GateType::kMux) > 0 || hist.of(GateType::kDelay) > 0) {
    return skip(p, "writer lowers MUX/DELAY to primitives (documented)");
  }
  const std::string s1 = write_verilog_string(c);
  Circuit c2 = read_verilog_string(s1, c.name());
  const std::string s2 = write_verilog_string(c2);
  if (s1 != s2) {
    return fail(p, "write->read->write is not a fixpoint");
  }
  return structure_equal(p, c, c2, "Verilog round-trip");
}

PropertyResult check_trace_well_formed(const Circuit& c,
                                       const BatteryOptions& opt) {
  (void)opt;
  constexpr Property p = Property::kTraceWellFormed;
  const Time topo = topological_delay(c);
  const std::int64_t t = topo.is_finite() ? topo.value() : 0;

  // Capture every output's check at both deltas with a private sink
  // (restoring whatever sink — usually none — the fuzz engine had
  // installed). check_output is used directly: unlike check_circuit it
  // never takes the trivial-STA shortcut, so each report has a trace span.
  std::ostringstream trace;
  telemetry::JsonlTraceSink sink(trace);
  telemetry::TraceSink* const prev = telemetry::trace_sink();
  telemetry::set_trace_sink(&sink);
  std::vector<CheckReport> reports;
  for (const std::int64_t d : {t, t + 1}) {
    if (d < 0) continue;
    Verifier v(c);
    for (const NetId o : c.outputs()) {
      reports.push_back(v.check_output(o, Time{d}));
    }
  }
  telemetry::set_trace_sink(prev);

  std::istringstream in(trace.str());
  const explain::TraceAnalysis a = explain::analyze_trace(in);
  if (!a.well_formed()) {
    std::string why = a.warnings.empty() ? "(no detail)" : a.warnings.front();
    return fail(p, std::to_string(a.n_warnings) +
                       " analyzer warning(s), first: " + why);
  }
  if (a.checks.size() != reports.size()) {
    return fail(p, "trace has " + std::to_string(a.checks.size()) +
                       " checks, verifier ran " +
                       std::to_string(reports.size()));
  }
  // The serial loop runs checks in order, so the Nth check span is the Nth
  // CheckReport; every event tally must agree with the report's counters.
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const CheckReport& r = reports[i];
    const explain::CheckTree& ct = a.checks[i];
    const std::string expect_out = c.net(r.check.output).name;
    const auto mismatch = [&](const char* what, std::uint64_t traced,
                              std::size_t reported) {
      return fail(p, "check " + std::to_string(ct.chk) + " (" + expect_out +
                         "): trace " + what + "=" + std::to_string(traced) +
                         " but CheckReport says " + std::to_string(reported));
    };
    if (ct.output != expect_out) {
      return fail(p, "check order mismatch: trace has " + ct.output +
                         ", verifier ran " + expect_out);
    }
    if (!ct.closed) {
      return fail(p, "check " + std::to_string(ct.chk) + " never closed");
    }
    if (ct.conclusion != to_string(r.conclusion)) {
      return fail(p, "check " + std::to_string(ct.chk) + " conclusion \"" +
                         ct.conclusion + "\" vs report \"" +
                         to_string(r.conclusion) + "\"");
    }
    if (ct.n_decisions != r.decisions) {
      return mismatch("decisions", ct.n_decisions, r.decisions);
    }
    if (ct.n_backtracks != r.backtracks) {
      return mismatch("backtracks", ct.n_backtracks, r.backtracks);
    }
    if (ct.n_gitd_rounds != r.gitd_rounds) {
      return mismatch("gitd_rounds", ct.n_gitd_rounds, r.gitd_rounds);
    }
    if (ct.n_stems != r.stems_processed) {
      return mismatch("stems", ct.n_stems, r.stems_processed);
    }
  }
  return pass(p);
}

}  // namespace

PropertyResult check_property(const Circuit& c, Property p,
                              const BatteryOptions& opt) {
  switch (p) {
    case Property::kExactDelay: return check_exact_delay(c, opt);
    case Property::kDeltaSoundness: return check_delta_soundness(c, opt);
    case Property::kDeltaMonotonic: return check_delta_monotonic(c, opt);
    case Property::kBufferInvariance: return check_buffer_invariance(c, opt);
    case Property::kNorRemap: return check_nor_remap(c, opt);
    case Property::kParallelDeterminism:
      return check_parallel_determinism(c, opt);
    case Property::kBenchRoundTrip: return check_bench_roundtrip(c, opt);
    case Property::kVerilogRoundTrip: return check_verilog_roundtrip(c, opt);
    case Property::kCacheEquivalence: return check_cache_equivalence(c, opt);
    case Property::kTraceWellFormed: return check_trace_well_formed(c, opt);
  }
  return fail(p, "unknown property");
}

BatteryResult run_battery(const Circuit& c, const BatteryOptions& opt) {
  BatteryResult r;
  r.results.reserve(all_properties().size());
  for (Property p : all_properties()) {
    r.results.push_back(check_property(c, p, opt));
  }
  return r;
}

}  // namespace waveck::fuzz
