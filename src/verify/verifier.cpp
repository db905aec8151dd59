#include "verify/verifier.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "analysis/carrier_cache.hpp"
#include "analysis/delay_correlation.hpp"
#include "common/flight_recorder.hpp"
#include "common/telemetry.hpp"
#include "netlist/topo_delay.hpp"
#include "prof/heartbeat.hpp"
#include "sim/floating_sim.hpp"
#include "sim/transition_sim.hpp"
#include "verify/stem_correlation.hpp"

namespace waveck {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

StageStatus status_of(ConstraintSystem::Status s) {
  return s == ConstraintSystem::Status::kNoViolation
             ? StageStatus::kNoViolation
             : StageStatus::kPossible;
}

/// Flight-record code for a stage verdict rendered by to_string(StageStatus)
/// ("-" / "P" / "N"); the close_stage lambda only has the string.
std::uint8_t flight_stage_code(const char* status) {
  switch (status[0]) {
    case 'P': return flight::kStagePossible;
    case 'N': return flight::kStageNoViolation;
    default: return flight::kStageNotRun;
  }
}

std::int64_t flight_delta(Time delta) {
  if (delta.is_pos_inf()) return std::numeric_limits<std::int64_t>::max();
  if (delta.is_neg_inf()) return std::numeric_limits<std::int64_t>::min();
  return delta.value();
}

/// Worst-of for stage aggregation: P dominates N dominates NotRun.
StageStatus aggregate(StageStatus a, StageStatus b) {
  if (a == StageStatus::kPossible || b == StageStatus::kPossible) {
    return StageStatus::kPossible;
  }
  if (a == StageStatus::kNoViolation || b == StageStatus::kNoViolation) {
    return StageStatus::kNoViolation;
  }
  return StageStatus::kNotRun;
}

}  // namespace

Verifier::Verifier(const Circuit& c, VerifyOptions opt)
    : c_(c), opt_(opt) {}

void Verifier::prepare_shared() {
  (void)learning();  // the empty LearningResult when learning is disabled
  if (opt_.use_stem_correlation) (void)reconvergent_stems();
  if (opt_.use_case_analysis && opt_.case_analysis.use_scoap) (void)scoap();
}

void Verifier::set_cancel_flag(const std::atomic<bool>* flag) {
  opt_.case_analysis.cancel = flag;
}

void Verifier::set_deadline_ns(std::uint64_t expiry_mono_ns) {
  opt_.deadline_ns = expiry_mono_ns;
}

const LearningResult& Verifier::learning() {
  if (!learning_) {
    learning_ = opt_.use_learning ? learn_implications(c_, opt_.learning)
                                  : LearningResult{};
  }
  return *learning_;
}

const Scoap& Verifier::scoap() {
  if (!scoap_) scoap_ = compute_scoap(c_);
  return *scoap_;
}

const std::vector<NetId>& Verifier::reconvergent_stems() {
  if (!stems_) {
    std::vector<NetId> stems;
    for (NetId n : c_.fanout_stems()) {
      if (c_.is_reconvergent_stem(n)) stems.push_back(n);
    }
    stems_ = std::move(stems);
  }
  return *stems_;
}

CheckReport Verifier::check_output(NetId s, Time delta) {
  if (!opt_.use_delay_correlation) {
    return run_check(c_, nullptr, s, delta);
  }
  // Correlation narrows delay intervals per check: work on a private copy.
  Circuit copy = c_;
  return run_check(copy, &copy, s, delta);
}

CheckReport Verifier::check_transition(NetId s, Time delta,
                                       const std::vector<bool>& v1,
                                       const std::vector<bool>& v2) {
  std::vector<AbstractSignal> inputs;
  inputs.reserve(v1.size());
  for (std::size_t i = 0; i < v1.size(); ++i) {
    inputs.push_back(transition_input_signal(v1[i], v2[i]));
  }
  CheckReport rep;
  if (!opt_.use_delay_correlation) {
    rep = run_check(c_, nullptr, s, delta, &inputs);
  } else {
    Circuit copy = c_;
    rep = run_check(copy, &copy, s, delta, &inputs);
  }
  // The case-analysis validator uses the floating-mode simulator, which is
  // an over-approximation here (it assumes unknown pre-history even on
  // non-toggling inputs): confirm any violation against the exact
  // two-vector simulation.
  if (rep.conclusion == CheckConclusion::kViolation) {
    const auto sim = simulate_transition(c_, v1, v2);
    if (sim.settle[s.index()] < delta) {
      rep.conclusion = CheckConclusion::kNoViolation;
      rep.vector.reset();
    } else {
      rep.vector = v2;
    }
  }
  return rep;
}

CheckReport Verifier::run_check(const Circuit& c, Circuit* mutable_c,
                                NetId s, Time delta,
                                const std::vector<AbstractSignal>* input_override) {
  // The tallies of the report are registry snapshots: the stages below bump
  // the process-wide counters and this wrapper reads back the deltas, so
  // CheckReport, the metrics snapshot and the trace stream always agree.
  auto& reg = telemetry::Registry::current();
  auto& ctr_backtracks = reg.counter("search.backtracks");
  auto& ctr_decisions = reg.counter("search.decisions");
  auto& ctr_gitd_rounds = reg.counter("gitd.rounds");
  auto& ctr_stems = reg.counter("stem.stems_processed");
  auto& ctr_corr = reg.counter("delay_corr.gates_narrowed");
  const std::uint64_t backtracks0 = ctr_backtracks.value();
  const std::uint64_t decisions0 = ctr_decisions.value();
  const std::uint64_t gitd0 = ctr_gitd_rounds.value();
  const std::uint64_t stems0 = ctr_stems.value();
  const std::uint64_t corr0 = ctr_corr.value();

  reg.counter("verify.checks").inc();
  // Check-level span: every event emitted until the matching check_end
  // (stages, decisions, propagations — including from code that knows
  // nothing about checks) is stamped with this check's id.
  std::optional<telemetry::ScopedCheckSpan> span;
  if (telemetry::trace_enabled() || flight::enabled()) {
    span.emplace();  // the flight recorder attributes by chk id too
    if (telemetry::trace_enabled()) {
      telemetry::emit("check_begin", {{"output", c.net(s).name},
                                      {"delta", delta.value()}});
    }
    if (flight::enabled()) {
      flight::record(flight::Kind::kCheckBegin, c.net(s).name,
                     flight_delta(delta));
    }
  }
  // Profiler mark (thread-local) and heartbeat board slot: both hold the
  // interned copy of the net's name, which outlives the circuit.
  telemetry::set_check_mark(c.net(s).name.c_str());
  if (prof::heartbeat_enabled()) {
    prof::ActivityBoard::begin_check(telemetry::check_mark(),
                                     span ? span->id() : -1);
  }

  const telemetry::StopWatch watch;
  CheckReport rep = run_check_stages(c, mutable_c, s, delta, input_override);
  rep.seconds = watch.seconds();
  telemetry::set_stage_mark(nullptr);
  telemetry::set_check_mark(nullptr);
  if (prof::heartbeat_enabled()) prof::ActivityBoard::end_check();
  rep.backtracks = ctr_backtracks.value() - backtracks0;
  rep.decisions = ctr_decisions.value() - decisions0;
  rep.gitd_rounds = ctr_gitd_rounds.value() - gitd0;
  rep.stems_processed = ctr_stems.value() - stems0;
  rep.correlated_delay_narrowings = ctr_corr.value() - corr0;

  reg.counter(std::string("verify.conclusion.") +
              to_string(rep.conclusion)).inc();
  if (telemetry::trace_enabled()) {
    if (rep.vector) {
      // The witness rides along so offline consumers (the DOT exporter's
      // critical-path highlight) need no re-search.
      const std::string vec = format_vector(*rep.vector);
      telemetry::emit("check_end",
                      {{"output", c.net(s).name},
                       {"conclusion", to_string(rep.conclusion)},
                       {"seconds", rep.seconds},
                       {"vector", vec}});
    } else {
      telemetry::emit("check_end",
                      {{"output", c.net(s).name},
                       {"conclusion", to_string(rep.conclusion)},
                       {"seconds", rep.seconds}});
    }
  }
  if (flight::enabled()) {
    // The conclusion codes in flight_recorder.hpp mirror CheckConclusion's
    // declaration order, so the enum value doubles as the record code.
    flight::record(flight::Kind::kCheckEnd, c.net(s).name,
                   static_cast<std::int64_t>(rep.seconds * 1e9), 0,
                   static_cast<std::uint8_t>(rep.conclusion));
  }
  // Post-mortem trigger: a check abandoned because its deadline passed is
  // exactly the "why was this slow?" moment the blackbox exists for. The
  // per-reason cooldown in dump_blackbox keeps a refutation band that blows
  // its budget on every output from writing hundreds of dumps.
  if (rep.conclusion == CheckConclusion::kAbandoned && opt_.deadline_ns != 0 &&
      prof::monotonic_ns() >= opt_.deadline_ns && flight::blackbox_enabled()) {
    flight::dump_blackbox("deadline_expired");
  }
  return rep;
}

CheckReport Verifier::run_check_stages(
    const Circuit& c, Circuit* mutable_c, NetId s, Time delta,
    const std::vector<AbstractSignal>* input_override) {
  auto& reg = telemetry::Registry::current();
  CheckReport rep;
  rep.check = TimingCheck{s, delta};

  telemetry::StopWatch stage_watch;
  // Stage spans: `stage_begin`/`stage_end` bracket each pipeline stage in
  // the trace (stage_end carries the stage's verdict), nested inside the
  // enclosing check span. The offline analyzer rebuilds its waterfalls
  // from these; the registry stage timers stay the metrics source.
  //
  // With prof::counters_enabled() each stage also gets a hardware-counter
  // window (group read at open, delta at close), accumulated twice: into
  // the CheckReport's StagePerf slot and into the thread's registry under
  // "perf.stage.<name>.*" — keeping both views additive means the global
  // registry always equals the sum over per-check reports, regardless of
  // how checks were spread across workers.
  const bool perf_on = prof::counters_enabled();
  prof::CounterSample perf_mark;
  const auto open_stage = [&](const char* stage) {
    telemetry::set_stage_mark(stage);
    if (prof::heartbeat_enabled()) prof::ActivityBoard::set_stage(stage);
    if (perf_on) perf_mark = prof::thread_counter_group().read();
    if (telemetry::trace_enabled()) {
      telemetry::emit("stage_begin", {{"stage", stage}});
    }
    if (flight::enabled()) {
      flight::record(flight::Kind::kStageBegin, stage);
    }
  };
  const auto close_stage = [&](const char* timer, const char* stage,
                               const char* status, double& slot,
                               prof::CounterTotals* perf_slot) {
    const std::uint64_t ns = stage_watch.ns();
    reg.timer(timer).add_ns(ns);
    slot += static_cast<double>(ns) * 1e-9;
    stage_watch = telemetry::StopWatch();
    if (perf_on && perf_slot != nullptr) {
      const prof::CounterDelta d = prof::delta_between(
          perf_mark, prof::thread_counter_group().read());
      perf_slot->add(d);
      prof::add_to_registry(reg, timer, d);
    }
    telemetry::set_stage_mark(nullptr);
    if (telemetry::trace_enabled()) {
      telemetry::emit("stage_end", {{"stage", stage}, {"status", status}});
    }
    if (flight::enabled()) {
      flight::record(flight::Kind::kStageEnd, stage, 0, 0,
                     flight_stage_code(status));
    }
  };

  ConstraintSystem cs(c);
  cs.set_deadline_ns(opt_.deadline_ns);
  // True once the check's deadline has passed: either the fixpoint drain
  // latched it mid-drain, or the wall clock moved past it between stages.
  // Every stage boundary below funnels through this — an expired check
  // concludes kAbandoned with whatever stage statuses it honestly earned.
  const auto deadline_expired = [&] {
    if (opt_.deadline_ns == 0) return false;
    return cs.deadline_hit() || prof::monotonic_ns() >= opt_.deadline_ns;
  };
  if (opt_.use_learning) {
    open_stage("learning");
    const LearningResult& lr = learning();  // lazily computed once
    reg.timer("stage.learning").add_ns(stage_watch.ns());
    stage_watch = telemetry::StopWatch();
    if (telemetry::trace_enabled()) {
      telemetry::emit("stage_end", {{"stage", "learning"}, {"status", "-"}});
    }
    if (flight::enabled()) {
      flight::record(flight::Kind::kStageEnd, "learning", 0, 0,
                     flight::kStageNotRun);
    }
    cs.set_implications(&lr.table);
  }
  open_stage("narrowing");

  // Initial domains (Section 3.3): floating-mode inputs, the delta
  // restriction on s, everything else top; then the globally-impossible
  // classes found by learning.
  for (std::size_t i = 0; i < c.inputs().size(); ++i) {
    cs.restrict_domain(c.inputs()[i],
                       input_override != nullptr
                           ? (*input_override)[i]
                           : AbstractSignal::floating_input());
  }
  cs.restrict_domain(s, AbstractSignal::violating(delta));
  if (opt_.use_learning) {
    for (const auto& [net, cls] : learning().impossible) {
      cs.restrict_domain(net, AbstractSignal::class_only(!cls));
    }
  }
  cs.schedule_all();

  // Stage 1: plain narrowing fixpoint.
  rep.before_gitd = status_of(cs.reach_fixpoint());
  close_stage("stage.narrowing", "narrowing", to_string(rep.before_gitd),
              rep.stage_seconds.narrowing, &rep.stage_perf.narrowing);
  if (rep.before_gitd == StageStatus::kNoViolation) {
    rep.conclusion = CheckConclusion::kNoViolation;
    return rep;
  }
  if (deadline_expired()) {
    rep.conclusion = CheckConclusion::kAbandoned;
    return rep;
  }

  // Stage 1.5 (extension, reference [1]): correlated delay narrowing.
  if (mutable_c != nullptr) {
    open_stage("delay_correlation");
    const auto stats = apply_delay_correlation(cs, *mutable_c);
    close_stage("stage.delay_correlation", "delay_correlation",
                stats.proved_no_violation ? "N" : "P",
                rep.stage_seconds.narrowing, &rep.stage_perf.narrowing);
    if (stats.proved_no_violation) {
      rep.before_gitd = StageStatus::kNoViolation;
      rep.conclusion = CheckConclusion::kNoViolation;
      return rep;
    }
  }

  // Incremental carrier/dominator cache for stages 2-4. Constructed after
  // delay correlation: that stage narrows *gate delays*, which the
  // constraint system's change log does not track, so the cache must not
  // observe a pre-correlation circuit. Construction is cheap; the first
  // query pays the one full build.
  std::optional<CarrierCache> cache_storage;
  CarrierCache* cache = nullptr;
  if (opt_.use_carrier_cache) {
    cache = &cache_storage.emplace(cs, TimingCheck{s, delta});
  }

  // Stage 2: global implications on dynamic timing dominators (Figure 4).
  if (opt_.use_dominators) {
    open_stage("gitd");
    auto& ctr_rounds = reg.counter("gitd.rounds");
    rep.after_gitd = StageStatus::kPossible;
    for (;;) {
      if (deadline_expired()) break;
      ctr_rounds.inc();
      const std::size_t narrowed =
          apply_dominator_implications(cs, rep.check, cache);
      if (telemetry::trace_enabled()) {
        telemetry::emit("gitd_round", {{"narrowed", narrowed}});
      }
      if (flight::enabled()) {
        flight::record(flight::Kind::kGitdRound, {},
                       static_cast<std::int64_t>(narrowed));
      }
      if (narrowed == 0) break;
      if (cs.reach_fixpoint() == ConstraintSystem::Status::kNoViolation) {
        rep.after_gitd = StageStatus::kNoViolation;
        break;
      }
    }
    close_stage("stage.gitd", "gitd", to_string(rep.after_gitd),
                rep.stage_seconds.gitd, &rep.stage_perf.gitd);
    if (rep.after_gitd == StageStatus::kNoViolation) {
      rep.conclusion = CheckConclusion::kNoViolation;
      return rep;
    }
    if (deadline_expired()) {
      rep.conclusion = CheckConclusion::kAbandoned;
      return rep;
    }
  }

  // Stage 3: stem correlation.
  if (opt_.use_stem_correlation) {
    open_stage("stem");
    const auto stats = apply_stem_correlation(
        cs, rep.check, reconvergent_stems(), opt_.max_stems, cache);
    const bool closed =
        stats.proved_no_violation ||
        (opt_.use_dominators &&
         [&] {  // re-run the dominator loop on the correlated domains
           for (;;) {
             if (deadline_expired()) return false;
             if (apply_dominator_implications(cs, rep.check, cache) == 0)
               return false;
             if (cs.reach_fixpoint() ==
                 ConstraintSystem::Status::kNoViolation)
               return true;
           }
         }());
    close_stage("stage.stem", "stem", closed ? "N" : "P",
                rep.stage_seconds.stem, &rep.stage_perf.stem);
    if (closed) {
      rep.after_stem = StageStatus::kNoViolation;
      rep.conclusion = CheckConclusion::kNoViolation;
      return rep;
    }
    rep.after_stem = StageStatus::kPossible;
    if (deadline_expired()) {
      rep.conclusion = CheckConclusion::kAbandoned;
      return rep;
    }
  }

  // Stage 4: case analysis.
  if (!opt_.use_case_analysis) {
    rep.conclusion = CheckConclusion::kPossible;
    return rep;
  }
  const Scoap* sc =
      opt_.case_analysis.use_scoap ? &scoap() : nullptr;
  open_stage("case_analysis");
  CaseAnalysisOptions ca_opt = opt_.case_analysis;
  ca_opt.deadline_ns = opt_.deadline_ns;
  const auto outcome = run_case_analysis(cs, rep.check, sc, ca_opt, cache);
  switch (outcome.result) {
    case CaseResult::kViolation:
      rep.conclusion = CheckConclusion::kViolation;
      rep.vector = outcome.vector;
      break;
    case CaseResult::kNoViolation:
      rep.conclusion = CheckConclusion::kNoViolation;
      break;
    case CaseResult::kAbandoned:
      rep.conclusion = CheckConclusion::kAbandoned;
      break;
  }
  close_stage("stage.case_analysis", "case_analysis",
              to_string(rep.conclusion), rep.stage_seconds.case_analysis,
              &rep.stage_perf.case_analysis);
  return rep;
}

SuitePlan plan_suite_checks(const Circuit& c, Time delta) {
  SuitePlan plan;
  plan.delta = delta;
  // Check outputs worst-arrival first: a violation, if any, is likeliest on
  // the topologically-slowest output.
  const auto top = topo_arrival(c);
  plan.order = c.outputs();
  std::sort(plan.order.begin(), plan.order.end(), [&](NetId a, NetId b) {
    return top[a.index()] > top[b.index()];
  });
  plan.trivial.reserve(plan.order.size());
  for (NetId s : plan.order) {
    plan.trivial.push_back(top[s.index()] < delta);
  }
  return plan;
}

CheckReport sta_trivial_report(NetId s, Time delta) {
  CheckReport rep;
  rep.check = TimingCheck{s, delta};
  rep.before_gitd = StageStatus::kNoViolation;
  rep.conclusion = CheckConclusion::kNoViolation;
  return rep;
}

SuiteMerger::SuiteMerger(Time delta) {
  suite_.delta = delta;
  suite_.conclusion = CheckConclusion::kNoViolation;
}

bool SuiteMerger::add(CheckReport rep) {
  suite_.before_gitd = aggregate(suite_.before_gitd, rep.before_gitd);
  suite_.after_gitd = aggregate(suite_.after_gitd, rep.after_gitd);
  suite_.after_stem = aggregate(suite_.after_stem, rep.after_stem);
  suite_.backtracks += rep.backtracks;
  suite_.stage_seconds.narrowing += rep.stage_seconds.narrowing;
  suite_.stage_seconds.gitd += rep.stage_seconds.gitd;
  suite_.stage_seconds.stem += rep.stage_seconds.stem;
  suite_.stage_seconds.case_analysis += rep.stage_seconds.case_analysis;
  suite_.stage_perf.add(rep.stage_perf);

  if (rep.conclusion == CheckConclusion::kViolation) {
    // One witness settles the circuit-level question; later outputs are
    // not part of the suite (serial never visits them).
    suite_.conclusion = CheckConclusion::kViolation;
    suite_.vector = rep.vector;
    suite_.violating_output = rep.check.output;
    suite_.per_output.push_back(std::move(rep));
    return false;
  }
  if (rep.conclusion == CheckConclusion::kAbandoned) {
    suite_.conclusion = CheckConclusion::kAbandoned;
  } else if (rep.conclusion == CheckConclusion::kPossible &&
             suite_.conclusion == CheckConclusion::kNoViolation) {
    suite_.conclusion = CheckConclusion::kPossible;
  }
  suite_.per_output.push_back(std::move(rep));
  return true;
}

SuiteReport SuiteMerger::finish(double seconds) && {
  suite_.seconds = seconds;
  return std::move(suite_);
}

SuiteReport Verifier::check_circuit(Time delta) {
  const auto t0 = Clock::now();
  const SuitePlan plan = plan_suite_checks(c_, delta);
  SuiteMerger merger(delta);
  for (std::size_t i = 0; i < plan.order.size(); ++i) {
    CheckReport rep = plan.trivial[i]
                          ? sta_trivial_report(plan.order[i], delta)
                          : check_output(plan.order[i], delta);
    if (!merger.add(std::move(rep))) break;
  }
  return std::move(merger).finish(seconds_since(t0));
}

Verifier::ExactDelayResult Verifier::exact_floating_delay() {
  return exact_floating_delay(
      [this](Time delta) { return check_circuit(delta); });
}

Verifier::ExactDelayResult Verifier::exact_floating_delay(
    const std::function<SuiteReport(Time)>& probe) {
  ExactDelayResult res;
  res.topological = topological_delay(c_);
  if (res.topological == Time::neg_inf()) return res;

  // Invariant: violation exists at every delta <= lo (witnessed), none at
  // delta > hi.
  std::int64_t lo = 0;
  std::int64_t hi = res.topological.value();
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo + 1) / 2;
    ++res.probes;
    SuiteReport r = probe(Time(mid));
    res.total_backtracks += r.backtracks;
    if (r.conclusion == CheckConclusion::kViolation) {
      // Jump: the witness's true settle time is a valid lower bound.
      const auto sim = simulate_floating(c_, *r.vector);
      Time settle = Time::neg_inf();
      for (NetId o : c_.outputs()) {
        settle = Time::max(settle, sim.settle[o.index()]);
      }
      lo = std::max(mid, settle.value());
      res.witness = r.vector;
      res.witness_output = r.violating_output;
    } else if (r.conclusion == CheckConclusion::kNoViolation) {
      hi = mid - 1;
    } else {
      // Abandoned/possible: cannot decide exactly; keep the sound bounds.
      res.exact = false;
      hi = mid - 1;  // treat as "not proven": report the largest witnessed
    }
  }
  res.delay = Time(lo);
  if (lo == 0 && !res.witness) {
    // Re-derive the trivial witness at delta = 0 for completeness.
    SuiteReport r = probe(Time(0));
    if (r.conclusion == CheckConclusion::kViolation) {
      res.witness = r.vector;
      res.witness_output = r.violating_output;
    }
  }
  return res;
}

std::string format_vector(const std::vector<bool>& v) {
  std::string s;
  s.reserve(v.size());
  for (bool b : v) s += b ? '1' : '0';
  return s;
}

}  // namespace waveck
