#include "verify/verifier.hpp"

#include <algorithm>
#include <optional>

#include "analysis/carrier_cache.hpp"
#include "analysis/delay_correlation.hpp"
#include "common/flight_recorder.hpp"
#include "common/telemetry.hpp"
#include "netlist/topo_delay.hpp"
#include "prof/span.hpp"
#include "sim/floating_sim.hpp"
#include "sim/transition_sim.hpp"
#include "verify/stem_correlation.hpp"

namespace waveck {
namespace {

StageStatus status_of(ConstraintSystem::Status s) {
  return s == ConstraintSystem::Status::kNoViolation
             ? StageStatus::kNoViolation
             : StageStatus::kPossible;
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
    : c_(c),
      opt_(opt),
      heads_(compute_head_lines(c)) {}

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
  prof::CheckSpan span(c.net(s).name, delta.value());
  CheckReport rep = run_check_stages(c, mutable_c, s, delta, input_override);
  rep.seconds =
      span.close(to_string(rep.conclusion)[0],
                 rep.vector ? format_vector(*rep.vector) : std::string());
  rep.backtracks = ctr_backtracks.value() - backtracks0;
  rep.decisions = ctr_decisions.value() - decisions0;
  rep.gitd_rounds = ctr_gitd_rounds.value() - gitd0;
  rep.stems_processed = ctr_stems.value() - stems0;
  rep.correlated_delay_narrowings = ctr_corr.value() - corr0;

  reg.counter(std::string("verify.conclusion.") +
              to_string(rep.conclusion)).inc();
  // Post-mortem trigger: a check abandoned because its deadline passed is
  // exactly the "why was this slow?" moment the blackbox exists for. The
  // per-reason cooldown in dump_blackbox keeps a refutation band that blows
  // its budget on every output from writing hundreds of dumps.
  if (rep.conclusion == CheckConclusion::kAbandoned && opt_.deadline_ns != 0 &&
      telemetry::monotonic_ns() >= opt_.deadline_ns && flight::blackbox_enabled()) {
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

  // Each pipeline stage runs inside a prof::StageSpan, which is charged
  // from the previous stage's close.
  telemetry::StopWatch stage_boundary;
  ConstraintSystem cs(c);
  cs.set_deadline_ns(opt_.deadline_ns);
  // True once the check's deadline has passed: either the fixpoint drain
  // latched it mid-drain, or the wall clock moved past it between stages.
  // Every stage boundary below funnels through this — an expired check
  // concludes kAbandoned with whatever stage statuses it honestly earned.
  const auto deadline_expired = [&] {
    if (opt_.deadline_ns == 0) return false;
    return cs.deadline_hit() || telemetry::monotonic_ns() >= opt_.deadline_ns;
  };
  if (opt_.use_learning) {
    prof::StageSpan stage("learning", stage_boundary);
    const LearningResult& lr = learning();  // lazily computed once
    stage.close("-");
    cs.set_implications(&lr.table);
  }
  prof::StageSpan narrowing("narrowing", stage_boundary);

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
  narrowing.close(to_string(rep.before_gitd), &rep.stage_perf.narrowing);
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
    prof::StageSpan stage("delay_correlation", stage_boundary);
    const auto stats = apply_delay_correlation(cs, *mutable_c);
    stage.close(stats.proved_no_violation ? "N" : "P",
                &rep.stage_perf.narrowing);
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
    prof::StageSpan stage("gitd", stage_boundary);
    auto& ctr_rounds = reg.counter("gitd.rounds");
    rep.after_gitd = StageStatus::kPossible;
    for (;;) {
      if (deadline_expired()) break;
      ctr_rounds.inc();
      const std::size_t narrowed =
          apply_dominator_implications(cs, rep.check, cache);
      flight::record(flight::Kind::kGitdRound, {},
                     static_cast<std::int64_t>(narrowed));
      if (narrowed == 0) break;
      if (cs.reach_fixpoint() == ConstraintSystem::Status::kNoViolation) {
        rep.after_gitd = StageStatus::kNoViolation;
        break;
      }
    }
    stage.close(to_string(rep.after_gitd), &rep.stage_perf.gitd);
    if (rep.after_gitd == StageStatus::kNoViolation) {
      rep.conclusion = CheckConclusion::kNoViolation;
      return rep;
    }
    if (deadline_expired()) {
      rep.conclusion = CheckConclusion::kAbandoned;
      return rep;
    }
  }

  // Stage 3: stem correlation, then the dominator loop re-run on the
  // correlated domains. Returns true when it proves the check N.
  const auto stem_correlation = [&] {
    prof::StageSpan stage("stem", stage_boundary);
    const auto stats = apply_stem_correlation(
        cs, rep.check, reconvergent_stems(), opt_.max_stems, cache);
    const bool closed =
        stats.proved_no_violation ||
        (opt_.use_dominators &&
         [&] {
           for (;;) {
             if (deadline_expired()) return false;
             if (apply_dominator_implications(cs, rep.check, cache) == 0)
               return false;
             if (cs.reach_fixpoint() ==
                 ConstraintSystem::Status::kNoViolation)
               return true;
           }
         }());
    stage.close(closed ? "N" : "P", &rep.stage_perf.stem);
    rep.after_stem =
        closed ? StageStatus::kNoViolation : StageStatus::kPossible;
    if (closed) rep.conclusion = CheckConclusion::kNoViolation;
    return closed;
  };

  if (!opt_.use_case_analysis) {
    if (opt_.use_stem_correlation && stem_correlation()) return rep;
    rep.conclusion = deadline_expired() ? CheckConclusion::kAbandoned
                                        : CheckConclusion::kPossible;
    return rep;
  }

  // Stage 4: case analysis, each pass in its own case_analysis span.
  const Scoap* sc = opt_.case_analysis.use_scoap ? &scoap() : nullptr;
  CaseAnalysisOptions ca_opt = opt_.case_analysis;
  ca_opt.deadline_ns = opt_.deadline_ns;
  const auto search = [&](const SearchPass& pass) {
    prof::StageSpan stage("case_analysis", stage_boundary);
    const auto outcome =
        run_case_analysis(cs, rep.check, sc, heads_, ca_opt, cache, pass);
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
      case CaseResult::kConflict:
        break;  // still possible: stems and the full search follow
    }
    stage.close(outcome.result == CaseResult::kConflict
                    ? "P"
                    : to_string(rep.conclusion),
                &rep.stage_perf.case_analysis);
    return outcome;
  };

  // Stem correlation runs lazily, at the first conflict of the search (a
  // deviation from Figure 4, which runs it before case analysis; see
  // DESIGN.md). A first pass that reaches a witness without a conflict
  // concludes V: stem correlation is sound, so it could not have closed
  // the check, and after_stem reads P. A first pass that conflicts leaves
  // the entry domains restored; stems run on them, and the full search
  // starts afresh from the correlated domains, which is the search the
  // paper order runs. A first pass stopped by the deadline or a cancel is
  // 'A' and runs no stems.
  SearchPass full;
  if (opt_.use_stem_correlation) {
    const auto first = search({.stop_at_first_conflict = true});
    if (first.result != CaseResult::kConflict) {
      if (first.result == CaseResult::kViolation) {
        rep.after_stem = StageStatus::kPossible;
      }
      return rep;
    }
    if (stem_correlation()) return rep;
    if (deadline_expired()) {
      rep.conclusion = CheckConclusion::kAbandoned;
      return rep;
    }
    full.earlier_decisions = first.decisions;
  }
  (void)search(full);
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
  const telemetry::StopWatch watch;
  const SuitePlan plan = plan_suite_checks(c_, delta);
  SuiteMerger merger(delta);
  for (std::size_t i = 0; i < plan.order.size(); ++i) {
    CheckReport rep = plan.trivial[i]
                          ? sta_trivial_report(plan.order[i], delta)
                          : check_output(plan.order[i], delta);
    if (!merger.add(std::move(rep))) break;
  }
  return std::move(merger).finish(watch.seconds());
}

Verifier::ExactDelayResult Verifier::exact_floating_delay() {
  return exact_floating_delay(
      [this](Time delta) { return check_circuit(delta); });
}

Verifier::ExactDelayResult Verifier::exact_floating_delay(
    const std::function<SuiteReport(Time)>& probe) {
  ExactDelayResult res;
  res.topological = topological_delay(c_);
  res.upper = res.topological;
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
      res.upper = Time::min(res.upper, Time(hi));
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
