#include "analysis/delay_correlation.hpp"

#include <unordered_map>
#include <vector>

#include "common/flight_recorder.hpp"
#include "common/telemetry.hpp"

namespace waveck {
namespace {

/// a - b with infinity propagation toward the pessimistic side of the
/// requested bound.
Time sub_low(Time a, Time b) {  // lower bound of {x - y : x >= a', y <= b'}
  if (a.is_neg_inf() || b.is_pos_inf()) return Time::neg_inf();
  if (a.is_pos_inf() || b.is_neg_inf()) return Time::pos_inf();
  return Time(a.value() - b.value());
}

struct Window {
  Time lo = Time::pos_inf();  // empty until first hull
  Time hi = Time::neg_inf();
  bool feasible = false;

  void hull(Time l, Time h) {
    lo = Time::min(lo, l);
    hi = Time::max(hi, h);
    feasible = true;
  }
};

/// Feasible window for gate g's delay variable from the current domains, or
/// !feasible when the gate relation admits no class pair at all.
Window delay_window(const ConstraintSystem& cs, const Gate& g) {
  Window w;
  const AbstractSignal& out = cs.domain(g.out);

  if (is_unary(g.type)) {
    const bool inv = inversion(g.type);
    const AbstractSignal& in = cs.domain(g.ins[0]);
    for (int v = 0; v <= 1; ++v) {
      const bool iv = v != 0;
      const LtInterval& wi = in.cls(iv);
      const LtInterval& wo = out.cls(iv != inv);
      if (wi.is_empty() || wo.is_empty()) continue;
      // lambda_out = lambda_in + D exactly.
      w.hull(sub_low(wo.lmin, wi.max), sub_low(wo.max, wi.lmin));
    }
    return w;
  }

  if (has_controlling_value(g.type)) {
    const bool c = controlling_value(g.type);
    const bool inv = inversion(g.type);
    const LtInterval& so = out.cls(c != inv);       // controlled result
    const LtInterval& snc = out.cls(!c != inv);     // all-non-controlling
    if (!so.is_empty()) {
      // A controlled combination may be the witness; its lambda_out <=
      // D + min(...) constrains D only from below by -inf: no narrowing.
      w.feasible = true;
      w.lo = Time::neg_inf();
      w.hi = Time::pos_inf();
      return w;
    }
    if (snc.is_empty()) return w;  // gate output fully refuted
    Time max_lmin = Time::neg_inf();
    Time max_max = Time::neg_inf();
    for (NetId in : g.ins) {
      // domain() returns by value (SoA store): copy, don't bind through cls().
      const LtInterval wi = cs.domain(in).cls(!c);
      if (wi.is_empty()) return w;  // no feasible combination at all
      max_lmin = Time::max(max_lmin, wi.lmin);
      max_max = Time::max(max_max, wi.max);
    }
    // lambda_out = D + max_i lambda_i exactly.
    w.hull(sub_low(snc.lmin, max_max), sub_low(snc.max, max_lmin));
    return w;
  }

  // XOR/MUX: cancellation makes the relation loose; no narrowing.
  w.feasible = true;
  w.lo = Time::neg_inf();
  w.hi = Time::pos_inf();
  return w;
}

}  // namespace

DelayCorrelationStats apply_delay_correlation(ConstraintSystem& cs,
                                              Circuit& c) {
  auto& reg = telemetry::Registry::current();
  auto& ctr_rounds = reg.counter("delay_corr.rounds");
  auto& ctr_gates = reg.counter("delay_corr.gates_narrowed");

  DelayCorrelationStats stats;
  if (cs.inconsistent()) {
    stats.proved_no_violation = true;
    return stats;
  }
  constexpr std::size_t kMaxRounds = 64;

  for (; stats.rounds < kMaxRounds; ++stats.rounds) {
    // Per-gate windows, then per-group intersections.
    std::vector<Window> windows(c.num_gates());
    std::unordered_map<std::int32_t, std::pair<Time, Time>> group_dom;
    bool infeasible_gate = false;
    NetId infeasible_net;

    for (GateId gid : c.topo_order()) {
      const Gate& g = c.gate(gid);
      Window w = delay_window(cs, g);
      if (!w.feasible) {
        // The gate relation admits no waveform at all: the check fails.
        infeasible_gate = true;
        infeasible_net = g.out;
        break;
      }
      // Clamp to the gate's current interval.
      w.lo = Time::max(w.lo, Time(g.delay.dmin));
      w.hi = Time::min(w.hi, Time(g.delay.dmax));
      windows[gid.index()] = w;
      if (g.delay.group >= 0) {
        auto& gd = group_dom
                       .try_emplace(g.delay.group,
                                    std::make_pair(Time::neg_inf(),
                                                   Time::pos_inf()))
                       .first->second;
        gd.first = Time::max(gd.first, w.lo);
        gd.second = Time::min(gd.second, w.hi);
      }
    }

    std::size_t changed = 0;
    if (!infeasible_gate) {
      for (GateId gid : c.topo_order()) {
        Gate& g = c.gate_mut(gid);
        Time lo = windows[gid.index()].lo;
        Time hi = windows[gid.index()].hi;
        if (g.delay.group >= 0) {
          const auto& gd = group_dom.at(g.delay.group);
          lo = Time::max(lo, gd.first);
          hi = Time::min(hi, gd.second);
        }
        if (lo > hi) {
          infeasible_gate = true;
          infeasible_net = g.out;
          break;
        }
        const std::int64_t nlo = lo.is_finite() ? lo.value() : g.delay.dmin;
        const std::int64_t nhi = hi.is_finite() ? hi.value() : g.delay.dmax;
        if (nlo != g.delay.dmin || nhi != g.delay.dmax) {
          g.delay.dmin = std::max(g.delay.dmin, nlo);
          g.delay.dmax = std::min(g.delay.dmax, nhi);
          ++changed;
          cs.schedule_gate(gid);
        }
      }
    }

    if (infeasible_gate) {
      cs.restrict_domain(infeasible_net, AbstractSignal::bottom());
      stats.proved_no_violation = true;
      return stats;
    }
    if (changed == 0) break;
    ctr_rounds.inc();
    stats.gates_narrowed += changed;
    ctr_gates.add(changed);
    flight::record(flight::Kind::kDelayCorrRound, {},
                   static_cast<std::int64_t>(stats.rounds),
                   static_cast<std::int64_t>(changed));
    if (cs.reach_fixpoint() == ConstraintSystem::Status::kNoViolation) {
      stats.proved_no_violation = true;
      return stats;
    }
  }
  return stats;
}

}  // namespace waveck
