#include "analysis/carriers.hpp"

#include <algorithm>
#include <cassert>

#include "netlist/topo_delay.hpp"

namespace waveck {
namespace {

/// delta - k for finite operands.
Time minus(Time delta, Time k) {
  assert(delta.is_finite() && k.is_finite());
  return Time(delta.value() - k.value());
}

}  // namespace

CarrierSet static_carriers(const Circuit& c, const TimingCheck& check) {
  CarrierSet set;
  set.distance.assign(c.num_nets(), Time::neg_inf());
  const auto top = topo_arrival(c);
  const auto to_s = topo_to_target(c, check.output);
  for (std::size_t i = 0; i < c.num_nets(); ++i) {
    const Time d = to_s[i];
    if (d == Time::neg_inf()) continue;
    // Longest path through net i ending at s.
    const Time through = top[i] + d.value();
    if (through >= check.delta) set.distance[i] = d;
  }
  return set;
}

CarrierSet dynamic_carriers(const ConstraintSystem& cs,
                            const TimingCheck& check) {
  const Circuit& c = cs.circuit();
  CarrierSet set;
  set.distance.assign(c.num_nets(), Time::neg_inf());
  // An inconsistent system has no sigma-compatible waveform anywhere.
  if (cs.inconsistent()) return set;
  std::vector<Time> cand(c.num_nets(), Time::neg_inf());
  cand[check.output.index()] = Time(0);

  auto finalize = [&](NetId n) {
    const Time k = cand[n.index()];
    if (k == Time::neg_inf()) return;
    if (cs.domain(n).has_transition_at_or_after(minus(check.delta, k))) {
      set.distance[n.index()] = k;
    }
  };

  const auto& order = c.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Gate& g = c.gate(*it);
    // All consumers of g.out were processed already: its candidate distance
    // is final; validate the Def. 7 domain condition.
    finalize(g.out);
    const Time k = set.distance[g.out.index()];
    if (k == Time::neg_inf()) continue;
    const Time kp = k + g.delay.dmax;
    for (NetId in : g.ins) {
      cand[in.index()] = Time::max(cand[in.index()], kp);
    }
  }
  for (NetId in : c.inputs()) finalize(in);
  // Degenerate case: the checked output is itself a primary input.
  if (!c.net(check.output).driver.valid()) finalize(check.output);
  return set;
}

std::vector<NetId> timing_dominators(const Circuit& c,
                                     const TimingCheck& check,
                                     const CarrierSet& carriers) {
  DominatorScratch scratch;
  bool t_reachable = false;
  return timing_dominators(c, check, carriers, scratch, t_reachable);
}

std::vector<NetId> timing_dominators(const Circuit& c,
                                     const TimingCheck& check,
                                     const CarrierSet& carriers,
                                     DominatorScratch& scratch,
                                     bool& t_reachable) {
  const NetId s = check.output;
  t_reachable = false;
  if (!carriers.is_carrier(s)) return {};

  // Vertices of Psi': carrier nets in reverse-circuit-topological order
  // (s first, upstream later), then the virtual sink T. This is a
  // topological order of Psi' because its edges run downstream-net ->
  // upstream-net.
  std::vector<NetId>& verts = scratch.verts;
  verts.clear();
  for (GateId g : c.topo_order()) {
    const NetId out = c.gate(g).out;
    if (carriers.is_carrier(out)) verts.push_back(out);
  }
  std::reverse(verts.begin(), verts.end());
  for (NetId in : c.inputs()) {
    if (carriers.is_carrier(in) && in != s) verts.push_back(in);
  }
  // `s` must be the source (index 0); it is first among driven nets, but if
  // s is itself a primary input (a circuit can declare an input as an
  // output, and the fuzz shrinker produces such netlists) it was excluded
  // from both collection loops above and has to be inserted here.
  if (verts.empty() || verts.front() != s) {
    const auto it = std::find(verts.begin(), verts.end(), s);
    if (it == verts.end()) {
      verts.insert(verts.begin(), s);
    } else {
      std::rotate(verts.begin(), it, it + 1);
    }
  }

  std::vector<NetId> doms;
  t_reachable = dominator_chain(c, verts, /*to_t=*/true, scratch, doms);
  // No complete carrier path: no extra implication beyond s itself.
  if (!t_reachable) doms.push_back(s);
  return doms;
}

bool dominator_chain(const Circuit& c, const std::vector<NetId>& verts,
                     bool to_t, DominatorScratch& scratch,
                     std::vector<NetId>& chain) {
  const std::size_t n_verts = verts.size() + (to_t ? 1 : 0);
  assert(n_verts >= 2);
  const std::size_t sink = n_verts - 1;
  std::vector<std::size_t>& vert_index = scratch.vert_index;
  if (vert_index.size() != c.num_nets()) {
    vert_index.assign(c.num_nets(), SIZE_MAX);
  }
  for (std::size_t i = 0; i < verts.size(); ++i) {
    vert_index[verts[i].index()] = i;
  }

  // Predecessor lists: edge y -> x for every region input x of y's driving
  // gate; edge y -> T when y is undriven (a primary input). The inner
  // vectors keep their capacity across calls via the scratch.
  std::vector<std::vector<std::size_t>>& preds = scratch.preds;
  if (preds.size() < n_verts) preds.resize(n_verts);
  for (std::size_t i = 0; i < n_verts; ++i) preds[i].clear();
  for (std::size_t yi = 0; yi < verts.size(); ++yi) {
    const GateId drv = c.net(verts[yi]).driver;
    if (!drv.valid()) {
      if (to_t) preds[sink].push_back(yi);
      continue;
    }
    for (NetId x : c.gate(drv).ins) {
      const std::size_t xi = vert_index[x.index()];
      if (xi != SIZE_MAX) preds[xi].push_back(yi);
    }
  }
  for (NetId v : verts) vert_index[v.index()] = SIZE_MAX;

  // Cooper-Harvey-Kennedy iterative idom; a single pass suffices on a DAG
  // processed in topological order.
  constexpr std::size_t kUndef = SIZE_MAX;
  std::vector<std::size_t>& idom = scratch.idom;
  idom.assign(n_verts, kUndef);
  idom[0] = 0;  // the source
  auto intersect = [&](std::size_t a, std::size_t b) {
    while (a != b) {
      while (a > b) a = idom[a];
      while (b > a) b = idom[b];
    }
    return a;
  };
  for (std::size_t v = 1; v < n_verts; ++v) {
    std::size_t best = kUndef;
    for (std::size_t p : preds[v]) {
      if (idom[p] == kUndef) continue;  // unreachable from the source
      best = best == kUndef ? p : intersect(best, p);
    }
    idom[v] = best;
  }

  if (idom[sink] == kUndef) return false;
  const std::size_t first = chain.size();
  for (std::size_t v = idom[sink];; v = idom[v]) {
    chain.push_back(verts[v]);
    if (v == 0) break;
  }
  std::reverse(chain.begin() + static_cast<std::ptrdiff_t>(first),
               chain.end());  // source first, outward
  return true;
}

std::size_t apply_dominator_restrictions(ConstraintSystem& cs,
                                         const TimingCheck& check,
                                         const CarrierSet& carriers,
                                         const std::vector<NetId>& doms) {
  std::size_t changed = 0;
  for (NetId d : doms) {
    const Time k = carriers.distance[d.index()];
    if (k == Time::neg_inf()) continue;
    const Time bound = Time(check.delta.value() - k.value());
    if (cs.restrict_domain(d, AbstractSignal::violating(bound))) ++changed;
  }
  return changed;
}

namespace {

std::size_t apply_implications(ConstraintSystem& cs, const TimingCheck& check,
                               const CarrierSet& carriers) {
  const auto doms = timing_dominators(cs.circuit(), check, carriers);
  return apply_dominator_restrictions(cs, check, carriers, doms);
}

}  // namespace

std::size_t apply_dominator_implications(ConstraintSystem& cs,
                                         const TimingCheck& check) {
  if (cs.inconsistent()) return 0;
  return apply_implications(cs, check, dynamic_carriers(cs, check));
}

std::size_t apply_static_dominator_implications(ConstraintSystem& cs,
                                                const TimingCheck& check) {
  if (cs.inconsistent()) return 0;
  return apply_implications(cs, check, static_carriers(cs.circuit(), check));
}

}  // namespace waveck
