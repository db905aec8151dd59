#include "verify/case_analysis.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "analysis/carrier_cache.hpp"
#include "analysis/head_lines.hpp"
#include "common/flight_recorder.hpp"
#include "common/telemetry.hpp"
#include "sim/floating_sim.hpp"

namespace waveck {
// The search's helpers have external linkage in a named namespace so that
// `--profile` (backtrace_symbols reads the dynamic symbol table only) names
// their frames.
namespace fan_search {

bool decided(const ConstraintSystem& cs, NetId n) {
  return cs.domain(n).single_class() || cs.domain(n).is_bottom();
}

/// Objective weights (n0, n1): delay of a path to s potentially enabled by
/// steering the net to 0 / 1.
struct Weights {
  Time n0 = Time::neg_inf();
  Time n1 = Time::neg_inf();

  void add(bool v, Time n, bool sum_mode) {
    Time& slot = v ? n1 : n0;
    if (sum_mode && slot != Time::neg_inf() && n != Time::neg_inf()) {
      slot = Time(slot.value() + n.value());
    } else {
      slot = Time::max(slot, n);
    }
  }
  [[nodiscard]] Time best() const { return Time::max(n0, n1); }
};

class FanGuide {
 public:
  FanGuide(const ConstraintSystem& cs, const TimingCheck& check,
           const Scoap* scoap, const HeadLines& heads,
           const CaseAnalysisOptions& opt, CarrierCache* cache)
      : c_(cs.circuit()),
        check_(check),
        scoap_(scoap),
        opt_(opt),
        cache_(cache),
        heads_(heads) {
    // Net processing level for the objective backtrace: topo index of the
    // driver (+1); PIs are 0. Fixed for the circuit, so computed once.
    net_level_.assign(c_.num_nets(), 0);
    {
      std::uint32_t idx = 1;
      for (GateId g : c_.topo_order()) {
        net_level_[c_.gate(g).out.index()] = idx;
        max_level_ = idx;
        ++idx;
      }
    }
    buckets_.resize(max_level_ + 1);
    queued_.assign(c_.num_nets(), 0);
    if (opt_.three_phase) build_phase1_regions(cs);
  }

  /// Next decision (net, class), or nullopt when only primary-input
  /// completion remains impossible (every net decided).
  [[nodiscard]] std::optional<std::pair<NetId, bool>> pick(
      const ConstraintSystem& cs) {
    CarrierSet local;
    const CarrierSet* carriers;
    if (cache_ != nullptr) {
      carriers = &cache_->carriers();
    } else {
      local = dynamic_carriers(cs, check_);
      carriers = &local;
    }
    const auto& cands = objective_candidates(cs, *carriers);

    // Phase 1: between consecutive dynamic dominators, in order.
    for (const auto& member : phase1_region_member_) {
      if (auto d = best_in(cs, cands, &member)) return d;
    }
    // Phase 2: whole carrier neighbourhood.
    if (auto d = best_in(cs, cands, nullptr)) return d;
    // Phase 3: the output, then primary inputs via complete backtrace from
    // unjustified gates.
    if (!decided(cs, check_.output)) {
      return std::make_pair(check_.output, preferred_class(cs, check_.output));
    }
    if (auto d = justify_pick(cs)) return d;
    for (NetId in : c_.inputs()) {
      if (!decided(cs, in)) {
        return std::make_pair(in, preferred_class(cs, in));
      }
    }
    return std::nullopt;
  }

 private:
  // --- phase-1 regions -------------------------------------------------------
  void build_phase1_regions(const ConstraintSystem& cs) {
    std::vector<NetId> doms;
    if (cache_ != nullptr) {
      doms = cache_->dominators();
    } else {
      const CarrierSet carriers = dynamic_carriers(cs, check_);
      doms = timing_dominators(c_, check_, carriers);
    }
    for (std::size_t i = 0; i < doms.size(); ++i) {
      const NetId stop =
          i + 1 < doms.size() ? doms[i + 1] : NetId{};  // invalid on last
      phase1_region_member_.push_back(cone_of(doms[i], stop));
    }
  }

  /// Fan-in cone of `root` (exclusive of `stop`) as a per-net membership
  /// flag vector -- the representation `best_in` filters against.
  [[nodiscard]] std::vector<std::uint8_t> cone_of(NetId root,
                                                  NetId stop) const {
    std::vector<std::uint8_t> member(c_.num_nets(), 0);
    std::vector<NetId> stack{root};
    member[root.index()] = 1;
    while (!stack.empty()) {
      const NetId n = stack.back();
      stack.pop_back();
      const GateId drv = c_.net(n).driver;
      if (!drv.valid()) continue;
      for (NetId in : c_.gate(drv).ins) {
        if (member[in.index()] != 0) continue;
        if (stop.valid() && in == stop) continue;  // exclude d_{i+1}
        member[in.index()] = 1;
        stack.push_back(in);
      }
    }
    return member;
  }

  // --- objective backtrace ----------------------------------------------------
  struct Candidate {
    NetId net;
    Weights w;
  };

  [[nodiscard]] const std::vector<Candidate>& objective_candidates(
      const ConstraintSystem& cs, const CarrierSet& carriers) {
    // NOTE: the map is deliberately function-local. Its iteration order
    // seeds the bucket insertion order below, which in turn fixes the
    // candidate order and hence tie-breaks between equal-weight decisions;
    // a reused map would keep its grown bucket count across picks and
    // enumerate in a different (still deterministic, but history-dependent)
    // order, changing search traces. A fresh map built by the identical
    // insertion sequence always enumerates identically.
    std::unordered_map<NetId, Weights> weights;
    // Initial objectives: sensitize Psi. For each gate driving a carrier,
    // steer its non-carrier inputs to the gate's non-controlling value; the
    // enabled path length is the carrier path through the gate.
    for (GateId gid : c_.topo_order()) {
      const Gate& g = c_.gate(gid);
      if (!carriers.is_carrier(g.out)) continue;
      const Time dist = carriers.distance[g.out.index()];
      const Time enabled = dist + g.delay.dmax;
      if (!has_controlling_value(g.type)) continue;
      const bool want = !controlling_value(g.type);
      for (NetId in : g.ins) {
        if (carriers.is_carrier(in) || decided(cs, in)) continue;
        weights[in].add(want, enabled, opt_.sum_at_fanout);
      }
    }
    cands_.clear();
    if (weights.empty()) return cands_;

    // Descending-level sweep: stems and primary inputs terminate the
    // backtrace and become candidates; other nets forward their objective
    // through their driving gate. Buckets and queued flags are reused
    // arenas: emits target strictly lower levels, so each bucket is fully
    // settled (and can be reset) once its level has been processed.
    auto enqueue = [&](NetId n) {
      if (queued_[n.index()] == 0) {
        queued_[n.index()] = 1;
        buckets_[net_level_[n.index()]].push_back(n);
      }
    };
    for (const auto& [n, w] : weights) enqueue(n);

    for (std::size_t lv = max_level_ + 1; lv-- > 0;) {
      std::vector<NetId>& bucket = buckets_[lv];
      for (std::size_t bi = 0; bi < bucket.size(); ++bi) {
        const NetId n = bucket[bi];
        const Weights w = weights[n];
        const bool is_stem = c_.net(n).fanouts.size() >= 2;
        const bool is_pi = !c_.net(n).driver.valid();
        // FAN stops multiple backtrace at stems, head lines and inputs: a
        // value wanted on a head line is always justifiable later (its
        // cone is fanout-free).
        if (!decided(cs, n) && (is_stem || is_pi || heads_.is_head(n))) {
          cands_.push_back({n, w});
          continue;
        }
        if (is_pi) continue;
        backtrace_through(cs, n, w, [&](NetId in, bool want, Time nw) {
          weights[in].add(want, nw, opt_.sum_at_fanout);
          enqueue(in);
        });
      }
      for (NetId n : bucket) queued_[n.index()] = 0;
      bucket.clear();
    }
    return cands_;
  }

  template <class Emit>
  void backtrace_through(const ConstraintSystem& cs, NetId n, const Weights& w,
                         Emit emit) const {
    const Gate& g = c_.gate(c_.net(n).driver);
    const Time up0 = w.n0 == Time::neg_inf() ? w.n0 : w.n0 + g.delay.dmax;
    const Time up1 = w.n1 == Time::neg_inf() ? w.n1 : w.n1 + g.delay.dmax;
    auto forward = [&](NetId in, bool want, bool from1) {
      const Time nw = from1 ? up1 : up0;
      if (nw == Time::neg_inf()) return;
      if (decided(cs, in)) return;
      emit(in, want, nw);
    };
    switch (g.type) {
      case GateType::kAnd:
      case GateType::kNand:
      case GateType::kOr:
      case GateType::kNor: {
        const bool cv = controlling_value(g.type);
        const bool inv = inversion(g.type);
        const bool ctrl_out = cv != inv;  // output value when controlled
        // Wanting the controlled value: one input to cv (cheapest);
        // wanting the non-controlled value: every input to !cv.
        for (int ov = 0; ov <= 1; ++ov) {
          const bool out_v = ov != 0;
          const Time nw = out_v ? up1 : up0;
          if (nw == Time::neg_inf()) continue;
          if (out_v == ctrl_out) {
            if (const auto in = cheapest_input(cs, g, cv)) {
              if (!decided(cs, *in)) emit(*in, cv, nw);
            }
          } else {
            for (NetId in : g.ins) {
              if (!decided(cs, in)) emit(in, !cv, nw);
            }
          }
        }
        break;
      }
      case GateType::kNot:
        forward(g.ins[0], true, false);   // out 0 <- in 1
        forward(g.ins[0], false, true);   // out 1 <- in 0
        break;
      case GateType::kBuf:
      case GateType::kDelay:
        forward(g.ins[0], false, false);
        forward(g.ins[0], true, true);
        break;
      case GateType::kXor:
      case GateType::kXnor:
        // Either value of either input can participate in the wanted
        // parity; spread the strongest objective to both classes.
        for (NetId in : g.ins) {
          const Time nw = Time::max(up0, up1);
          if (nw == Time::neg_inf()) break;
          if (decided(cs, in)) continue;
          emit(in, false, nw);
          emit(in, true, nw);
        }
        break;
      case GateType::kMux:
        for (int sv = 0; sv <= 1; ++sv) {
          forward(g.ins[0], sv != 0, sv != 0);
        }
        for (std::size_t di = 1; di <= 2; ++di) {
          forward(g.ins[di], false, false);
          forward(g.ins[di], true, true);
        }
        break;
    }
  }

  [[nodiscard]] std::optional<NetId> cheapest_input(const ConstraintSystem& cs,
                                                    const Gate& g,
                                                    bool want) const {
    std::optional<NetId> best;
    std::uint64_t best_cost = UINT64_MAX;
    for (NetId in : g.ins) {
      if (decided(cs, in)) continue;
      const std::uint64_t cost =
          scoap_ != nullptr && opt_.use_scoap ? scoap_->cc(want, in) : 1;
      if (cost < best_cost) {
        best_cost = cost;
        best = in;
      }
    }
    return best;
  }

  [[nodiscard]] std::optional<std::pair<NetId, bool>> best_in(
      const ConstraintSystem& cs, const std::vector<Candidate>& cands,
      const std::vector<std::uint8_t>* region) const {
    const Candidate* best = nullptr;
    for (const auto& cand : cands) {
      if (decided(cs, cand.net)) continue;
      if (region != nullptr && (*region)[cand.net.index()] == 0) continue;
      if (best == nullptr || cand.w.best() > best->w.best()) best = &cand;
    }
    if (best == nullptr) return std::nullopt;
    bool cls = best->w.n1 > best->w.n0;
    if (best->w.n1 == best->w.n0 && scoap_ != nullptr && opt_.use_scoap) {
      cls = scoap_->cc(true, best->net) <= scoap_->cc(false, best->net);
    }
    return std::make_pair(best->net, cls);
  }

  /// Heuristic class for direct decisions: the class whose waveforms can
  /// transition latest (most likely to carry the violation).
  [[nodiscard]] bool preferred_class(const ConstraintSystem& cs,
                                     NetId n) const {
    const AbstractSignal& d = cs.domain(n);
    if (d.cls(true).is_empty()) return false;
    if (d.cls(false).is_empty()) return true;
    if (d.cls(true).max != d.cls(false).max) {
      return d.cls(true).max > d.cls(false).max;
    }
    if (scoap_ != nullptr && opt_.use_scoap) {
      return scoap_->cc(true, n) <= scoap_->cc(false, n);
    }
    return true;
  }

  // --- phase 3: justification -------------------------------------------------
  [[nodiscard]] bool is_justified(const ConstraintSystem& cs,
                                  const Gate& g) const {
    const AbstractSignal& od = cs.domain(g.out);
    if (!od.single_class()) return true;  // nothing to justify yet
    const bool v = od.the_class();
    switch (g.type) {
      case GateType::kAnd:
      case GateType::kNand:
      case GateType::kOr:
      case GateType::kNor: {
        const bool cv = controlling_value(g.type);
        const bool ctrl_out = cv != inversion(g.type);
        bool all_nc = true;
        for (NetId in : g.ins) {
          const AbstractSignal& d = cs.domain(in);
          if (d.single_class() && d.the_class() == cv) {
            return true;  // forced (to ctrl_out; mismatches die in propagation)
          }
          if (!(d.single_class() && d.the_class() == !cv)) all_nc = false;
        }
        return v != ctrl_out && all_nc;
      }
      case GateType::kXor:
      case GateType::kXnor:
      case GateType::kNot:
      case GateType::kBuf:
      case GateType::kDelay:
        for (NetId in : g.ins) {
          if (!cs.domain(in).single_class()) return false;
        }
        return true;
      case GateType::kMux: {
        const AbstractSignal& sd = cs.domain(g.ins[0]);
        const AbstractSignal& d0 = cs.domain(g.ins[1]);
        const AbstractSignal& d1 = cs.domain(g.ins[2]);
        if (sd.single_class()) {
          return cs.domain(g.ins[sd.the_class() ? 2 : 1]).single_class();
        }
        return d0.single_class() && d1.single_class() &&
               d0.the_class() == d1.the_class();
      }
    }
    return true;
  }

  [[nodiscard]] std::optional<std::pair<NetId, bool>> justify_pick(
      const ConstraintSystem& cs) const {
    for (GateId gid : c_.topo_order()) {
      const Gate& g = c_.gate(gid);
      if (is_justified(cs, g)) continue;
      // Complete backtrace: walk upstream until a primary input.
      NetId net = g.out;
      bool want = cs.domain(g.out).the_class();
      for (std::size_t guard = 0; guard <= c_.num_nets(); ++guard) {
        const GateId drv = c_.net(net).driver;
        if (!drv.valid()) return std::make_pair(net, want);
        const auto next = justify_step(cs, c_.gate(drv), want);
        if (!next) break;  // all inputs decided; propagation will settle it
        net = next->first;
        want = next->second;
      }
    }
    return std::nullopt;
  }

  [[nodiscard]] std::optional<std::pair<NetId, bool>> justify_step(
      const ConstraintSystem& cs, const Gate& g, bool v) const {
    switch (g.type) {
      case GateType::kAnd:
      case GateType::kNand:
      case GateType::kOr:
      case GateType::kNor: {
        const bool cv = controlling_value(g.type);
        const bool ctrl_out = cv != inversion(g.type);
        const bool want = v == ctrl_out ? cv : !cv;
        if (const auto in = cheapest_input(cs, g, want)) {
          return std::make_pair(*in, want);
        }
        return std::nullopt;
      }
      case GateType::kNot:
        if (!decided(cs, g.ins[0])) return std::make_pair(g.ins[0], !v);
        return std::nullopt;
      case GateType::kBuf:
      case GateType::kDelay:
        if (!decided(cs, g.ins[0])) return std::make_pair(g.ins[0], v);
        return std::nullopt;
      case GateType::kXor:
      case GateType::kXnor: {
        const bool parity = v != inversion(g.type);  // required xor of inputs
        bool known = false;
        NetId open;
        bool acc = false;
        for (NetId in : g.ins) {
          const AbstractSignal& d = cs.domain(in);
          if (d.single_class()) {
            acc = acc != d.the_class();
          } else if (!known) {
            open = in;
            known = true;
          }  // further open inputs: value free; steer the first one
        }
        if (!known) return std::nullopt;
        return std::make_pair(open, parity != acc);
      }
      case GateType::kMux: {
        const AbstractSignal& sd = cs.domain(g.ins[0]);
        if (sd.single_class()) {
          const NetId data = g.ins[sd.the_class() ? 2 : 1];
          if (!decided(cs, data)) return std::make_pair(data, v);
          return std::nullopt;
        }
        return std::make_pair(g.ins[0], false);
      }
    }
    return std::nullopt;
  }

  const Circuit& c_;
  TimingCheck check_;
  const Scoap* scoap_;
  CaseAnalysisOptions opt_;
  CarrierCache* cache_;
  const HeadLines& heads_;
  std::vector<std::vector<std::uint8_t>> phase1_region_member_;

  // Reused backtrace arenas (pick runs once per search decision).
  std::vector<std::uint32_t> net_level_;
  std::uint32_t max_level_ = 0;
  std::vector<std::vector<NetId>> buckets_;
  std::vector<std::uint8_t> queued_;
  std::vector<Candidate> cands_;
};

/// Fixpoint plus the dominator-implication loop of Figure 4. Returns false
/// on inconsistency.
bool propagate(ConstraintSystem& cs, const TimingCheck& check,
               bool dominators, CarrierCache* cache) {
  for (;;) {
    if (cs.reach_fixpoint() == ConstraintSystem::Status::kNoViolation) {
      return false;
    }
    if (!dominators) return true;
    if (apply_dominator_implications(cs, check, cache) == 0) return true;
  }
}

bool all_inputs_decided(const ConstraintSystem& cs) {
  for (NetId in : cs.circuit().inputs()) {
    if (!cs.domain(in).single_class()) return false;
  }
  return true;
}

std::vector<bool> extract_vector(const ConstraintSystem& cs) {
  std::vector<bool> v;
  v.reserve(cs.circuit().inputs().size());
  for (NetId in : cs.circuit().inputs()) {
    v.push_back(cs.domain(in).the_class());
  }
  return v;
}

}  // namespace fan_search

CaseAnalysisOutcome run_case_analysis(ConstraintSystem& cs,
                                      const TimingCheck& check,
                                      const Scoap* scoap,
                                      const HeadLines& heads,
                                      const CaseAnalysisOptions& opt,
                                      CarrierCache* cache,
                                      const SearchPass& pass) {
  using namespace fan_search;
  auto& reg = telemetry::Registry::current();
  auto& ctr_decisions = reg.counter("search.decisions");
  auto& ctr_backtracks = reg.counter("search.backtracks");
  auto& ctr_conflicts = reg.counter("search.conflicts");
  auto& ctr_spurious = reg.counter("search.spurious_vectors");
  auto& h_conflict_depth = reg.histogram("search.conflict_depth");
  auto& g_depth = reg.gauge("search.depth");

  // This thread's slot: the open decision id every nested event carries,
  // and the depth the heartbeat shows.
  flight::Slot& slot = flight::self();

  // Every decision level is marked in the cache too, so that a pop hands
  // back its carriers and dominators instead of recomputing them.
  const auto push = [&] {
    const ConstraintSystem::Mark m = cs.push_state();
    if (cache != nullptr) cache->push_level(m);
    return m;
  };
  const auto pop = [&](ConstraintSystem::Mark m) {
    cs.pop_to(m);
    if (cache != nullptr) cache->pop_level(m);
  };

  CaseAnalysisOutcome out;
  const auto entry = push();
  FanGuide guide(cs, check, scoap, heads, opt, cache);

  struct Decision {
    NetId net;
    bool cls;
    ConstraintSystem::Mark mark;
    bool flipped;
    std::int64_t id;  // decision span id, 1-based per check
  };
  std::vector<Decision> stack;
  auto next_decision_id = static_cast<std::int64_t>(pass.earlier_decisions);

  // Decision spans: each decision opens a subtree in the trace (every
  // nested event is stamped with the slot's `dec`) and is closed by
  // exactly one `decision_close` — "exhausted" when both classes failed,
  // "witness"/"abandoned"/"restart" for decisions still open when the
  // search stops.
  // The offline analyzer relies on this bracketing being exact, in the
  // trace and in blackbox dumps alike.
  const auto close_open_decisions = [&stack, &slot](flight::Word outcome) {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      slot.dec.store(it->id, std::memory_order_relaxed);
      flight::record(flight::Kind::kDecisionClose, {}, 0, 0, outcome);
    }
    slot.dec.store(-1, std::memory_order_relaxed);
  };

  bool consistent = propagate(cs, check, opt.dominators_in_search, cache);

  // One decision boundary's worth of stop conditions: external cancel, the
  // per-check deadline (also latched by the fixpoint drain via
  // cs.deadline_hit()), both concluding kAbandoned like budget exhaustion.
  const auto stop_requested = [&] {
    if (opt.cancel != nullptr && opt.cancel->load(std::memory_order_relaxed)) {
      return true;
    }
    if (cs.deadline_hit()) return true;
    return opt.deadline_ns != 0 && telemetry::monotonic_ns() >= opt.deadline_ns;
  };

  for (;;) {
    if (stop_requested()) {
      pop(entry);
      close_open_decisions(flight::kAbandoned);
      out.result = CaseResult::kAbandoned;
      return out;
    }
    if (consistent && all_inputs_decided(cs)) {
      // Candidate test vector; cross-validate with the independent
      // floating-mode simulator (exact per-vector settle time).
      auto vec = extract_vector(cs);
      const auto sim = simulate_floating(cs.circuit(), vec);
      if (sim.settle[check.output.index()] >= check.delta) {
        close_open_decisions(flight::kWitness);
        out.result = CaseResult::kViolation;
        out.vector = std::move(vec);
        return out;
      }
      consistent = false;  // spurious: treat as a conflict and backtrack
      ctr_spurious.inc();
      flight::record(flight::Kind::kSpurious, {}, 0,
                     static_cast<std::int64_t>(stack.size()));
    }

    if (!consistent) {
      ctr_conflicts.inc();
      h_conflict_depth.observe(stack.size());
      flight::record(flight::Kind::kConflict, {}, 0,
                     static_cast<std::int64_t>(stack.size()));
      if (pass.stop_at_first_conflict) {
        pop(entry);
        close_open_decisions(flight::kRestart);
        out.result = CaseResult::kConflict;
        return out;
      }
      // Backtrack to the deepest unflipped decision and try its other class.
      bool resumed = false;
      while (!stack.empty()) {
        Decision& d = stack.back();
        if (d.flipped) {
          pop(d.mark);
          slot.dec.store(d.id, std::memory_order_relaxed);
          flight::record(flight::Kind::kDecisionClose, {}, 0, 0,
                         flight::kExhausted);
          stack.pop_back();
          slot.dec.store(stack.empty() ? -1 : stack.back().id,
                         std::memory_order_relaxed);
          continue;
        }
        pop(d.mark);
        d.cls = !d.cls;
        d.flipped = true;
        ++out.backtracks;
        ctr_backtracks.inc();
        g_depth.set(static_cast<std::int64_t>(stack.size()));
        slot.depth.store(static_cast<std::int64_t>(stack.size()),
                         std::memory_order_relaxed);
        slot.dec.store(d.id, std::memory_order_relaxed);
        flight::record(flight::Kind::kBacktrack, cs.circuit().net(d.net).name,
                       0, static_cast<std::int64_t>(stack.size()),
                       d.cls ? 1 : 0);
        if (out.backtracks > opt.max_backtracks) {
          pop(entry);
          close_open_decisions(flight::kAbandoned);
          out.result = CaseResult::kAbandoned;
          return out;
        }
        cs.restrict_domain(d.net, AbstractSignal::class_only(d.cls));
        consistent = propagate(cs, check, opt.dominators_in_search, cache);
        if (consistent) {
          resumed = true;
          break;
        }
        ctr_conflicts.inc();
        h_conflict_depth.observe(stack.size());
        flight::record(flight::Kind::kConflict, {}, 0,
                       static_cast<std::int64_t>(stack.size()));
      }
      if (resumed) continue;
      if (stack.empty()) {
        pop(entry);
        out.result = CaseResult::kNoViolation;
        return out;
      }
      continue;
    }

    // Consistent, inputs not fully decided: take the next decision.
    const auto pick = guide.pick(cs);
    if (!pick) {
      // Every net is class-decided except inconsistent leftovers; force the
      // remaining inputs (should not happen: all_inputs_decided was false).
      consistent = false;
      continue;
    }
    const Decision d{pick->first, pick->second, push(), false,
                     ++next_decision_id};
    stack.push_back(d);
    ++out.decisions;
    ctr_decisions.inc();
    g_depth.set(static_cast<std::int64_t>(stack.size()));
    slot.depth.store(static_cast<std::int64_t>(stack.size()),
                     std::memory_order_relaxed);
    // The decision's own id rides in the stamped "dec"; `parent` links it
    // into the tree (-1 = child of the search root).
    const std::int64_t parent =
        stack.size() > 1 ? stack[stack.size() - 2].id : -1;
    slot.dec.store(d.id, std::memory_order_relaxed);
    flight::record(flight::Kind::kDecision, cs.circuit().net(d.net).name,
                   parent, static_cast<std::int64_t>(stack.size()),
                   d.cls ? 1 : 0);
    cs.restrict_domain(d.net, AbstractSignal::class_only(d.cls));
    consistent = propagate(cs, check, opt.dominators_in_search, cache);
  }
}

}  // namespace waveck
