#include "constraints/projection.hpp"

#include <cassert>

namespace waveck {
namespace {

/// Narrows `dst` to `dst ∩ with`; records the change.
bool narrow_to(LtInterval& dst, const LtInterval& with) {
  const LtInterval nd = dst.intersect(with);
  if (nd == dst.normalized()) {
    if (!(nd == dst)) dst = nd;  // canonicalise empties silently
    return false;
  }
  dst = nd;
  return true;
}

/// Backward rule for one member of a "joint settle" pair/group
/// (all-non-controlling combination, and the XOR/MUX analogues):
/// lambda_out ∈ [max_lambda + dmin, max_lambda + dmax] over the group, so a
/// member satisfies lambda <= out.max - dmin, and lambda >= out.lmin - dmax
/// unless some sibling can itself land in the output window
/// [out.lmin - dmax, out.max - dmin].
struct JointWindow {
  LtInterval window;  // feasible "group max" values
  bool sibling_covers = false;

  JointWindow(const LtInterval& out, DelaySpec d)
      : window(out.shift_backward(d.dmin, d.dmax)) {}

  void add_sibling(const LtInterval& sib) {
    if (sib.intersects(window)) sibling_covers = true;
  }

  [[nodiscard]] LtInterval member_support() const {
    if (window.is_empty()) return LtInterval::empty();
    const Time lo = sibling_covers ? Time::neg_inf() : window.lmin;
    return {lo, window.max};
  }
};

ProjectionDelta project_unary(GateType type, DelaySpec d, AbstractSignal& out,
                              AbstractSignal& in) {
  ProjectionDelta delta;
  const bool inv = inversion(type);
  for (int v = 0; v <= 1; ++v) {
    const bool iv = v != 0;
    const bool ov = iv != inv;
    delta.out_changed |=
        narrow_to(out.cls(ov), in.cls(iv).shift_forward(d.dmin, d.dmax));
    if (narrow_to(in.cls(iv), out.cls(ov).shift_backward(d.dmin, d.dmax))) {
      delta.mark_in(0);
    }
  }
  return delta;
}

ProjectionDelta project_controlling(GateType type, DelaySpec d,
                                    AbstractSignal& out,
                                    std::span<AbstractSignal> ins) {
  ProjectionDelta delta;
  const bool c = controlling_value(type);
  const bool inv = inversion(type);
  const bool nc = !c;
  const bool out_nc = nc != inv;  // output class when all inputs settle at nc
  const bool out_c = c != inv;    // output class when some input controls
  const std::size_t n = ins.size();

  // ---- forward: non-controlled result -----------------------------------
  {
    LtInterval fwd = LtInterval::empty();
    bool all_nc_possible = true;
    Time lmin = Time::neg_inf();
    Time max = Time::neg_inf();
    for (const auto& in : ins) {
      const LtInterval& w = in.cls(nc);
      if (w.is_empty()) {
        all_nc_possible = false;
        break;
      }
      lmin = Time::max(lmin, w.lmin);
      max = Time::max(max, w.max);
    }
    if (all_nc_possible) fwd = LtInterval{lmin + d.dmin, max + d.dmax};
    delta.out_changed |= narrow_to(out.cls(out_nc), fwd);
  }

  // ---- forward: controlled result ----------------------------------------
  {
    LtInterval fwd = LtInterval::empty();
    bool gate_dead = false;   // some input has a bottom domain
    bool some_forced = false; // some input can only be controlling
    Time forced_cap = Time::pos_inf();
    Time free_cap = Time::neg_inf();
    bool any_ctrl = false;
    for (const auto& in : ins) {
      const LtInterval& wc = in.cls(c);
      const LtInterval& wnc = in.cls(nc);
      if (wc.is_empty() && wnc.is_empty()) {
        gate_dead = true;
        break;
      }
      if (wnc.is_empty()) {  // forced controlling
        some_forced = true;
        forced_cap = Time::min(forced_cap, wc.max);
      }
      if (!wc.is_empty()) {
        any_ctrl = true;
        free_cap = Time::max(free_cap, wc.max);
      }
    }
    if (!gate_dead && any_ctrl) {
      const Time cap = some_forced ? forced_cap : free_cap;
      fwd = LtInterval{Time::neg_inf(), cap + d.dmax};
    }
    delta.out_changed |= narrow_to(out.cls(out_c), fwd);
  }

  // ---- backward, per input ------------------------------------------------
  const LtInterval& so = out.cls(out_c);
  const LtInterval& snc = out.cls(out_nc);
  const Time ctrl_need = so.is_empty() ? Time::pos_inf() : so.lmin - d.dmax;

  for (std::size_t i = 0; i < n; ++i) {
    // Controlling class: only the controlled output class supports it, and
    // the input's last transition must not block the output's required one.
    {
      LtInterval support = LtInterval::empty();
      if (!so.is_empty()) {
        support = LtInterval{ctrl_need, Time::pos_inf()};
      }
      if (narrow_to(ins[i].cls(c), support)) delta.mark_in(i);
    }
    // Non-controlling class: (a) the all-non-controlling combination;
    // (b) a combination where some other input controls the output.
    {
      LtInterval support = LtInterval::empty();
      if (!snc.is_empty()) {
        bool others_nc = true;
        JointWindow jw(snc, d);
        for (std::size_t j = 0; j < n && others_nc; ++j) {
          if (j == i) continue;
          const LtInterval& w = ins[j].cls(nc);
          if (w.is_empty()) {
            others_nc = false;
          } else {
            jw.add_sibling(w);
          }
        }
        if (others_nc) support = support.hull(jw.member_support());
      }
      if (!so.is_empty()) {
        bool exists_ctrl_partner = false;
        bool forced_ok = true;
        for (std::size_t j = 0; j < n; ++j) {
          if (j == i) continue;
          const LtInterval& wc = ins[j].cls(c);
          const LtInterval& wnc = ins[j].cls(nc);
          if (!wc.is_empty() && wc.max >= ctrl_need) exists_ctrl_partner = true;
          if (wnc.is_empty() && (wc.is_empty() || wc.max < ctrl_need)) {
            forced_ok = false;  // a forced-controlling sibling blocks S_c
          }
        }
        if (exists_ctrl_partner && forced_ok) support = LtInterval::top();
      }
      if (narrow_to(ins[i].cls(nc), support)) delta.mark_in(i);
    }
  }
  return delta;
}

ProjectionDelta project_xor(GateType type, DelaySpec d, AbstractSignal& out,
                            std::span<AbstractSignal> ins) {
  assert(ins.size() == 2 && "wide XOR must be decomposed for the solver");
  ProjectionDelta delta;
  const bool inv = inversion(type);  // XNOR inverts
  AbstractSignal& a = ins[0];
  AbstractSignal& b = ins[1];

  // ---- forward ------------------------------------------------------------
  for (int g = 0; g <= 1; ++g) {
    const bool gamma = g != 0;
    LtInterval fwd = LtInterval::empty();
    for (int al = 0; al <= 1; ++al) {
      const bool alpha = al != 0;
      const bool beta = (alpha != gamma) != inv;  // alpha ^ beta ^ inv = gamma
      const LtInterval& wa = a.cls(alpha);
      const LtInterval& wb = b.cls(beta);
      if (wa.is_empty() || wb.is_empty()) continue;
      const Time hi = Time::max(wa.max, wb.max) + d.dmax;
      // Opposite simultaneous transitions cancel; when the operand intervals
      // cannot contain a common instant the output transition is exact.
      const Time lo = wa.intersects(wb)
                          ? Time::neg_inf()
                          : Time::max(wa.lmin, wb.lmin) + d.dmin;
      fwd = fwd.hull(LtInterval{lo, hi});
    }
    delta.out_changed |= narrow_to(out.cls(gamma), fwd);
  }

  // ---- backward -------------------------------------------------------------
  for (int side = 0; side <= 1; ++side) {
    AbstractSignal& self = side == 0 ? a : b;
    AbstractSignal& sib = side == 0 ? b : a;
    for (int al = 0; al <= 1; ++al) {
      const bool alpha = al != 0;
      LtInterval support = LtInterval::empty();
      for (int be = 0; be <= 1; ++be) {
        const bool beta = be != 0;
        const bool gamma = (alpha != beta) != inv;
        const LtInterval& wb = sib.cls(beta);
        const LtInterval& so = out.cls(gamma);
        if (wb.is_empty() || so.is_empty()) continue;
        const Time need = so.lmin - d.dmax;  // group max must reach this
        const bool sib_covers = wb.max >= need;
        // Upper: out.max - dmin via own transition; additionally, the
        // sibling can cancel a transition at any instant both can reach.
        Time hi = so.max - d.dmin;
        if (sib_covers) hi = Time::max(hi, wb.max);
        const Time lo = sib_covers ? Time::neg_inf() : need;
        support = support.hull(LtInterval{lo, hi});
      }
      if (narrow_to(self.cls(alpha), support)) {
        delta.mark_in(static_cast<std::size_t>(side));
      }
    }
  }
  return delta;
}

ProjectionDelta project_mux(DelaySpec d, AbstractSignal& out,
                            std::span<AbstractSignal> ins) {
  assert(ins.size() == 3);
  ProjectionDelta delta;
  AbstractSignal& sel = ins[0];

  // ---- forward ------------------------------------------------------------
  for (int v = 0; v <= 1; ++v) {
    const bool val = v != 0;
    LtInterval fwd = LtInterval::empty();
    for (int s = 0; s <= 1; ++s) {
      const bool sv = s != 0;
      const LtInterval& ws = sel.cls(sv);
      const LtInterval& wd = ins[sv ? 2 : 1].cls(val);
      if (ws.is_empty() || wd.is_empty()) continue;
      fwd = fwd.hull(
          LtInterval{Time::neg_inf(), Time::max(ws.max, wd.max) + d.dmax});
    }
    delta.out_changed |= narrow_to(out.cls(val), fwd);
  }

  // ---- backward: data inputs ------------------------------------------------
  for (int s = 0; s <= 1; ++s) {
    const bool sv = s != 0;
    const std::size_t di = sv ? 2 : 1;
    const std::size_t other = sv ? 1 : 2;
    for (int v = 0; v <= 1; ++v) {
      const bool val = v != 0;
      LtInterval support = LtInterval::empty();
      // (a) selected: output follows this data input; select is the sibling.
      {
        const LtInterval& so = out.cls(val);
        const LtInterval& wsel = sel.cls(sv);
        if (!so.is_empty() && !wsel.is_empty()) {
          const Time need = so.lmin - d.dmax;
          const bool sel_covers = wsel.max >= need;
          Time hi = so.max - d.dmin;
          if (sel_covers) hi = Time::max(hi, wsel.max);
          support =
              support.hull({sel_covers ? Time::neg_inf() : need, hi});
        }
      }
      // (b) deselected: unconstrained, provided the opposite select can
      // drive some output class through the other data input.
      {
        const LtInterval& wsel_o = sel.cls(!sv);
        if (!wsel_o.is_empty()) {
          for (int w = 0; w <= 1 && !support.is_top(); ++w) {
            const bool wv = w != 0;
            const LtInterval& so = out.cls(wv);
            const LtInterval& wd = ins[other].cls(wv);
            if (so.is_empty() || wd.is_empty()) continue;
            if (Time::max(wsel_o.max, wd.max) + d.dmax >= so.lmin) {
              support = LtInterval::top();
            }
          }
        }
      }
      if (narrow_to(ins[di].cls(val), support)) delta.mark_in(di);
    }
  }

  // ---- backward: select -------------------------------------------------------
  for (int s = 0; s <= 1; ++s) {
    const bool sv = s != 0;
    LtInterval support = LtInterval::empty();
    const std::size_t di = sv ? 2 : 1;
    const std::size_t other = sv ? 1 : 2;
    for (int v = 0; v <= 1 && !support.is_top(); ++v) {
      const bool val = v != 0;
      const LtInterval& so = out.cls(val);
      const LtInterval& wd = ins[di].cls(val);
      if (so.is_empty() || wd.is_empty()) continue;
      const Time need = so.lmin - d.dmax;
      const bool data_covers = wd.max >= need;
      // A late select toggle can be masked whenever the deselected data
      // input can present the same value: no upper bound in that case.
      const bool maskable = !ins[other].cls(val).is_empty();
      Time hi = maskable ? Time::pos_inf() : so.max - d.dmin;
      if (data_covers) hi = Time::max(hi, wd.max);
      support = support.hull({data_covers ? Time::neg_inf() : need, hi});
    }
    if (narrow_to(sel.cls(sv), support)) delta.mark_in(0);
  }
  return delta;
}

}  // namespace

ProjectionDelta project_gate(GateType type, DelaySpec delay,
                             AbstractSignal& out,
                             std::span<AbstractSignal> ins) {
  assert(ins.size() <= kMaxGateFanin);
  switch (type) {
    case GateType::kNot:
    case GateType::kBuf:
    case GateType::kDelay:
      return project_unary(type, delay, out, ins[0]);
    case GateType::kAnd:
    case GateType::kNand:
    case GateType::kOr:
    case GateType::kNor:
      return project_controlling(type, delay, out, ins);
    case GateType::kXor:
    case GateType::kXnor:
      return project_xor(type, delay, out, ins);
    case GateType::kMux:
      return project_mux(delay, out, ins);
  }
  return {};
}

}  // namespace waveck
