// Static/dynamic carriers and timing dominators (paper Section 4).
//
// A net is a *static carrier* of sigma = (xi, s, delta) iff some path
// through it to s has length >= delta (Def. 4). The *static-carrier
// circuit* (Def. 5) induces a DAG Psi' from s (source S) to a virtual sink T
// fed by the carrier inputs; nets dominating T are *static timing
// dominators* (Def. 6): every sufficiently long path runs through them, so
// waveforms on a dominator d that are stable at/after (delta - top_{d->s})
// cannot cause a violation (Lemma 3).
//
// *Dynamic carriers* (Def. 7) refine this using the current abstract-signal
// domains: x is a carrier at distance k only if its domain still contains
// transitions at/after (delta - k). Dominators of the dynamic-carrier DAG
// are *dynamic timing dominators* (Def. 9); Theorem 3 / Corollary 1 allow
// intersecting their domains with "transitions at/after (delta - k)", the
// global timing implication driving the Figure 4 loop.
#pragma once

#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "constraints/constraint_system.hpp"
#include "netlist/circuit.hpp"

namespace waveck {

/// The timing check sigma = (xi, s, delta) (Section 2): does output s have a
/// transition at or after time delta?
struct TimingCheck {
  NetId output;
  Time delta;
};

/// Carrier sets with per-net distance-to-s (the largest k such that the net
/// is a k-carrier; Time::neg_inf() for non-carriers).
struct CarrierSet {
  std::vector<Time> distance;  // indexed by NetId
  [[nodiscard]] bool is_carrier(NetId n) const {
    return distance[n.index()] != Time::neg_inf();
  }
  [[nodiscard]] std::size_t count() const {
    std::size_t k = 0;
    for (const Time& t : distance) k += (t != Time::neg_inf());
    return k;
  }
};

/// Static carriers: distance is top_{x->s}; a net qualifies iff
/// top_x + top_{x->s} >= delta.
[[nodiscard]] CarrierSet static_carriers(const Circuit& c,
                                         const TimingCheck& check);

/// Dynamic carriers of Def. 7 over the system's current domains.
[[nodiscard]] CarrierSet dynamic_carriers(const ConstraintSystem& cs,
                                          const TimingCheck& check);

/// Reusable buffers for the dominator computations: a repeat caller (the
/// CarrierCache's full runs and regional re-tests) avoids reallocating the
/// per-call vertex/edge scratch. `vert_index` is all SIZE_MAX between calls.
struct DominatorScratch {
  std::vector<NetId> verts;
  std::vector<std::size_t> vert_index;
  std::vector<std::vector<std::size_t>> preds;
  std::vector<std::size_t> idom;
};

/// Timing dominators: the nets on every S->T path of the carrier DAG,
/// ordered from s outward (s itself first). Works for both carrier kinds.
/// Only carrier membership is read, never a distance. When s is a carrier
/// but no carrier path reaches T, the list is {s}; when s is none, empty.
[[nodiscard]] std::vector<NetId> timing_dominators(const Circuit& c,
                                                   const TimingCheck& check,
                                                   const CarrierSet& carriers);

/// As above, reusing `scratch` across calls. Identical output; also reports
/// whether some carrier path reaches T.
[[nodiscard]] std::vector<NetId> timing_dominators(const Circuit& c,
                                                   const TimingCheck& check,
                                                   const CarrierSet& carriers,
                                                   DominatorScratch& scratch,
                                                   bool& t_reachable);

/// The Cooper-Harvey-Kennedy pass behind `timing_dominators`, over one
/// region of the carrier DAG. `verts` lists the region's carrier nets in a
/// topological order of Psi' (an edge runs from a net to each carrier input
/// of its driver, so downstream before upstream), its source first. The
/// sink is the virtual T, fed by the undriven nets, when `to_t`, and
/// `verts.back()` otherwise. Returns false when no path of the region
/// reaches the sink; otherwise appends the sink's dominators to `chain`,
/// the source first and the sink left out.
bool dominator_chain(const Circuit& c, const std::vector<NetId>& verts,
                     bool to_t, DominatorScratch& scratch,
                     std::vector<NetId>& chain);

/// One round of Corollary 1: intersects every dynamic timing dominator d
/// with (0|delta-k..+inf, 1|delta-k..+inf), k = dynamic distance of d.
/// Returns the number of domains narrowed (0 = the loop in Figure 4 is
/// done).
std::size_t apply_dominator_implications(ConstraintSystem& cs,
                                         const TimingCheck& check);

/// The restriction loop of Corollary 1 over precomputed dominators: shared
/// by `apply_dominator_implications` and the CarrierCache-backed overload
/// (carrier_cache.hpp). Returns the number of domains narrowed.
std::size_t apply_dominator_restrictions(ConstraintSystem& cs,
                                         const TimingCheck& check,
                                         const CarrierSet& carriers,
                                         const std::vector<NetId>& doms);

/// Lemma 3 variant using static carriers/distances only (no domain reads);
/// exposed for the ablation benches.
std::size_t apply_static_dominator_implications(ConstraintSystem& cs,
                                                const TimingCheck& check);

}  // namespace waveck
