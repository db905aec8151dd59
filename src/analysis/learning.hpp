// Static learning of class implications (paper Section 4, first paragraph).
//
// SOCRATES-style pre-processing: for every net y and class v, assert y = v
// and propagate; every other net x that collapses to a single class w is a
// derived fact (y=v) => (x=w). Only what propagation cannot rediscover is
// stored: never the fact itself (the gate fixpoint derives it again whenever
// y is decided to v), and its contrapositive (x=!w) => (y=!v) only when the
// probe x=!w did not collapse y to !v itself. Classes that propagate to an
// outright contradiction are globally impossible and reported separately so
// callers can restrict them permanently.
//
// Why the pruning cannot move a fixpoint: a gate fixpoint D holding only
// class v of y lies below top with y=v, so below that probe's greatest
// fixpoint, which holds only class w of x; by monotonicity D does too. A
// dropped pair is therefore a no-op at every gate fixpoint, and the greatest
// fixpoint of gates plus table (Theorem 1) is that of the full closure.
//
// A probe starts every domain at top, and at top last-transition intervals
// the gate projections narrow class sets exactly as Boolean generalized arc
// consistency (a class survives iff some full assignment of the gate
// supports it) while every interval stays top or empty. So a probe is
// 3-valued Boolean propagation, and 64 of them run at once: each net holds
// one bit per probe (lane) for "can be 0" and for "can be 1", and the gate
// rules are word-wide bitwise operations. The implications are derived
// from the Boolean structure only, so they remain valid in any narrower
// state -- in particular under every timing check.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "constraints/constraint_system.hpp"
#include "netlist/circuit.hpp"

namespace waveck {

struct LearningResult {
  ImplicationTable table;
  /// (net, class) pairs that are globally unsatisfiable.
  std::vector<std::pair<NetId, bool>> impossible;
  /// Facts (y=v) => (x=w) the probes derived; the table keeps a subset of
  /// their contrapositives.
  std::size_t derived = 0;
};

struct LearningOptions {
  /// Skip learning for circuits with more nets than this (pre-processing
  /// cost guard); an empty table is returned.
  std::size_t max_nets = 200000;
  /// Stop probing once the probes have derived this many facts (memory
  /// guard on implication-dense circuits such as long carry chains). The
  /// table is a subset of their contrapositives, so this bounds it too.
  std::size_t max_implications = 2'000'000;
};

[[nodiscard]] LearningResult learn_implications(const Circuit& c,
                                                const LearningOptions& opt = {});

/// The class sets of one net in 64 probes: bit L of `can[v]` is set iff the
/// net may still settle at v in lane L. A lane whose masks are both clear
/// on some net is contradictory.
struct ClassMasks {
  std::array<std::uint64_t, 2> can = {~std::uint64_t{0}, ~std::uint64_t{0}};
};

/// Narrows `out` and every `ins[i]` (at most kMaxGateFanin, MUX in
/// (sel, d0, d1) order) to the classes some full assignment of the gate's
/// Boolean function supports, in all 64 lanes at once. Exact in every lane
/// where no pin is empty; one application reaches the gate's own fixpoint
/// there.
void narrow_gate_classes(GateType type, ClassMasks& out,
                         std::span<ClassMasks> ins);

}  // namespace waveck
