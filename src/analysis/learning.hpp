// Static learning of class implications (paper Section 4, first paragraph).
//
// SOCRATES-style pre-processing: for every net y and class v, assert y = v
// on a scratch constraint system and propagate; every other net x that
// collapses to a single class w is a derived fact (y=v) => (x=w). Only what
// propagation cannot rediscover is stored: never the fact itself (the gate
// fixpoint derives it again whenever y is decided to v), and its
// contrapositive (x=!w) => (y=!v) only when the probe x=!w did not collapse
// y to !v itself. Classes that propagate to an outright contradiction are
// globally impossible and reported separately so callers can restrict them
// permanently.
//
// Why the pruning cannot move a fixpoint: a gate fixpoint D holding only
// class v of y lies below top with y=v, so below that probe's greatest
// fixpoint, which holds only class w of x; by monotonicity D does too. A
// dropped pair is therefore a no-op at every gate fixpoint, and the greatest
// fixpoint of gates plus table (Theorem 1) is that of the full closure.
//
// The implications are derived from the Boolean structure only (domains
// start at top), so they remain valid in any narrower state -- in
// particular under every timing check.
#pragma once

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

}  // namespace waveck
