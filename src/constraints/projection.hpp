// Relational gate constraints over abstract signals (paper Section 3.2).
//
// `project_gate` narrows the output and input domains of one gate to the
// narrowest abstract signals containing the projections of the gate's timed
// Boolean relation -- the C_g(X_i, X_j, X_s) operator of the paper. The
// rules, per final-value class (see DESIGN.md for derivations):
//
// Gates with a controlling value c (AND/NAND/OR/NOR), delay [dmin, dmax]:
//  * all-inputs-non-controlling result class: lambda_out = delay +
//    max_i(lambda_i) exactly, so forward = [dmin + max lmins,
//    dmax + max maxes]; backward on an input: lambda_i <= out.max - dmin and
//    lambda_i >= out.lmin - dmax unless a sibling's non-controlling interval
//    intersects the output window (the sibling can carry the last
//    transition).
//  * controlled result class: lambda_out <= dmax + min over controlling
//    inputs of lambda_i and is otherwise free; backward: every
//    controlling-class input gets lambda_i >= out.lmin - dmax. This is the
//    "controlling waveforms are removed because they block the way" rule of
//    the paper's Example 2 / Figure 3.
//  * a non-controlling input class is also supported, unconstrained, by any
//    combination in which some *other* input is controlling and can reach
//    the controlled output class.
//
// XOR/XNOR (2-input): lambda_out <= delay + max(lambda_a, lambda_b), with
// equality when lambda_a != lambda_b; simultaneous opposite transitions can
// cancel, which relaxes the forward lower bound (when the operand intervals
// intersect) and the backward upper bound (when the sibling can pair up).
//
// NOT/BUF/DELAY: exact interval shift.
//
// MUX (complex-gate extension, Section 7): select/data pair rules analogous
// to the non-controlling pair, with masking by the deselected data input.
#pragma once

#include <cstdint>
#include <span>

#include "netlist/gate.hpp"
#include "waveform/abstract_waveform.hpp"

namespace waveck {

struct ProjectionDelta {
  bool out_changed = false;
  std::uint32_t ins_changed = 0;  // bit i set iff ins[i] narrowed

  [[nodiscard]] bool any() const { return out_changed || ins_changed != 0; }
  void mark_in(std::size_t i) { ins_changed |= std::uint32_t{1} << i; }
  [[nodiscard]] bool in_changed(std::size_t i) const {
    return (ins_changed >> i) & 1u;
  }
};

/// Applies the gate's relational constraint once: narrows `out` and each
/// `ins[i]` in place. Sound (never removes a sigma-compatible waveform) and
/// monotone (domains only narrow). At most kMaxGateFanin inputs.
ProjectionDelta project_gate(GateType type, DelaySpec delay,
                             AbstractSignal& out,
                             std::span<AbstractSignal> ins);

}  // namespace waveck
