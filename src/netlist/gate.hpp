// Gate types and their static properties.
//
// The paper's gate alphabet (Section 2): AND, NAND, OR, NOR, NOT, BUFFER,
// DELAY, XOR, XNOR. MUX is the complex-gate extension mentioned in the
// conclusions. Delays are intervals [dmin, dmax] attached to gates; the
// max-floating-delay computation uses only dmax, but both bounds are kept so
// the same netlist serves min-delay analyses.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace waveck {

enum class GateType : std::uint8_t {
  kAnd,
  kNand,
  kOr,
  kNor,
  kXor,
  kXnor,
  kNot,
  kBuf,
  kDelay,  // identity function; pure delay element
  kMux,    // inputs: (sel, d0, d1); out = sel ? d1 : d0
};

/// Widest gate a circuit may hold: the relational projections keep one
/// change bit per input in a 32-bit mask.
inline constexpr std::size_t kMaxGateFanin = 32;

[[nodiscard]] constexpr std::string_view to_string(GateType t) {
  switch (t) {
    case GateType::kAnd: return "AND";
    case GateType::kNand: return "NAND";
    case GateType::kOr: return "OR";
    case GateType::kNor: return "NOR";
    case GateType::kXor: return "XOR";
    case GateType::kXnor: return "XNOR";
    case GateType::kNot: return "NOT";
    case GateType::kBuf: return "BUF";
    case GateType::kDelay: return "DELAY";
    case GateType::kMux: return "MUX";
  }
  return "?";
}

/// AND/NAND/OR/NOR: gates with a controlling input value.
[[nodiscard]] constexpr bool has_controlling_value(GateType t) {
  return t == GateType::kAnd || t == GateType::kNand || t == GateType::kOr ||
         t == GateType::kNor;
}

/// The input value that by itself determines the output (Section 2).
[[nodiscard]] constexpr bool controlling_value(GateType t) {
  assert(has_controlling_value(t));
  return t == GateType::kOr || t == GateType::kNor;
}

/// Whether the gate inverts (output = f(...) xor inversion).
[[nodiscard]] constexpr bool inversion(GateType t) {
  switch (t) {
    case GateType::kNand:
    case GateType::kNor:
    case GateType::kXnor:
    case GateType::kNot:
      return true;
    default:
      return false;
  }
}

[[nodiscard]] constexpr bool is_unary(GateType t) {
  return t == GateType::kNot || t == GateType::kBuf || t == GateType::kDelay;
}

[[nodiscard]] constexpr bool is_xor_like(GateType t) {
  return t == GateType::kXor || t == GateType::kXnor;
}

/// Boolean evaluation on final values. (vector<bool>: the natural vector
/// container for net values; bit-packing keeps exhaustive sweeps compact.)
[[nodiscard]] constexpr bool eval_gate(GateType t, const std::vector<bool>& in) {
  switch (t) {
    case GateType::kAnd:
    case GateType::kNand: {
      bool v = true;
      for (bool b : in) v = v && b;
      return v != inversion(t);
    }
    case GateType::kOr:
    case GateType::kNor: {
      bool v = false;
      for (bool b : in) v = v || b;
      return v != inversion(t);
    }
    case GateType::kXor:
    case GateType::kXnor: {
      bool v = false;
      for (bool b : in) v = v != b;
      return v != inversion(t);
    }
    case GateType::kNot:
      return !in[0];
    case GateType::kBuf:
    case GateType::kDelay:
      return in[0];
    case GateType::kMux:
      return in[0] ? in[2] : in[1];
  }
  return false;
}

/// Gate delay interval. Only dmax participates in max-floating-delay
/// narrowing; dmin tightens backward projections when non-zero.
///
/// `group` implements component delay correlation (the paper's companion
/// reference [1], Aourid-Cerny IWLS'97): gates with the same non-negative
/// group id share one physical delay variable, so narrowing the interval of
/// one narrows them all (see analysis/delay_correlation.hpp). -1 means an
/// independent delay.
struct DelaySpec {
  std::int64_t dmin = 0;
  std::int64_t dmax = 0;
  std::int32_t group = -1;

  constexpr DelaySpec() = default;
  constexpr DelaySpec(std::int64_t lo, std::int64_t hi) : dmin(lo), dmax(hi) {
    assert(lo >= 0 && lo <= hi);
  }
  /// Fixed delay d.
  static constexpr DelaySpec fixed(std::int64_t d) { return {d, d}; }

  friend constexpr bool operator==(DelaySpec a, DelaySpec b) = default;
};

}  // namespace waveck
