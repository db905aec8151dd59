// Levelization-time layout of the gate constraints for the level-sweep drain.
//
// The constraint system's bucket queue drains gates one topological level at
// a time: within a level no gate feeds another, so each drained level is one
// sweep. At levelization time the gates are laid out in dense "slots",
// level-major and in topological order within a level, with packed per-slot
// type, output, operand and delay tables, so the drain evaluates a slot
// (with project_gate) without touching Gate objects. The greatest fixpoint
// is order-independent (paper Theorem 1), so the layout only decides how
// many evaluations a drain takes, never the domains it reaches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netlist/circuit.hpp"

namespace waveck {

struct LevelPlan {
  std::vector<std::uint32_t> slot_of_gate;  // gate index -> slot
  std::vector<std::uint32_t> level_begin;   // level -> first slot (n+1 ents)
  // Per-slot packed tables. A slot's inputs occupy
  // ins_net[ins_offset[slot] .. ins_offset[slot + 1]).
  std::vector<GateType> type;
  std::vector<DelaySpec> delay;
  std::vector<std::uint32_t> out_net;
  std::vector<std::uint32_t> ins_offset;
  std::vector<std::uint32_t> ins_net;
  std::size_t num_levels = 0;

  /// Builds the plan from the circuit and per-gate longest-path levels.
  void build(const Circuit& c, const std::vector<std::uint32_t>& gate_level);

  [[nodiscard]] std::size_t capacity_bytes() const;
};

/// Always false: the engine has a single scalar narrowing path. Kept because
/// the benchmark's run stamp still reports this field.
[[nodiscard]] constexpr bool simd_enabled() { return false; }

}  // namespace waveck
