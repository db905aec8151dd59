// Combinational gate-level circuit as a DAG of gates over delayless nets
// (paper Section 2).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/diagnostics.hpp"
#include "common/ids.hpp"
#include "netlist/gate.hpp"

namespace waveck {

struct Gate {
  GateType type = GateType::kBuf;
  DelaySpec delay;
  NetId out;
  std::vector<NetId> ins;
};

struct Net {
  std::string name;
  GateId driver;                // invalid for primary inputs
  std::vector<GateId> fanouts;  // gates with this net as an input
  bool is_primary_input = false;
  bool is_primary_output = false;
};

/// A combinational circuit. Build with `add_net` / `add_gate` /
/// `declare_input` / `declare_output`, then call `finalize()` once; most
/// queries require a finalized circuit.
class Circuit {
 public:
  Circuit() = default;
  explicit Circuit(std::string name) : name_(std::move(name)) {}

  // ----- construction -----------------------------------------------------
  NetId add_net(std::string name);
  /// Returns an existing net by name or creates it.
  NetId net_by_name_or_add(std::string_view name);
  GateId add_gate(GateType type, NetId out, std::vector<NetId> ins,
                  DelaySpec delay = {});
  /// Marks `n` a primary input / output. Throws CircuitError when `n` is
  /// already declared one (a net may be both an input and an output).
  void declare_input(NetId n);
  void declare_output(NetId n);

  /// Validates the structure (every net driven xor declared input, no
  /// multiple drivers, acyclic) and the delays (`check_time_range`),
  /// computes the topological gate order and fanout lists. Throws
  /// CircuitError on violation.
  void finalize();
  /// Throws CircuitError unless |delta| plus the longest sum of gate dmax
  /// along any path stays below Time::kMaxFinite. Inside that range a
  /// check's bounds (delta shifted back along a path, arrivals shifted
  /// forward) stay finite, so the engine, STA and the simulator agree.
  /// `finalize` runs it with delta 0, and so do `set_uniform_delay` and
  /// `read_delays` on a finalized circuit; a check's delta is tested before
  /// use. Delays written through `gate_mut` are not re-checked.
  void check_time_range(std::int64_t delta = 0) const;
  /// The longest sum of gate dmax along any path, saturated at
  /// Time::kMaxFinite (finalized only). A delta is inside the range
  /// `check_time_range` accepts iff `delta_in_range(delta, longest_path())`,
  /// so a caller checking many deltas computes the path once.
  [[nodiscard]] std::int64_t longest_path() const;
  [[nodiscard]] static bool delta_in_range(std::int64_t delta,
                                           std::int64_t longest_path);
  [[nodiscard]] bool finalized() const { return finalized_; }

  // ----- queries ----------------------------------------------------------
  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  [[nodiscard]] std::size_t num_nets() const { return nets_.size(); }
  [[nodiscard]] std::size_t num_gates() const { return gates_.size(); }

  [[nodiscard]] const Net& net(NetId id) const { return nets_[id.index()]; }
  [[nodiscard]] const Gate& gate(GateId id) const { return gates_[id.index()]; }
  [[nodiscard]] Gate& gate_mut(GateId id) { return gates_[id.index()]; }

  [[nodiscard]] const std::vector<NetId>& inputs() const { return inputs_; }
  [[nodiscard]] const std::vector<NetId>& outputs() const { return outputs_; }

  /// Gates in topological (fanin-before-fanout) order; finalized only.
  [[nodiscard]] const std::vector<GateId>& topo_order() const {
    return topo_order_;
  }

  [[nodiscard]] std::optional<NetId> find_net(std::string_view name) const;

  /// Iteration helpers.
  [[nodiscard]] std::vector<NetId> all_nets() const;
  [[nodiscard]] std::vector<GateId> all_gates() const;

  /// Sets every gate delay to `d` (the paper's uniform-delay experiments).
  /// Throws CircuitError when a finalized circuit leaves the finite time
  /// range (`check_time_range`).
  void set_uniform_delay(DelaySpec d);

  /// Nets with >= 2 fanout branches (candidate stems for stem correlation).
  [[nodiscard]] std::vector<NetId> fanout_stems() const;

  /// True iff `stem` reconverges: two distinct fanout branches reach a common
  /// gate downstream. Finalized only.
  [[nodiscard]] bool is_reconvergent_stem(NetId stem) const;

 private:
  std::string name_;
  std::vector<Net> nets_;
  std::vector<Gate> gates_;
  std::vector<NetId> inputs_;
  std::vector<NetId> outputs_;
  std::vector<GateId> topo_order_;
  std::unordered_map<std::string, NetId> by_name_;
  bool finalized_ = false;

  /// Walks the dmax arrivals in topological order; returns the first gate
  /// whose output arrival reaches `budget` (invalid when none does) and
  /// the largest arrival below it.
  [[nodiscard]] std::pair<GateId, std::int64_t> dmax_arrivals(
      std::int64_t budget) const;
};

}  // namespace waveck
