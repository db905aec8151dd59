#include "netlist/circuit.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <string>

#include "common/time.hpp"

namespace waveck {

NetId Circuit::add_net(std::string name) {
  if (by_name_.contains(name)) {
    throw CircuitError("duplicate net name: " + name);
  }
  const NetId id{nets_.size()};
  Net n;
  n.name = std::move(name);
  by_name_.emplace(n.name, id);
  nets_.push_back(std::move(n));
  finalized_ = false;
  return id;
}

NetId Circuit::net_by_name_or_add(std::string_view name) {
  if (auto it = by_name_.find(std::string(name)); it != by_name_.end()) {
    return it->second;
  }
  return add_net(std::string(name));
}

GateId Circuit::add_gate(GateType type, NetId out, std::vector<NetId> ins,
                         DelaySpec delay) {
  if (is_unary(type) && ins.size() != 1) {
    throw CircuitError("unary gate must have exactly one input");
  }
  if (type == GateType::kMux && ins.size() != 3) {
    throw CircuitError("MUX must have inputs (sel, d0, d1)");
  }
  if (!is_unary(type) && type != GateType::kMux && ins.empty()) {
    throw CircuitError("gate with no inputs");
  }
  if (ins.size() > kMaxGateFanin) {
    throw CircuitError("gate driving " + nets_[out.index()].name + " has " +
                       std::to_string(ins.size()) + " inputs (at most " +
                       std::to_string(kMaxGateFanin) + ")");
  }
  if (nets_[out.index()].driver.valid()) {
    throw CircuitError("net " + nets_[out.index()].name +
                       " has multiple drivers");
  }
  const GateId id{gates_.size()};
  gates_.push_back(Gate{type, delay, out, std::move(ins)});
  nets_[out.index()].driver = id;
  finalized_ = false;
  return id;
}

void Circuit::declare_input(NetId n) {
  Net& net = nets_[n.index()];
  if (net.is_primary_input) {
    throw CircuitError("duplicate INPUT(" + net.name + ")");
  }
  net.is_primary_input = true;
  finalized_ = false;
}

void Circuit::declare_output(NetId n) {
  Net& net = nets_[n.index()];
  if (net.is_primary_output) {
    throw CircuitError("duplicate OUTPUT(" + net.name + ")");
  }
  net.is_primary_output = true;
  finalized_ = false;
}

void Circuit::finalize() {
  inputs_.clear();
  outputs_.clear();
  topo_order_.clear();
  for (auto& n : nets_) n.fanouts.clear();

  for (std::size_t i = 0; i < gates_.size(); ++i) {
    for (NetId in : gates_[i].ins) {
      nets_[in.index()].fanouts.push_back(GateId{i});
    }
  }

  for (std::size_t i = 0; i < nets_.size(); ++i) {
    const Net& n = nets_[i];
    if (n.is_primary_input && n.driver.valid()) {
      throw CircuitError("net " + n.name + " is both driven and an input");
    }
    if (!n.is_primary_input && !n.driver.valid()) {
      throw CircuitError("net " + n.name + " is undriven and not an input");
    }
    if (n.is_primary_input) inputs_.push_back(NetId{i});
    if (n.is_primary_output) outputs_.push_back(NetId{i});
  }

  // Kahn topological sort over gates.
  std::vector<std::uint32_t> pending(gates_.size(), 0);
  std::queue<GateId> ready;
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    std::uint32_t deps = 0;
    for (NetId in : gates_[i].ins) {
      if (nets_[in.index()].driver.valid()) ++deps;
    }
    pending[i] = deps;
    if (deps == 0) ready.push(GateId{i});
  }
  while (!ready.empty()) {
    const GateId g = ready.front();
    ready.pop();
    topo_order_.push_back(g);
    const NetId out = gates_[g.index()].out;
    for (GateId f : nets_[out.index()].fanouts) {
      if (--pending[f.index()] == 0) ready.push(f);
    }
  }
  if (topo_order_.size() != gates_.size()) {
    throw CircuitError("circuit " + name_ + " contains a combinational cycle");
  }
  check_time_range();
  finalized_ = true;
}

void Circuit::check_time_range(std::int64_t delta) const {
  if (delta <= -Time::kMaxFinite || delta >= Time::kMaxFinite) {
    throw CircuitError("delta " + std::to_string(delta) +
                       " is outside the finite time range (magnitude below " +
                       std::to_string(Time::kMaxFinite) + ")");
  }
  const GateId g =
      dmax_arrivals(Time::kMaxFinite - (delta < 0 ? -delta : delta)).first;
  if (g.valid()) {
    const std::string sum =
        delta == 0 ? "the" : "delta " + std::to_string(delta) + " plus the";
    throw CircuitError(sum + " longest delay path to net " +
                       nets_[gates_[g.index()].out.index()].name +
                       " reaches the largest finite time " +
                       std::to_string(Time::kMaxFinite));
  }
}

std::int64_t Circuit::longest_path() const {
  const auto [g, longest] = dmax_arrivals(Time::kMaxFinite);
  return g.valid() ? Time::kMaxFinite : longest;
}

bool Circuit::delta_in_range(std::int64_t delta, std::int64_t longest_path) {
  return delta > -Time::kMaxFinite && delta < Time::kMaxFinite &&
         longest_path < Time::kMaxFinite - (delta < 0 ? -delta : delta);
}

std::pair<GateId, std::int64_t> Circuit::dmax_arrivals(
    std::int64_t budget) const {
  // Every partial sum stays below `budget`, so nothing here can overflow.
  std::vector<std::int64_t> arrival(nets_.size(), 0);
  std::int64_t longest = 0;
  for (GateId g : topo_order_) {
    const Gate& gate = gates_[g.index()];
    std::int64_t a = 0;
    for (NetId in : gate.ins) a = std::max(a, arrival[in.index()]);
    if (gate.delay.dmax >= budget - a) return {g, longest};
    arrival[gate.out.index()] = a + gate.delay.dmax;
    longest = std::max(longest, a + gate.delay.dmax);
  }
  return {GateId{}, longest};
}

std::optional<NetId> Circuit::find_net(std::string_view name) const {
  if (auto it = by_name_.find(std::string(name)); it != by_name_.end()) {
    return it->second;
  }
  return std::nullopt;
}

std::vector<NetId> Circuit::all_nets() const {
  std::vector<NetId> v(nets_.size());
  for (std::size_t i = 0; i < nets_.size(); ++i) v[i] = NetId{i};
  return v;
}

std::vector<GateId> Circuit::all_gates() const {
  std::vector<GateId> v(gates_.size());
  for (std::size_t i = 0; i < gates_.size(); ++i) v[i] = GateId{i};
  return v;
}

void Circuit::set_uniform_delay(DelaySpec d) {
  for (auto& g : gates_) {
    g.delay.dmin = d.dmin;
    g.delay.dmax = d.dmax;  // correlation groups survive re-annotation
  }
  if (finalized_) check_time_range();
}

std::vector<NetId> Circuit::fanout_stems() const {
  std::vector<NetId> stems;
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    if (nets_[i].fanouts.size() >= 2) stems.push_back(NetId{i});
  }
  return stems;
}

bool Circuit::is_reconvergent_stem(NetId stem) const {
  const auto& fo = nets_[stem.index()].fanouts;
  if (fo.size() < 2) return false;
  // Mark, per gate, the set of stem branches that reach it; reconvergent iff
  // some gate is reached by >= 2 branches. Branch sets are represented by
  // 64-bit masks (stems with > 64 branches fall back to "reconvergent" --
  // conservative and irrelevant in practice).
  if (fo.size() > 64) return true;
  std::vector<std::uint64_t> reach(gates_.size(), 0);
  for (std::size_t b = 0; b < fo.size(); ++b) {
    reach[fo[b].index()] |= std::uint64_t{1} << b;
  }
  for (GateId g : topo_order_) {
    std::uint64_t m = reach[g.index()];
    if (m == 0) continue;
    if ((m & (m - 1)) != 0) return true;  // two branches meet at g
    for (GateId f : nets_[gates_[g.index()].out.index()].fanouts) {
      reach[f.index()] |= m;
    }
  }
  return false;
}

}  // namespace waveck
