#include "constraints/level_kernel.hpp"

#include <algorithm>
#include <numeric>

namespace waveck {

std::vector<std::uint32_t> longest_path_levels(const Circuit& c) {
  std::vector<std::uint32_t> level(c.num_gates(), 0);
  for (GateId g : c.topo_order()) {
    std::uint32_t lv = 0;
    for (NetId in : c.gate(g).ins) {
      const GateId drv = c.net(in).driver;
      if (drv.valid()) lv = std::max(lv, level[drv.index()] + 1);
    }
    level[g.index()] = lv;
  }
  return level;
}

void LevelPlan::build(const Circuit& c,
                      const std::vector<std::uint32_t>& gate_level) {
  const std::size_t ng = c.num_gates();
  num_levels = 0;
  for (std::uint32_t lv : gate_level) {
    num_levels = std::max<std::size_t>(num_levels, lv + 1);
  }

  // Topological order sorted stably by level: (level, topo position).
  std::vector<std::uint32_t> order;
  order.reserve(ng);
  for (GateId g : c.topo_order()) order.push_back(g.index());
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return gate_level[a] < gate_level[b];
                   });

  slot_of_gate.assign(ng, 0);
  type.assign(ng, GateType::kBuf);
  delay.assign(ng, DelaySpec{});
  out_net.assign(ng, 0);
  ins_offset.assign(ng + 1, 0);
  ins_net.clear();
  level_begin.assign(num_levels + 1, 0);

  for (std::uint32_t s = 0; s < ng; ++s) {
    const std::uint32_t gi = order[s];
    slot_of_gate[gi] = s;
    const Gate& g = c.gate(GateId{gi});
    type[s] = g.type;
    delay[s] = g.delay;
    out_net[s] = g.out.value();
    ins_offset[s] = static_cast<std::uint32_t>(ins_net.size());
    for (NetId in : g.ins) ins_net.push_back(in.value());
    ++level_begin[gate_level[gi] + 1];
  }
  ins_offset[ng] = static_cast<std::uint32_t>(ins_net.size());
  std::partial_sum(level_begin.begin(), level_begin.end(),
                   level_begin.begin());
}

std::size_t LevelPlan::capacity_bytes() const {
  return (slot_of_gate.capacity() + level_begin.capacity() +
          out_net.capacity() + ins_offset.capacity() + ins_net.capacity()) *
             sizeof(std::uint32_t) +
         type.capacity() * sizeof(GateType) +
         delay.capacity() * sizeof(DelaySpec);
}

}  // namespace waveck
