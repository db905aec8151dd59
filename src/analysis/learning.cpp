#include "analysis/learning.hpp"

#include <algorithm>
#include <cstdint>

namespace waveck {

LearningResult learn_implications(const Circuit& c,
                                  const LearningOptions& opt) {
  LearningResult res;
  if (c.num_nets() > opt.max_nets) return res;

  ConstraintSystem cs(c);
  // Literals (2*net+class) each probe collapsed, sorted per probe: probe
  // literal p owns collapsed[probe_start[p] .. probe_start[p + 1]). Probes
  // run in literal order; literals from `probed` on never ran.
  std::vector<std::uint32_t> collapsed;
  std::vector<std::size_t> probe_start(2 * c.num_nets() + 1, 0);
  std::uint32_t probed = 0;
  const auto literal = [](NetId n, bool cls) {
    return static_cast<std::uint32_t>(ImplicationTable::literal(n, cls));
  };

  for (NetId y : c.all_nets()) {
    if (collapsed.size() >= opt.max_implications) break;
    for (int v = 0; v <= 1; ++v) {
      const bool vy = v != 0;
      const std::uint32_t p = literal(y, vy);
      const auto mark = cs.push_state();
      cs.restrict_domain(y, AbstractSignal::class_only(vy));
      if (cs.reach_fixpoint() == ConstraintSystem::Status::kNoViolation) {
        res.impossible.emplace_back(y, vy);
      } else {
        // Every collapsed net is a derived fact. (y itself collapsed
        // trivially; skip it.) Only nets touched by the propagation need
        // scanning; the trail suffix holds each once and is read in place.
        for (std::size_t i = mark; i < cs.trail_size(); ++i) {
          const NetId x = cs.trail_net(i);
          if (x == y) continue;
          const AbstractSignal& d = cs.domain(x);
          if (d.single_class()) collapsed.push_back(literal(x, d.the_class()));
        }
        std::sort(collapsed.begin() + probe_start[p], collapsed.end());
      }
      probe_start[p + 1] = collapsed.size();
      probed = p + 1;
      cs.pop_to(mark);
    }
  }
  res.derived = collapsed.size();

  // Keep the contrapositive (!l => !p) of each derived fact (p => l) unless
  // probe !l derived !p itself. A probe that never ran or was impossible
  // derived nothing, so its contrapositives are kept (always sound). The
  // pairs are distinct, so no dedup is needed.
  std::vector<ImplicationTable::Implication> kept;
  for (std::uint32_t p = 0; p < probed; ++p) {
    for (std::size_t i = probe_start[p]; i < probe_start[p + 1]; ++i) {
      const std::uint32_t q = collapsed[i] ^ 1;
      if (q < probed && std::binary_search(
                            collapsed.begin() + probe_start[q],
                            collapsed.begin() + probe_start[q + 1], p ^ 1)) {
        continue;
      }
      kept.push_back(
          {NetId{q >> 1}, (q & 1) != 0, {NetId{p >> 1}, (p & 1) == 0}});
    }
  }
  res.table = ImplicationTable(c.num_nets(), kept);
  return res;
}

}  // namespace waveck
