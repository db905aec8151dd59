#include "analysis/learning.hpp"

#include <algorithm>
#include <cstdint>

namespace waveck {

LearningResult learn_implications(const Circuit& c,
                                  const LearningOptions& opt) {
  LearningResult res;
  if (c.num_nets() > opt.max_nets) return res;

  ConstraintSystem cs(c);
  std::vector<ImplicationTable::Implication> found;  // discovery order
  // Literals (2*net+class) each probe collapsed, sorted per probe: probe
  // literal p owns collapsed[probe_start[p] .. probe_start[p + 1]). Probes
  // run in literal order, so every earlier probe's range is final.
  std::vector<std::uint32_t> collapsed;
  std::vector<std::size_t> probe_start(2 * c.num_nets() + 1, 0);
  const auto literal = [](NetId n, bool cls) {
    return static_cast<std::uint32_t>(ImplicationTable::literal(n, cls));
  };

  for (NetId y : c.all_nets()) {
    if (found.size() >= opt.max_implications) break;
    for (int v = 0; v <= 1; ++v) {
      const bool vy = v != 0;
      const std::uint32_t p = literal(y, vy);
      const auto mark = cs.push_state();
      cs.restrict_domain(y, AbstractSignal::class_only(vy));
      const auto status = cs.reach_fixpoint();
      if (status == ConstraintSystem::Status::kNoViolation) {
        res.impossible.emplace_back(y, vy);
      } else {
        // Every collapsed net is an implication target. (y itself collapsed
        // trivially; skip it.) Only nets touched by the propagation need
        // scanning; the trail suffix holds each once and is read in place.
        for (std::size_t i = mark; i < cs.trail_size(); ++i) {
          const NetId x = cs.trail_net(i);
          if (x == y) continue;
          const AbstractSignal& d = cs.domain(x);
          if (!d.single_class()) continue;
          const bool wx = d.the_class();
          if (opt.contrapositives) {
            collapsed.push_back(literal(x, wx));
            // (y=v => x=w) and its contrapositive are both already recorded
            // iff the earlier probe x=!w found y=!v: it stored them the other
            // way round. Nothing else can record either pair.
            const std::uint32_t q = literal(x, !wx);
            if (q < p && std::binary_search(
                             collapsed.begin() + probe_start[q],
                             collapsed.begin() + probe_start[q + 1],
                             literal(y, !vy))) {
              continue;
            }
          }
          found.push_back({y, vy, {x, wx}});
          ++res.direct;
          if (opt.contrapositives) {
            found.push_back({x, !wx, {y, !vy}});
            ++res.contrapositive;
          }
        }
        std::sort(collapsed.begin() + probe_start[p], collapsed.end());
      }
      probe_start[p + 1] = collapsed.size();
      cs.pop_to(mark);
    }
  }
  res.table = ImplicationTable(c.num_nets(), found);
  return res;
}

}  // namespace waveck
