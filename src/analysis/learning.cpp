#include "analysis/learning.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>

#include "common/flight_recorder.hpp"
#include "constraints/level_kernel.hpp"

namespace waveck {

namespace {

constexpr std::uint64_t kAll = ~std::uint64_t{0};
constexpr std::size_t kLanes = 64;

constexpr std::size_t idx(bool v) { return v ? 1 : 0; }

/// AND/NAND/OR/NOR with controlling class c: the output takes class c^inv
/// iff some input takes c. An input's class c needs that controlled output;
/// its class !c needs either the other output class with every other input
/// at !c, or the controlled output with some other input at c. The "every
/// other" and "some other" terms are prefix/suffix AND and OR.
void narrow_controlling(bool c, bool inv, ClassMasks& out,
                        std::span<ClassMasks> ins) {
  const std::size_t n = ins.size();
  const std::size_t ci = idx(c), ni = idx(!c);
  const std::uint64_t out_c = out.can[idx(c != inv)];
  const std::uint64_t out_nc = out.can[idx(c == inv)];
  std::array<std::uint64_t, kMaxGateFanin + 1> all_nc, any_c;  // suffixes
  all_nc[n] = kAll;
  any_c[n] = 0;
  for (std::size_t j = n; j-- > 0;) {
    all_nc[j] = all_nc[j + 1] & ins[j].can[ni];
    any_c[j] = any_c[j + 1] | ins[j].can[ci];
  }
  std::uint64_t pre_nc = kAll, pre_c = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t nc = ins[j].can[ni], cc = ins[j].can[ci];
    ins[j].can[ci] = cc & out_c;
    ins[j].can[ni] = nc & ((out_nc & pre_nc & all_nc[j + 1]) |
                           (out_c & (pre_c | any_c[j + 1])));
    pre_nc &= nc;
    pre_c |= cc;
  }
  out.can[idx(c != inv)] = out_c & pre_c;
  out.can[idx(c == inv)] = out_nc & pre_nc;
}

/// Lanes where a set of pins can reach even and odd parity.
struct Parity {
  std::uint64_t even = kAll;
  std::uint64_t odd = 0;

  [[nodiscard]] Parity plus(const ClassMasks& m) const {
    return {(even & m.can[0]) | (odd & m.can[1]),
            (even & m.can[1]) | (odd & m.can[0])};
  }
  [[nodiscard]] Parity plus(const Parity& o) const {
    return {(even & o.even) | (odd & o.odd), (even & o.odd) | (odd & o.even)};
  }
};

/// XOR/XNOR: the inputs and the output (classes swapped for XNOR) have even
/// parity, so a pin keeps class v iff the other pins can reach parity v.
void narrow_parity(bool inv, ClassMasks& out, std::span<ClassMasks> ins) {
  const std::size_t n = ins.size();
  std::array<ClassMasks, kMaxGateFanin + 1> pin;
  std::copy(ins.begin(), ins.end(), pin.begin());
  pin[n] = out;
  if (inv) std::swap(pin[n].can[0], pin[n].can[1]);
  std::array<Parity, kMaxGateFanin + 2> suffix;
  suffix[n + 1] = {};
  for (std::size_t j = n + 1; j-- > 0;) suffix[j] = suffix[j + 1].plus(pin[j]);
  Parity prefix;
  for (std::size_t j = 0; j <= n; ++j) {
    const Parity others = prefix.plus(suffix[j + 1]);
    prefix = prefix.plus(pin[j]);
    pin[j].can[0] &= others.even;
    pin[j].can[1] &= others.odd;
  }
  std::copy(pin.begin(), pin.begin() + static_cast<std::ptrdiff_t>(n),
            ins.begin());
  if (inv) std::swap(pin[n].can[0], pin[n].can[1]);
  out = pin[n];
}

/// MUX (sel, d0, d1): select class s is supported when data input d_s and
/// the output share a class; the deselected data input is then free.
void narrow_mux(ClassMasks& out, std::span<ClassMasks> ins) {
  assert(ins.size() == 3);
  const ClassMasks s = ins[0], d0 = ins[1], d1 = ins[2], o = out;
  const std::uint64_t via0 =
      s.can[0] & ((d0.can[0] & o.can[0]) | (d0.can[1] & o.can[1]));
  const std::uint64_t via1 =
      s.can[1] & ((d1.can[0] & o.can[0]) | (d1.can[1] & o.can[1]));
  ins[0].can = {via0, via1};
  for (std::size_t v = 0; v < 2; ++v) {
    ins[1].can[v] = d0.can[v] & ((s.can[0] & o.can[v]) | via1);
    ins[2].can[v] = d1.can[v] & ((s.can[1] & o.can[v]) | via0);
    out.can[v] = o.can[v] & ((s.can[0] & d0.can[v]) | (s.can[1] & d1.can[v]));
  }
}

/// The 64-lane probe engine: per-net class masks, the LevelPlan slot
/// tables, and a queue of slots drained lowest slot first (so level by
/// level, in topological order within a level). Between batches every mask
/// is top; a batch resets only the nets it touched.
class LaneProbes {
 public:
  explicit LaneProbes(const Circuit& c)
      : masks_(c.num_nets()), touched_bit_(c.num_nets()) {
    plan_.build(c, longest_path_levels(c));
    const std::size_t slots = plan_.out_net.size();
    queued_.assign((slots + 63) / 64, 0);
    lo_word_ = queued_.size();
    // Net -> slots (its driver's and its fanouts'), CSR.
    net_slot_begin_.assign(c.num_nets() + 1, 0);
    for (std::size_t s = 0; s < slots; ++s) {
      ++net_slot_begin_[plan_.out_net[s] + 1];
      for (const std::uint32_t in : slot_ins(s)) ++net_slot_begin_[in + 1];
    }
    for (std::size_t n = 0; n < c.num_nets(); ++n) {
      net_slot_begin_[n + 1] += net_slot_begin_[n];
    }
    net_slots_.resize(net_slot_begin_.back());
    std::vector<std::uint32_t> fill(net_slot_begin_.begin(),
                                    net_slot_begin_.end() - 1);
    for (std::size_t s = 0; s < slots; ++s) {
      const auto slot = static_cast<std::uint32_t>(s);
      net_slots_[fill[plan_.out_net[s]]++] = slot;
      for (const std::uint32_t in : slot_ins(s)) net_slots_[fill[in]++] = slot;
    }
  }

  /// Probes both classes of nets first .. first+count-1 (count <= 32):
  /// lane 2i restricts net first+i to class 0, lane 2i+1 to class 1, and
  /// the drain runs every lane to its fixpoint. Returns the gate
  /// evaluations it took.
  std::uint64_t run(std::size_t first, std::size_t count) {
    assert(count <= kLanes / 2);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t y = static_cast<std::uint32_t>(first + i);
      ClassMasks m = masks_[y];
      m.can[1] &= ~(std::uint64_t{1} << (2 * i));
      m.can[0] &= ~(std::uint64_t{1} << (2 * i + 1));
      commit(y, m, kNoSlot);
    }
    std::uint64_t evals = 0;
    std::array<ClassMasks, kMaxGateFanin> ins;
    for (;;) {
      while (lo_word_ < queued_.size() && queued_[lo_word_] == 0) ++lo_word_;
      if (lo_word_ == queued_.size()) break;
      std::uint64_t& w = queued_[lo_word_];
      const std::uint32_t s =
          static_cast<std::uint32_t>(lo_word_ * 64 + std::countr_zero(w));
      w &= w - 1;
      ++evals;
      const std::span<const std::uint32_t> in_net = slot_ins(s);
      const std::size_t arity = in_net.size();
      for (std::size_t k = 0; k < arity; ++k) ins[k] = masks_[in_net[k]];
      ClassMasks out = masks_[plan_.out_net[s]];
      narrow_gate_classes(plan_.type[s], out,
                          std::span<ClassMasks>(ins.data(), arity));
      commit(plan_.out_net[s], out, s);
      for (std::size_t k = 0; k < arity; ++k) commit(in_net[k], ins[k], s);
    }
    std::sort(touched_.begin(), touched_.end());
    return evals;
  }

  /// Lanes in which some net lost both classes.
  [[nodiscard]] std::uint64_t dead() const { return dead_; }

  /// Calls `f(lane, literal)` for every net other than the lane's own
  /// probed net that a live lane collapsed to one class, by ascending net.
  template <class F>
  void for_each_collapsed(std::size_t first, std::size_t count,
                          F&& f) const {
    for (const std::uint32_t x : touched_) {
      const ClassMasks m = masks_[x];
      std::uint64_t single = (m.can[0] ^ m.can[1]) & ~dead_;
      if (x >= first && x < first + count) {
        single &= ~(std::uint64_t{3} << (2 * (x - first)));
      }
      for (; single != 0; single &= single - 1) {
        const int lane = std::countr_zero(single);
        f(static_cast<std::size_t>(lane),
          2 * x + static_cast<std::uint32_t>((m.can[1] >> lane) & 1));
      }
    }
  }

  /// Resets the nets the batch touched to top.
  void reset() {
    for (const std::uint32_t x : touched_) {
      masks_[x] = ClassMasks{};
      touched_bit_.reset(x);
    }
    touched_.clear();
    dead_ = 0;
  }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  [[nodiscard]] std::span<const std::uint32_t> slot_ins(std::size_t s) const {
    return {plan_.ins_net.data() + plan_.ins_offset[s],
            plan_.ins_net.data() + plan_.ins_offset[s + 1]};
  }

  /// Intersects net `n`'s masks with `m`. A live lane's change schedules
  /// every gate of `n` except slot `from`: one application of a gate rule
  /// leaves the gate at its own fixpoint in every live lane, and for these
  /// rules that holds also when the gate reads `n` on two pins.
  void commit(std::uint32_t n, const ClassMasks& m, std::uint32_t from) {
    ClassMasks& cur = masks_[n];
    const ClassMasks next{{cur.can[0] & m.can[0], cur.can[1] & m.can[1]}};
    const std::uint64_t lost =
        (cur.can[0] ^ next.can[0]) | (cur.can[1] ^ next.can[1]);
    if (lost == 0) return;
    cur = next;
    if (!touched_bit_.test_set(n)) touched_.push_back(n);
    dead_ |= ~(next.can[0] | next.can[1]);
    if ((lost & ~dead_) == 0) return;
    for (std::uint32_t i = net_slot_begin_[n]; i < net_slot_begin_[n + 1];
         ++i) {
      const std::uint32_t s = net_slots_[i];
      if (s == from) continue;
      queued_[s >> 6] |= std::uint64_t{1} << (s & 63);
      lo_word_ = std::min<std::size_t>(lo_word_, s >> 6);
    }
  }

  LevelPlan plan_;
  std::vector<std::uint32_t> net_slot_begin_;
  std::vector<std::uint32_t> net_slots_;
  std::vector<ClassMasks> masks_;
  std::vector<std::uint32_t> touched_;
  BitPlane touched_bit_;
  std::vector<std::uint64_t> queued_;  // one bit per slot
  std::size_t lo_word_ = 0;           // no queued slot below this word
  std::uint64_t dead_ = 0;
};

}  // namespace

void narrow_gate_classes(GateType type, ClassMasks& out,
                         std::span<ClassMasks> ins) {
  assert(ins.size() <= kMaxGateFanin);
  switch (type) {
    case GateType::kAnd:
    case GateType::kNand:
    case GateType::kOr:
    case GateType::kNor:
      narrow_controlling(controlling_value(type), inversion(type), out, ins);
      return;
    case GateType::kXor:
    case GateType::kXnor:
      narrow_parity(inversion(type), out, ins);
      return;
    case GateType::kMux:
      narrow_mux(out, ins);
      return;
    case GateType::kNot:
    case GateType::kBuf:
    case GateType::kDelay: {
      const bool inv = inversion(type);
      const ClassMasks in = ins[0];
      for (std::size_t v = 0; v < 2; ++v) {
        const std::size_t u = inv ? 1 - v : v;
        ins[0].can[v] &= out.can[u];
        out.can[u] &= in.can[v];
      }
      return;
    }
  }
}

LearningResult learn_implications(const Circuit& c,
                                  const LearningOptions& opt) {
  LearningResult res;
  if (c.num_nets() > opt.max_nets) return res;

  LaneProbes probes(c);
  // Literals (2*net+class) each probe collapsed, sorted per probe: probe
  // literal p owns collapsed[probe_start[p] .. probe_start[p + 1]). Probes
  // run in literal order; literals from `probed` on never ran.
  std::vector<std::uint32_t> collapsed;
  std::vector<std::size_t> probe_start(2 * c.num_nets() + 1, 0);
  std::uint32_t probed = 0;

  // A batch probes nets first .. first+31 in both classes: literals
  // 2*first .. 2*first+63, one lane each, in literal order. The collapsed
  // literals are read twice: once to count them per lane, once to place
  // them.
  bool capped = false;
  for (std::size_t first = 0; first < c.num_nets() && !capped;
       first += kLanes / 2) {
    const std::size_t count = std::min(kLanes / 2, c.num_nets() - first);
    flight::self().tick(probes.run(first, count) + 1);
    const std::uint64_t dead = probes.dead();
    std::array<std::size_t, kLanes> at{};  // per lane: count, then position
    probes.for_each_collapsed(
        first, count, [&](std::size_t lane, std::uint32_t) { ++at[lane]; });
    std::size_t lanes = 2 * count;  // lanes that count as probed
    std::size_t end = collapsed.size();
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      // The cap is tested before each net, as if probing net by net.
      if (lane % 2 == 0 && end >= opt.max_implications) {
        capped = true;
        lanes = lane;
        break;
      }
      const std::uint32_t p = static_cast<std::uint32_t>(2 * first + lane);
      if ((dead >> lane) & 1) {
        res.impossible.emplace_back(NetId{p >> 1}, (p & 1) != 0);
      }
      const std::size_t n = at[lane];
      at[lane] = end;
      end += n;
      probe_start[p + 1] = end;
      probed = p + 1;
    }
    // Grow to powers of two, as push_back does: blocks of other sizes
    // left holes the allocator could not reuse, which raised a serving
    // daemon's peak RSS by about a tenth.
    if (end > collapsed.capacity()) collapsed.reserve(std::bit_ceil(end));
    collapsed.resize(end);
    probes.for_each_collapsed(first, count,
                              [&](std::size_t lane, std::uint32_t lit) {
                                if (lane < lanes) collapsed[at[lane]++] = lit;
                              });
    probes.reset();
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
