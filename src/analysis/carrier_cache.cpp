#include "analysis/carrier_cache.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/flight_recorder.hpp"

namespace waveck {

CarrierCache::CarrierCache(ConstraintSystem& cs, const TimingCheck& check)
    : cs_(cs),
      check_(check),
      ctr_hits_(telemetry::Registry::current().counter("cache.hits")),
      ctr_misses_(telemetry::Registry::current().counter("cache.misses")),
      ctr_repulled_(
          telemetry::Registry::current().counter("cache.nets_repulled")),
      ctr_dom_rebuilds_(
          telemetry::Registry::current().counter("cache.dom_rebuilds")),
      ctr_dom_retests_(
          telemetry::Registry::current().counter("cache.dom_retests")),
      ctr_dom_restores_(
          telemetry::Registry::current().counter("cache.dom_restores")) {
  cs_.enable_change_log();
  const Circuit& c = cs_.circuit();
  order_.reserve(c.num_nets());
  const auto& topo = c.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    order_.push_back(c.gate(*it).out);
  }
  for (std::size_t i = 0; i < c.num_nets(); ++i) {
    const NetId n{static_cast<std::uint32_t>(i)};
    if (!c.net(n).driver.valid()) order_.push_back(n);
  }
  assert(order_.size() == c.num_nets());
  net_pos_.assign(c.num_nets(), 0);
  for (std::size_t i = 0; i < order_.size(); ++i) {
    net_pos_[order_[i].index()] = static_cast<std::uint32_t>(i);
  }
  dirty_.assign(c.num_nets(), 0);
  cert_of_.assign(c.num_nets(), 0);
  bottom_set_.distance.assign(c.num_nets(), Time::neg_inf());
}

bool CarrierCache::finalizable(NetId n) const {
  // Matches which nets `dynamic_carriers` ever validates: gate outputs,
  // declared primary inputs, and the checked output itself (degenerate
  // input-as-output netlists from the fuzz shrinker).
  const Net& net = cs_.circuit().net(n);
  return net.driver.valid() || net.is_primary_input || n == check_.output;
}

Time CarrierCache::carrier_distance(NetId n, Time cand) const {
  if (cand == Time::neg_inf() || !finalizable(n)) return Time::neg_inf();
  assert(check_.delta.is_finite() && cand.is_finite());
  const Time bound = Time(check_.delta.value() - cand.value());
  return cs_.domain(n).has_transition_at_or_after(bound) ? cand
                                                          : Time::neg_inf();
}

Time CarrierCache::pull_candidate(NetId n) const {
  const Circuit& c = cs_.circuit();
  Time cand = n == check_.output ? Time(0) : Time::neg_inf();
  for (GateId gid : c.net(n).fanouts) {
    const Gate& g = c.gate(gid);
    const Time k = set_.distance[g.out.index()];
    if (k == Time::neg_inf()) continue;
    cand = Time::max(cand, k + g.delay.dmax);
  }
  return cand;
}

void CarrierCache::rebuild_full() {
  const Circuit& c = cs_.circuit();
  set_.distance.assign(c.num_nets(), Time::neg_inf());
  cand_.assign(c.num_nets(), Time::neg_inf());
  for (NetId n : order_) {
    const Time cand = pull_candidate(n);
    cand_[n.index()] = cand;
    set_.distance[n.index()] = carrier_distance(n, cand);
  }
  doms_known_ = false;
}

void CarrierCache::save(NetId n) {
  if (levels_.empty()) return;
  if (save_epoch_.empty()) save_epoch_.assign(order_.size(), 0);
  std::uint64_t& e = save_epoch_[n.index()];
  if (e == epoch_) return;
  trail_.push_back(
      {n, cert_of_[n.index()], cand_[n.index()], set_.distance[n.index()], e});
  e = epoch_;
}

void CarrierCache::repair() {
  const Circuit& c = cs_.circuit();
  // Event-driven: a net is re-pulled only when its own Def. 7 status
  // flipped or a consumer's distance changed. Nets are visited in ascending
  // `order_` position; a gate's inputs sit after its output there, so every
  // consumer is final before its inputs are pulled, and marking those inputs
  // only ever extends the scan's upper end.
  std::uint32_t lo = UINT32_MAX;
  std::uint32_t hi = 0;
  auto mark = [&](NetId n) {
    std::uint8_t& f = dirty_[n.index()];
    if (f != 0) return;
    f = 1;
    const std::uint32_t p = net_pos_[n.index()];
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  };
  for (NetId n : flips_) mark(n);
  std::uint64_t pulled = 0;
  for (std::uint32_t p = lo; p <= hi; ++p) {
    const NetId n = order_[p];
    if (dirty_[n.index()] == 0) continue;
    dirty_[n.index()] = 0;
    ++pulled;
    const Time cand = pull_candidate(n);
    const Time od = set_.distance[n.index()];
    const Time nd = carrier_distance(n, cand);
    if (cand == cand_[n.index()] && nd == od) continue;
    save(n);
    cand_[n.index()] = cand;
    if (nd == od) continue;
    set_.distance[n.index()] = nd;
    // Membership changes for the dominators: a net that joins the carrier
    // set forces a full recompute, so the lost nets stop mattering (and,
    // with no net joining, each net is lost at most once).
    if (od == Time::neg_inf()) {
      gained_ = true;
      lost_.clear();
    } else if (nd == Time::neg_inf() && !gained_) {
      lost_.push_back(n);
    }
    const GateId drv = c.net(n).driver;
    if (!drv.valid()) continue;
    for (NetId in : c.gate(drv).ins) mark(in);
  }
  ctr_repulled_.add(pulled);
}

void CarrierCache::sync() {
  const std::uint64_t gen = cs_.domain_generation();
  if (!built_) {
    cs_.drain_changed_nets([](NetId) {});
    rebuild_full();
    built_ = true;
    synced_gen_ = gen;
    ctr_misses_.inc();
    flight::record(flight::Kind::kCache, {}, 0, 0, flight::kMiss);
    return;
  }
  if (synced_gen_ == gen) {
    ctr_hits_.inc();
    flight::record(flight::Kind::kCache, {}, 0, 0, flight::kHit);
    return;
  }
  // A domain change matters only if it flips the Def. 7 status under the
  // net's current candidate distance; candidate distances themselves only
  // move when a downstream status flips.
  flips_.clear();
  cs_.drain_changed_nets([&](NetId n) {
    if (carrier_distance(n, cand_[n.index()]) != set_.distance[n.index()]) {
      flips_.push_back(n);
    }
  });
  synced_gen_ = gen;
  if (flips_.empty()) {
    ctr_hits_.inc();
    flight::record(flight::Kind::kCache, {}, 0, 0, flight::kHit);
    return;
  }
  ctr_misses_.inc();
  flight::record(flight::Kind::kCache, {}, 0, 0, flight::kMiss);
  repair();
}

const CarrierSet& CarrierCache::carriers() {
  // An inconsistent system has no sigma-compatible waveform anywhere; the
  // cached state is deliberately left alone (not even the log is drained)
  // so the next consistent query -- typically right after `pop_to` -- sees
  // every restore.
  if (cs_.inconsistent()) return bottom_set_;
  sync();
  return set_;
}

const std::vector<NetId>& CarrierCache::dominators() {
  if (cs_.inconsistent()) return empty_doms_;
  sync();
  if (!doms_known_ || gained_) {
    doms_ = timing_dominators(cs_.circuit(), check_, set_, dom_scratch_,
                              t_reach_);
    ctr_dom_rebuilds_.inc();
    flight::record(flight::Kind::kCache, {}, 0, 0, flight::kDomRebuild);
    // Regions start uncertified; one is certified when it first loses a
    // carrier, so checks that never get there pay nothing for it.
    regions_.assign(t_reach_ ? doms_.size() : 0, Region{0, 0, 0});
  } else if (!lost_.empty()) {
    retest_regions();
  }
  doms_known_ = true;
  gained_ = false;
  lost_.clear();
  assert(doms_ == timing_dominators(cs_.circuit(), check_, set_));
  return doms_;
}

void CarrierCache::lose_t() {
  doms_.assign(1, check_.output);
  t_reach_ = false;
  regions_.clear();
}

void CarrierCache::retest_regions() {
  if (!set_.is_carrier(check_.output)) {
    doms_.clear();
    t_reach_ = false;
    regions_.clear();
    return;
  }
  // No carrier path reached T, and carriers only shrank since: none does.
  if (!t_reach_) return;
  // Every carrier but s sits after s in `order_`, and so do the dominators
  // along their chain: a lost net lies in the region of the last dominator
  // positioned before it, or is a dominator itself.
  const auto before = [&](std::uint32_t p, NetId d) {
    return p < net_pos_[d.index()];
  };
  hit_.assign(doms_.size(), 0);
  for (NetId x : lost_) {
    const std::uint32_t p = net_pos_[x.index()];
    const auto it = std::upper_bound(doms_.begin(), doms_.end(), p, before);
    assert(it != doms_.begin());
    const auto i = static_cast<std::size_t>(it - doms_.begin()) - 1;
    if (doms_[i] == x) {
      lose_t();
      return;
    }
    hit_[i] = 1;
    Region& r = regions_[i];
    const std::uint32_t j = cert_of_[x.index()] - r.cert;
    if (j < r.paths) r.broken |= static_cast<std::uint8_t>(1u << j);
  }
  const Circuit& c = cs_.circuit();
  spliced_.clear();
  spliced_regions_.clear();
  for (std::size_t i = 0; i < doms_.size(); ++i) {
    const Region r = regions_[i];
    const unsigned standing = std::popcount(
        static_cast<unsigned>(~r.broken & ((1u << r.paths) - 1)));
    if (hit_[i] == 0 || standing >= 2) {
      spliced_.push_back(doms_[i]);
      spliced_regions_.push_back(r);
      continue;
    }
    // A fresh certificate with two paths proves the region still has no
    // inner dominator; with one, the region is re-tested by CHK and split
    // at its new dominators; with none, no path reaches T.
    const NetId end = i + 1 < doms_.size() ? doms_[i + 1] : NetId{};
    const Region fresh = certify(doms_[i], end);
    if (fresh.paths >= 2) {
      spliced_.push_back(doms_[i]);
      spliced_regions_.push_back(fresh);
      continue;
    }
    if (fresh.paths == 0) {
      lose_t();
      return;
    }
    ctr_dom_retests_.inc();
    const std::size_t first = spliced_.size();
    collect_region(doms_[i], end);
    const bool reached =
        dominator_chain(c, region_, !end.valid(), dom_scratch_, spliced_);
    assert(reached);
    (void)reached;
    for (std::size_t k = first; k < spliced_.size(); ++k) {
      const NetId next = k + 1 < spliced_.size() ? spliced_[k + 1] : end;
      spliced_regions_.push_back(certify(spliced_[k], next));
    }
  }
  doms_.swap(spliced_);
  regions_.swap(spliced_regions_);
}

void CarrierCache::collect_region(NetId src, NetId sink) {
  const Circuit& c = cs_.circuit();
  if (seen_.empty()) seen_.assign(c.num_nets(), 0);
  if (++seen_gen_ == 0) {
    std::fill(seen_.begin(), seen_.end(), 0);
    seen_gen_ = 1;
  }
  const std::uint32_t limit =
      sink.valid() ? net_pos_[sink.index()] : UINT32_MAX;
  region_.clear();
  seen_[src.index()] = seen_gen_;
  // Ascending positions are a topological order of the carrier DAG, and a
  // net's carrier inputs sit after it: marking them as the scan reaches
  // each reachable net finds exactly the reachable ones.
  for (std::uint32_t p = net_pos_[src.index()];
       p < order_.size() && p <= limit; ++p) {
    const NetId y = order_[p];
    if (seen_[y.index()] != seen_gen_) continue;
    region_.push_back(y);
    const GateId drv = c.net(y).driver;
    if (y == sink || !drv.valid()) continue;
    for (NetId x : c.gate(drv).ins) {
      if (set_.is_carrier(x) && net_pos_[x.index()] <= limit) {
        seen_[x.index()] = seen_gen_;
      }
    }
  }
}

CarrierCache::Region CarrierCache::certify(NetId src, NetId sink) {
  const Circuit& c = cs_.circuit();
  constexpr std::uint32_t kNone = UINT32_MAX;
  const bool to_t = !sink.valid();
  // Vertices are net indices; T is one past the last net.
  const auto t_vert = static_cast<std::uint32_t>(c.num_nets());
  const std::uint32_t s = src.value();
  const std::uint32_t t = to_t ? t_vert : sink.value();
  const std::uint32_t limit = to_t ? UINT32_MAX : net_pos_[sink.index()];
  if (fnext_.empty()) {
    fnext_.assign(c.num_nets() + 1, kNone);
    fprev_.assign(c.num_nets() + 1, kNone);
    visited_.assign(2 * (c.num_nets() + 1), 0);
    parent_.assign(2 * (c.num_nets() + 1), 0);
  }
  Region r{next_cert_, 0, 0};
  next_cert_ += kCertPaths;
  // An edge straight from source to sink: no inner vertex can ever lie on
  // every path. Two paths stand for good.
  const GateId src_drv = c.net(src).driver;
  const bool direct =
      src_drv.valid() ? !to_t && std::ranges::find(c.gate(src_drv).ins,
                                                   sink) !=
                                     c.gate(src_drv).ins.end()
                      : to_t;
  if (direct) {
    r.paths = 2;
    return r;
  }
  // Out-neighbours of net v in the region: the carrier inputs of its
  // driver positioned at most at the sink, or T for an undriven net.
  const auto for_each_out = [&](std::uint32_t v, auto&& f) {
    const GateId drv = c.net(NetId{v}).driver;
    if (!drv.valid()) {
      if (to_t) f(t);
      return;
    }
    for (NetId x : c.gate(drv).ins) {
      if (set_.is_carrier(x) && net_pos_[x.index()] <= limit) f(x.value());
    }
  };
  // Unit vertex capacities: an inner vertex on a path has one flow
  // successor and predecessor; edge (u, w) carries flow iff fprev_[w] == u
  // (fnext_[u] == t for edges into the sink).
  const auto used = [&](std::uint32_t u, std::uint32_t w) {
    return w == t ? fnext_[u] == t : fprev_[w] == u;
  };
  flow_.clear();
  for (; r.paths < kCertPaths; ++r.paths) {
    // Depth-first search for an augmenting path over the split nodes 2v
    // (in) and 2v+1 (out) of the residual graph.
    if (++visit_gen_ == 0) {
      std::fill(visited_.begin(), visited_.end(), 0);
      visit_gen_ = 1;
    }
    const auto visit = [&](std::uint32_t node, std::uint32_t from) {
      if (visited_[node] == visit_gen_) return;
      visited_[node] = visit_gen_;
      parent_[node] = from;
      stack_.push_back(node);
    };
    stack_.clear();
    visit(2 * s + 1, 2 * s + 1);
    bool found = false;
    while (!stack_.empty() && !found) {
      const std::uint32_t node = stack_.back();
      stack_.pop_back();
      const std::uint32_t v = node >> 1;
      if ((node & 1) != 0) {
        for_each_out(v, [&](std::uint32_t w) {
          if (!used(v, w)) visit(2 * w, node);
        });
        if (v != s && fnext_[v] != kNone) visit(2 * v, node);
      } else if (v == t) {
        found = true;
      } else if (fnext_[v] == kNone) {
        visit(2 * v + 1, node);
      } else {
        visit(2 * fprev_[v] + 1, node);  // cancel the flow into v
      }
    }
    if (!found) break;
    // Augment: forward arcs add flow edges, backward ones cancel them.
    for (const auto& [u, w] : flow_) fnext_[u] = fprev_[w] = kNone;
    for (std::uint32_t node = 2 * t; node != 2 * s + 1;) {
      const std::uint32_t from = parent_[node];
      const std::uint32_t u = from >> 1;
      const std::uint32_t w = node >> 1;
      if (u != w) {
        if ((from & 1) != 0) {
          flow_.emplace_back(u, w);
        } else {
          std::erase(flow_, std::make_pair(w, u));
        }
      }
      node = from;
    }
    for (const auto& [u, w] : flow_) {
      fnext_[u] = w;
      fprev_[w] = u;
    }
  }
  // Mark each path's inner nets with its id, then clear the flow.
  std::uint32_t j = 0;
  for (const auto& [u, w] : flow_) {
    if (u != s) continue;
    for (std::uint32_t v = w; v != t; v = fnext_[v]) {
      const NetId n{v};
      save(n);
      cert_of_[n.index()] = r.cert + j;
    }
    ++j;
  }
  for (const auto& [u, w] : flow_) fnext_[u] = fprev_[w] = kNone;
  return r;
}

void CarrierCache::push_level(ConstraintSystem::Mark mark) {
  // A level at or above `mark` was popped past without a mark of its own.
  while (!levels_.empty() && levels_.back().mark >= mark) levels_.pop_back();
  if (levels_.empty()) {
    trail_.clear();
    saved_.clear();
    saved_regions_.clear();
  } else {
    const Level& l = levels_.back();
    saved_.resize(l.saved_pos + l.n_doms + l.n_lost);
    saved_regions_.resize(l.saved_regions_pos + l.n_regions);
  }
  // The trail holds changes made after the push, so the cache must already
  // reflect the domains at the push (it does whenever a query just ran).
  if (!built_ || synced_gen_ != cs_.domain_generation()) sync();
  levels_.push_back({mark, trail_.size(), saved_.size(),
                     saved_regions_.size(),
                     static_cast<std::uint32_t>(doms_.size()),
                     static_cast<std::uint32_t>(lost_.size()),
                     static_cast<std::uint32_t>(regions_.size()), doms_known_,
                     t_reach_, gained_});
  saved_.insert(saved_.end(), doms_.begin(), doms_.end());
  saved_.insert(saved_.end(), lost_.begin(), lost_.end());
  saved_regions_.insert(saved_regions_.end(), regions_.begin(),
                        regions_.end());
  epoch_ = ++epoch_counter_;
}

void CarrierCache::pop_level(ConstraintSystem::Mark mark) {
  while (!levels_.empty() && levels_.back().mark > mark) levels_.pop_back();
  epoch_ = ++epoch_counter_;
  if (levels_.empty() || levels_.back().mark != mark) {
    // Not a marked level: the change log repairs the pop like a narrowing,
    // and the closed levels' entries stay with the enclosing level.
    if (levels_.empty()) {
      trail_.clear();
      saved_.clear();
      saved_regions_.clear();
    }
    return;
  }
  const Level& l = levels_.back();
  while (trail_.size() > l.trail_pos) {
    const TrailEntry& e = trail_.back();
    cert_of_[e.net.index()] = e.cert;
    cand_[e.net.index()] = e.cand;
    set_.distance[e.net.index()] = e.distance;
    save_epoch_[e.net.index()] = e.old_epoch;
    trail_.pop_back();
  }
  const auto snap = saved_.begin() + static_cast<std::ptrdiff_t>(l.saved_pos);
  doms_.assign(snap, snap + l.n_doms);
  lost_.assign(snap + l.n_doms, snap + l.n_doms + l.n_lost);
  saved_.resize(l.saved_pos + l.n_doms + l.n_lost);
  const auto rsnap =
      saved_regions_.begin() + static_cast<std::ptrdiff_t>(l.saved_regions_pos);
  regions_.assign(rsnap, rsnap + l.n_regions);
  saved_regions_.resize(l.saved_regions_pos + l.n_regions);
  doms_known_ = l.doms_known;
  t_reach_ = l.t_reach;
  gained_ = l.gained;
  // Every net the log names is back at its value at the push, where the
  // cache was in sync.
  cs_.drain_changed_nets([](NetId) {});
  synced_gen_ = cs_.domain_generation();
  ctr_dom_restores_.inc();
}

std::size_t apply_dominator_implications(ConstraintSystem& cs,
                                         const TimingCheck& check,
                                         CarrierCache* cache) {
  if (cache == nullptr) return apply_dominator_implications(cs, check);
  if (cs.inconsistent()) return 0;
  const std::vector<NetId>& doms = cache->dominators();
  return apply_dominator_restrictions(cs, check, cache->carriers(), doms);
}

}  // namespace waveck
