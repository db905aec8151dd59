// Incremental dynamic-carrier / timing-dominator cache.
//
// `dynamic_carriers` (Def. 7) and `timing_dominators` (Def. 9) are functions
// of the current abstract-signal domains only; the search loop (case
// analysis, stem correlation) queries them after every decision and every
// backtrack. CarrierCache keeps both materialised and does work in
// proportion to what changed:
//
//  * Carrier repair. The constraint system's `domain_generation()` counter
//    says whether any domain changed since the last query -- equal
//    generations are a pure cache hit. Otherwise the change log
//    (`drain_changed_nets`) yields the nets whose domains narrowed or were
//    restored. A net is re-pulled only when its own Def. 7 status flipped
//    under its current candidate distance, or when a consumer's distance
//    changed; a net whose distance did not move stops the wave. Nets are
//    visited in ascending position of a reverse topological order, where a
//    gate's inputs always sit after its output, so each net is pulled once,
//    after all of its consumers, and the scan only ever extends upward.
//  * Per-level restore. A backtracking search marks its decision levels
//    (`push_level` / `pop_level`). The cache keeps its own trail of the
//    candidate distances and carrier distances it changed in each level,
//    and a snapshot of its dominator state at the push. After `pop_to` the
//    domains equal those at the matching push, and so do the carriers and
//    their dominators: the pop undoes the cache trail and hands back the
//    saved list, with no repair and no dominator computation.
//  * Regional dominator re-test. Between a push and its pop domains only
//    narrow, so carrier distances never rise and carrier membership only
//    shrinks; `timing_dominators` reads membership only. On an induced
//    subgraph every S->T path is an old one, so every old dominator that is
//    still a carrier stays a dominator, and if one left the carrier set no
//    path reaches T any more (the list is {s}). New dominators can appear
//    only between consecutive old dominators d_i, d_{i+1}, and only on
//    every remaining d_i -> d_{i+1} path (T after the last dominator). By
//    Menger's theorem a region has no inner dominator iff it holds two
//    internally disjoint such paths, so each region keeps up to four of
//    them as a certificate. A lost carrier that breaks a certificate path
//    is the only event that can matter; while two paths of a region stand,
//    its dominators are unchanged. A region left with fewer is re-tested
//    alone (CHK with d_i as source and d_{i+1} or T as sink), its new
//    dominators are spliced into the chain, and each resulting region gets
//    a fresh certificate. A full `timing_dominators` run is needed only for
//    the first query and after a net joined the carrier set (a pop the
//    cache was not told about).
//
// The values are bit-for-bit those of the from-scratch functions -- the
// differential fuzz property `cache_equivalence`,
// `tests/carrier_cache_test.cpp`, and, in debug builds, an assertion on
// every dominator query enforce this.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/carriers.hpp"
#include "common/ids.hpp"
#include "common/telemetry.hpp"
#include "constraints/constraint_system.hpp"

namespace waveck {

class CarrierCache {
 public:
  /// Binds to `cs` (kept by reference; must outlive the cache) and turns on
  /// its change log. Construction is cheap; the first `carriers()` /
  /// `dominators()` query pays one full rebuild.
  CarrierCache(ConstraintSystem& cs, const TimingCheck& check);

  CarrierCache(const CarrierCache&) = delete;
  CarrierCache& operator=(const CarrierCache&) = delete;

  /// Current dynamic carriers; identical to `dynamic_carriers(cs, check)`.
  /// The reference stays valid until the next query after a domain change.
  [[nodiscard]] const CarrierSet& carriers();

  /// Current dynamic timing dominators; identical to
  /// `timing_dominators(circuit, check, dynamic_carriers(cs, check))`.
  [[nodiscard]] const std::vector<NetId>& dominators();

  [[nodiscard]] const TimingCheck& check() const { return check_; }

  /// Decision-level marks of a backtracking search: `push_level(m)` right
  /// after `m = cs.push_state()`, `pop_level(m)` right after `cs.pop_to(m)`.
  /// A pop to a marked level restores the cache as it was at that push; a
  /// level stays open after its pop (the search may narrow and pop to it
  /// again), and the levels above it are closed. Unmarked push/pop pairs
  /// (stem correlation's probes) are repaired from the change log like any
  /// narrowing. As with the system's own marks, a level popped past is dead.
  void push_level(ConstraintSystem::Mark mark);
  void pop_level(ConstraintSystem::Mark mark);

 private:
  // One record per dominator region while T is reachable (parallel to
  // `doms_`): the nets of certificate path j carry id `cert + j` in
  // `cert_of_`; `broken` has bit j set once path j lost a net. Ids are
  // never reused, so a stale mark matches no region.
  static constexpr std::uint32_t kCertPaths = 4;
  struct Region {
    std::uint32_t cert;
    std::uint8_t paths;
    std::uint8_t broken;
  };

  void sync();
  void rebuild_full();
  void repair();
  /// Records `n`'s candidate and carrier distance before their first change
  /// in the innermost open level.
  void save(NetId n);
  /// Brings the dominators up to date after nets left the carrier set:
  /// re-tests the regions whose certificate broke (see the file comment).
  void retest_regions();
  /// Sets `doms_` to {s} for a carrier set where no path reaches T.
  void lose_t();
  /// Sets `region_` to the region's carrier nets from `src` toward `sink`
  /// (T when invalid) in ascending position: those reachable from `src`
  /// through nets positioned at most at `sink`.
  void collect_region(NetId src, NetId sink);
  /// A certificate for the region from `src` to `sink` (T when invalid):
  /// up to kCertPaths internally disjoint paths, found by augmenting paths
  /// over the vertex-split carrier DAG, their inner nets marked in
  /// `cert_of_`. Fewer than two paths means the region has an inner
  /// dominator (one) or does not reach its sink (none).
  [[nodiscard]] Region certify(NetId src, NetId sink);
  [[nodiscard]] Time pull_candidate(NetId n) const;
  [[nodiscard]] Time carrier_distance(NetId n, Time cand) const;
  [[nodiscard]] bool finalizable(NetId n) const;

  ConstraintSystem& cs_;
  TimingCheck check_;

  // Cached values: per-net candidate distances (the max over consumers,
  // before the Def. 7 domain test) and the validated carrier set.
  CarrierSet set_;
  std::vector<Time> cand_;
  bool built_ = false;
  std::uint64_t synced_gen_ = 0;

  // Dominator state: `doms_` are the dominators of the carrier set at the
  // last dominator query, `t_reach_` whether a carrier path reached T
  // then. Since that query `lost_` collects the nets that left the carrier
  // set and `gained_` says whether any joined it.
  std::vector<NetId> doms_;
  bool doms_known_ = false;
  bool t_reach_ = false;
  bool gained_ = false;
  std::vector<NetId> lost_;

  // Region records (see Region) and each net's certificate mark.
  std::vector<Region> regions_;
  std::vector<std::uint32_t> cert_of_;
  std::uint32_t next_cert_ = 1;

  // Net processing order: gate outputs in reverse topological order, then
  // the undriven nets. Processing in this order guarantees every consumer
  // gate's output distance is final before its inputs are pulled.
  std::vector<NetId> order_;
  std::vector<std::uint32_t> net_pos_;

  // Decision levels and the cache's trail. An entry holds a net's values
  // before their first change in a level; `save_epoch_` dedupes per level
  // exactly like the constraint system's trail. A level's snapshot of the
  // dominator state (`doms_` then `lost_`, and `regions_`) lives in
  // `saved_` and `saved_regions_`.
  struct Level {
    ConstraintSystem::Mark mark;
    std::size_t trail_pos;
    std::size_t saved_pos;
    std::size_t saved_regions_pos;
    std::uint32_t n_doms;
    std::uint32_t n_lost;
    std::uint32_t n_regions;
    bool doms_known;
    bool t_reach;
    bool gained;
  };
  struct TrailEntry {
    NetId net;
    std::uint32_t cert;
    Time cand;
    Time distance;
    std::uint64_t old_epoch;
  };
  std::vector<Level> levels_;
  std::vector<TrailEntry> trail_;
  std::vector<NetId> saved_;
  std::vector<Region> saved_regions_;
  std::vector<std::uint64_t> save_epoch_;
  std::uint64_t epoch_ = 0;
  std::uint64_t epoch_counter_ = 0;

  // Scratch for the incremental passes.
  std::vector<NetId> flips_;
  std::vector<std::uint8_t> dirty_;
  std::vector<std::uint8_t> hit_;
  std::vector<std::uint32_t> seen_;
  std::uint32_t seen_gen_ = 0;
  std::vector<NetId> region_;
  std::vector<NetId> spliced_;
  std::vector<Region> spliced_regions_;
  DominatorScratch dom_scratch_;
  // Certificate search, indexed by net (T one past the last): the flow's
  // successor and predecessor per vertex (none between searches), the
  // flow's edges, and the depth-first search over the split nodes 2v (in)
  // and 2v+1 (out).
  std::vector<std::uint32_t> fnext_;
  std::vector<std::uint32_t> fprev_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> flow_;
  std::vector<std::uint32_t> visited_;
  std::uint32_t visit_gen_ = 0;
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> stack_;

  // Returned for inconsistent systems: no sigma-compatible waveform exists,
  // so the carrier set is empty (matches the from-scratch functions). The
  // cache state is left untouched -- the log is drained on the next
  // consistent query, typically right after a `pop_to`.
  CarrierSet bottom_set_;
  std::vector<NetId> empty_doms_;

  telemetry::Counter& ctr_hits_;
  telemetry::Counter& ctr_misses_;
  telemetry::Counter& ctr_repulled_;
  telemetry::Counter& ctr_dom_rebuilds_;
  telemetry::Counter& ctr_dom_retests_;
  telemetry::Counter& ctr_dom_restores_;
};

/// Corollary 1 round backed by the cache; `cache == nullptr` falls back to
/// the from-scratch `apply_dominator_implications(cs, check)`. Produces the
/// identical domain narrowings either way.
std::size_t apply_dominator_implications(ConstraintSystem& cs,
                                         const TimingCheck& check,
                                         CarrierCache* cache);

}  // namespace waveck
