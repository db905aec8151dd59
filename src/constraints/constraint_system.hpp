// Event-driven constraint system over abstract signals (paper Section 3.3).
//
// One variable per net, one relational constraint per gate. The variable
// store is data-oriented: four flat int64 bound planes indexed by NetId
// (SoaDomain) plus bit planes for the in-queue and changed-net flags. The
// drain evaluates one topological level at a time (a level sweep over the
// LevelPlan slots, level_kernel.hpp), each scheduled gate with the exact
// per-gate projection `project_gate`. All narrowing funnels through one
// commit path (`commit_domain`), which keeps the trail, scheduling,
// learning and telemetry semantics in one place; the greatest fixpoint is
// order-independent (Theorem 1), so canonical results cannot depend on the
// sweep order.
//
// `reach_fixpoint` repeatedly applies scheduled gate constraints until no
// domain narrows -- the greatest fixpoint. Selective state saving (a trail
// of old plane values) supports the backtracking needed by stem correlation
// and case analysis.
//
// Learned class implications (Section 4, static learning) hook in through
// an ImplicationTable: whenever a net's domain collapses to a single final
// class, the table's consequences are applied as further restrictions.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/bitplane.hpp"
#include "common/ids.hpp"
#include "common/telemetry.hpp"
#include "constraints/level_kernel.hpp"
#include "constraints/soa_domain.hpp"
#include "netlist/circuit.hpp"
#include "waveform/abstract_waveform.hpp"

namespace waveck {

/// Class implications (y = v) => (x = w), stored per literal 2*net+class in
/// CSR form: `offsets_[l]..offsets_[l+1]` indexes the consequences of
/// literal l in one flat array. Built once from the implications in
/// discovery order and immutable afterwards, so concurrent readers (the
/// scheduler's and the daemon's workers) need no synchronisation.
class ImplicationTable {
 public:
  struct Consequence {
    NetId net;
    bool cls;
  };
  struct Implication {
    NetId net;  // antecedent y = cls
    bool cls;
    Consequence then;
  };

  ImplicationTable() = default;
  /// Groups `implications` by antecedent with one stable counting sort:
  /// each literal keeps its consequences in the order given. Every net must
  /// be below `num_nets`.
  ImplicationTable(std::size_t num_nets,
                   std::span<const Implication> implications);

  [[nodiscard]] std::span<const Consequence> of(NetId y, bool v) const {
    const std::size_t l = literal(y, v);
    if (l + 1 >= offsets_.size()) return {};
    return {consequences_.data() + offsets_[l],
            consequences_.data() + offsets_[l + 1]};
  }
  [[nodiscard]] std::size_t size() const { return consequences_.size(); }

  [[nodiscard]] static std::size_t literal(NetId y, bool v) {
    return 2 * std::size_t{y.value()} + (v ? 1 : 0);
  }

 private:
  std::vector<std::size_t> offsets_;  // 2 * num_nets + 1, or empty
  std::vector<Consequence> consequences_;
};

class ConstraintSystem final {
 public:
  enum class Status : std::uint8_t {
    kPossibleViolation,  // fixpoint reached with consistent domains
    kNoViolation,        // some domain emptied: no sigma-compatible waveform
  };

  /// Binds to `circuit` (kept by reference; must outlive the system). All
  /// domains start at top.
  explicit ConstraintSystem(const Circuit& circuit);

  [[nodiscard]] const Circuit& circuit() const { return circuit_; }

  // ----- domains ------------------------------------------------------------
  /// The net's abstract signal, assembled from the SoA planes (by value:
  /// the planes are the store, there is no per-net object to reference).
  [[nodiscard]] AbstractSignal domain(NetId n) const {
    return domains_.get(n);
  }
  /// Direct plane view for batch consumers (carrier sweeps, tests).
  [[nodiscard]] const SoaDomain& soa() const { return domains_; }
  /// AbstractSignal::has_transition_at_or_after without reassembling the
  /// signal — the Def. 7 dynamic-carrier test, straight off the planes.
  [[nodiscard]] bool has_transition_at_or_after(NetId n, Time t) const {
    return domains_.has_transition_at_or_after(n.index(), t);
  }
  /// Intersects the domain of `n` with `with`, recording the trail entry and
  /// scheduling affected constraints. Returns true if the domain narrowed.
  bool restrict_domain(NetId n, const AbstractSignal& with);

  [[nodiscard]] bool inconsistent() const { return bottom_count_ > 0; }
  [[nodiscard]] std::size_t bottom_count() const { return bottom_count_; }

  // ----- scheduling / solving -------------------------------------------------
  void schedule_gate(GateId g);
  /// Schedules the driver and every fanout constraint of `n`.
  void schedule_net(NetId n);
  void schedule_all();
  void clear_queue();

  /// Paper Figure 4 `reach_fixpoint`: drains the event queue, one level
  /// sweep at a time. Returns kNoViolation iff some domain emptied
  /// (Theorem 2 generalised to any net).
  Status reach_fixpoint();

  // ----- backtracking ------------------------------------------------------------
  using Mark = std::size_t;
  /// Opens a new restorable state (decision level). Returns the mark to pass
  /// to `pop_to`.
  Mark push_state();
  /// Restores all domains to their values at `mark` and clears the queue.
  void pop_to(Mark mark);
  [[nodiscard]] std::size_t trail_size() const { return trail_.size(); }
  /// Net recorded at trail position `i` (allocation-free alternative to
  /// `changed_since` for scanning a trail suffix in place).
  [[nodiscard]] NetId trail_net(std::size_t i) const { return trail_[i].net; }
  /// Nets whose domains changed since `mark`. Each net appears once per
  /// decision level it was first touched in (exactly once when no nested
  /// `push_state` happened after `mark`).
  [[nodiscard]] std::vector<NetId> changed_since(Mark mark) const;

  // ----- learning hook -----------------------------------------------------------
  /// Attaches a table of learned class implications (may be null). Not
  /// owned; must outlive the system.
  void set_implications(const ImplicationTable* table) { implications_ = table; }

  // ----- incremental-analysis support ----------------------------------------
  /// Monotone domain-state generation: bumped on every committed narrowing
  /// and on every `pop_to` restore. Two equal generations guarantee the
  /// domains are unchanged in between — the key an incremental consumer
  /// (CarrierCache) uses to skip resynchronisation entirely.
  [[nodiscard]] std::uint64_t domain_generation() const { return domain_gen_; }
  /// Turns on the change log drained by `drain_changed_nets`. Off by
  /// default so systems without an incremental consumer pay nothing.
  void enable_change_log();
  /// Hands every net whose domain may have changed (narrowed by
  /// `commit_domain` or restored by `pop_to`) since the previous drain to
  /// `f`, each net at most once, in first-change order, then resets the
  /// log. Requires `enable_change_log()`.
  template <class F>
  void drain_changed_nets(F&& f) {
    for (NetId n : change_log_) {
      log_bits_.reset(n.index());
      f(n);
    }
    change_log_.clear();
  }

  // ----- deadlines -----------------------------------------------------------
  /// Arms (or, with 0, disarms) an absolute monotonic deadline
  /// (prof::monotonic_ns clock). `reach_fixpoint` checks it every
  /// `kDeadlineStride` gate applications; once it passes, the drain stops
  /// early with the queue cleared, `deadline_hit()` latches, and every
  /// later `reach_fixpoint` call returns immediately. Early exit is sound
  /// only because callers (the verifier pipeline, the FAN decision loop)
  /// check `deadline_hit()` right after and conclude kAbandoned — narrowing
  /// done so far is valid, but the domains are not at a fixpoint.
  void set_deadline_ns(std::uint64_t expiry_mono_ns) {
    deadline_ns_ = expiry_mono_ns;
    deadline_hit_ = false;
  }
  [[nodiscard]] std::uint64_t deadline_ns() const { return deadline_ns_; }
  [[nodiscard]] bool deadline_hit() const { return deadline_hit_; }

  // ----- statistics -----------------------------------------------------------
  [[nodiscard]] std::uint64_t applications() const { return applications_; }
  [[nodiscard]] std::uint64_t narrowings() const { return narrowings_; }

 private:
  static constexpr std::uint64_t kDeadlineStride = 4096;
  std::uint64_t deadline_ns_ = 0;
  bool deadline_hit_ = false;
  void save_if_needed(NetId n);
  /// Commits a narrowed value for net `n`: trail, events, learning.
  void commit_domain(NetId n, const AbstractSignal& value);
  /// Evaluates every scheduled gate of `lv` with project_gate, in slot
  /// order. Returns false when the deadline expired mid-sweep (queue
  /// cleared, deadline_hit_ latched).
  bool sweep_level(std::size_t lv, std::uint64_t& next_deadline_check,
                   std::size_t& peak_queue);
  void log_change(NetId n) {
    if (!log_enabled_) return;
    if (log_bits_.test_set(n.index())) return;
    change_log_.push_back(n);
  }

  const Circuit& circuit_;
  SoaDomain domains_;

  // Topo-level queue over plan slots. Gates are bucketed by longest-path
  // depth (every circuit edge goes to a strictly higher level) and laid out
  // level-major in the plan's slot order, so "the scheduled gates of the
  // lowest non-empty level" is a word scan of one bit-plane range and comes
  // out in topological order. A forward wave evaluates each gate at most
  // once per level sweep; backward narrowings (projections restricting gate
  // inputs) rewind the cursor. The greatest fixpoint is order-independent
  // (Theorem 1), so only the evaluation count changes. Levels below
  // `cursor_` are empty; `touched_hi_` bounds the levels pushed since the
  // last clear, so `clear_queue` is O(touched) rather than O(gates).
  std::vector<std::uint32_t> gate_level_;
  LevelPlan plan_;
  BitPlane slot_queued_;
  std::vector<std::uint32_t> level_count_;
  std::vector<std::uint32_t> sweep_slots_;  // reused per-sweep scratch
  // A gate's operands during its projection; a member so a sweep does not
  // re-initialise kMaxGateFanin signals.
  std::array<AbstractSignal, kMaxGateFanin> gate_ins_;
  std::size_t queue_size_ = 0;
  std::size_t cursor_ = 0;
  std::size_t touched_hi_ = 0;

  // Trail entries snapshot the four touched plane values of one net (an
  // AbstractSignal is exactly that quadruple), so pop_to restores planes
  // without any per-net object store.
  struct TrailEntry {
    NetId net;
    AbstractSignal old_value;
    std::uint64_t old_epoch;
  };
  std::vector<TrailEntry> trail_;
  std::vector<std::uint64_t> save_epoch_;
  std::uint64_t current_epoch_ = 1;
  std::uint64_t epoch_counter_ = 1;

  std::size_t bottom_count_ = 0;
  const ImplicationTable* implications_ = nullptr;

  std::uint64_t applications_ = 0;
  std::uint64_t narrowings_ = 0;

  // Change log for incremental consumers (see enable_change_log). A net is
  // pushed at most once per drain window: its `log_bits_` bit marks
  // "already logged", so the log never exceeds num_nets entries no matter
  // how many narrowings a window sees. Deliberately independent of the
  // trail's `save_epoch_` stamps — those dedupe per decision level, not per
  // drain, and would miss a second commit inside one level.
  bool log_enabled_ = false;
  std::vector<NetId> change_log_;
  BitPlane log_bits_;
  std::uint64_t domain_gen_ = 0;

  // Registry handles cached at construction: metric updates in the hot
  // paths are plain integer arithmetic, never name lookups. The two
  // highest-rate histograms buffer through LocalHistogram and flush at
  // fixpoint exit (and on destruction), so per-event observation stays
  // non-atomic.
  telemetry::Counter& ctr_fixpoints_;
  telemetry::Counter& ctr_applications_;
  telemetry::Counter& ctr_narrowings_;
  telemetry::Counter& ctr_conflicts_;
  telemetry::Counter& ctr_gate_evals_;
  telemetry::Counter& ctr_level_sweeps_;
  // Hardware-counter totals for the fixpoint drain (perf observatory):
  // bumped once per reach_fixpoint when prof::counters_enabled(), so the
  // disabled path pays one branch. Cycles/instructions/misses live under
  // "perf.fixpoint.*" next to the stage-level "perf.stage.*" slots.
  telemetry::Counter& ctr_perf_cycles_;
  telemetry::Counter& ctr_perf_instructions_;
  telemetry::Counter& ctr_perf_cache_refs_;
  telemetry::Counter& ctr_perf_cache_misses_;
  telemetry::Counter& ctr_perf_branch_misses_;
  telemetry::Counter& ctr_perf_wall_ns_;
  telemetry::Counter& ctr_perf_sections_;
  telemetry::Histogram& h_fixpoint_narrowings_;
  telemetry::LocalHistogram lh_queue_depth_;
  telemetry::LocalHistogram lh_narrowing_magnitude_;

  // High-water gauges, set once per reach_fixpoint exit (their `max` field
  // in registry snapshots is the whole-run peak; see doc/OBSERVABILITY.md).
  telemetry::Gauge& g_trail_depth_;
  telemetry::Gauge& g_queue_depth_;
  telemetry::Gauge& g_arena_bytes_;

  /// Bytes held by the principal growable arenas (trail, domain planes,
  /// queue bookkeeping, change log, level plan). O(1): capacities only.
  [[nodiscard]] std::size_t arena_bytes() const {
    return trail_.capacity() * sizeof(TrailEntry) +
           domains_.capacity_bytes() +
           save_epoch_.capacity() * sizeof(std::uint64_t) +
           slot_queued_.capacity_bytes() +
           (level_count_.capacity() + gate_level_.capacity() +
            sweep_slots_.capacity()) * sizeof(std::uint32_t) +
           change_log_.capacity() * sizeof(NetId) +
           log_bits_.capacity_bytes() + plan_.capacity_bytes();
  }
};

}  // namespace waveck
