#include "constraints/constraint_system.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/flight_recorder.hpp"
#include "constraints/projection.hpp"
#include "prof/perf_counters.hpp"

namespace waveck {

ImplicationTable::ImplicationTable(std::size_t num_nets,
                                   std::span<const Implication> implications)
    : offsets_(2 * num_nets + 1, 0), consequences_(implications.size()) {
  for (const Implication& i : implications) {
    ++offsets_[literal(i.net, i.cls) + 1];
  }
  for (std::size_t l = 1; l < offsets_.size(); ++l) {
    offsets_[l] += offsets_[l - 1];
  }
  // Stable placement: the next free slot of each literal's block.
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const Implication& i : implications) {
    consequences_[cursor[literal(i.net, i.cls)]++] = i.then;
  }
}

ConstraintSystem::ConstraintSystem(const Circuit& circuit)
    : circuit_(circuit),
      domains_(circuit.num_nets()),
      gate_level_(longest_path_levels(circuit)),
      save_epoch_(circuit.num_nets(), 0),
      reg_(telemetry::Registry::current()),
      ctr_fixpoints_(reg_.counter("engine.fixpoints")),
      ctr_narrowings_(reg_.counter("engine.narrowings")),
      ctr_conflicts_(reg_.counter("engine.conflicts")),
      ctr_gate_evals_(reg_.counter("fixpoint.gate_evals")),
      ctr_level_sweeps_(reg_.counter("fixpoint.level_sweeps")),
      h_fixpoint_narrowings_(reg_.histogram("engine.fixpoint_narrowings")),
      lh_queue_depth_(reg_.histogram("engine.queue_depth")),
      lh_narrowing_magnitude_(reg_.histogram("engine.narrowing_magnitude")),
      g_trail_depth_(reg_.gauge("engine.trail_depth")),
      g_queue_depth_(reg_.gauge("engine.queue_depth")),
      g_arena_bytes_(reg_.gauge("engine.arena_bytes")) {
  plan_.build(circuit, gate_level_);
  slot_queued_.assign(circuit.num_gates());
  level_count_.assign(plan_.num_levels, 0);
  cursor_ = plan_.num_levels;
}

void ConstraintSystem::enable_change_log() {
  if (log_enabled_) return;
  log_enabled_ = true;
  log_bits_.assign(circuit_.num_nets());
}

void ConstraintSystem::save_if_needed(NetId n) {
  auto& epoch = save_epoch_[n.index()];
  if (epoch == current_epoch_) return;
  trail_.push_back({n, domains_[n.index()], epoch});
  epoch = current_epoch_;
}

void ConstraintSystem::commit_domain(NetId n, const AbstractSignal& value) {
  const AbstractSignal dom = domains_[n.index()];
  const AbstractSignal nd = dom.intersect(value);
  if (nd == dom) return;

  save_if_needed(n);
  const bool was_single = dom.single_class();
  const bool was_bottom = dom.is_bottom();
  const Time old_latest = dom.latest();
  domains_[n.index()] = nd;
  ++narrowings_;
  ++domain_gen_;
  log_change(n);
  if (nd.is_bottom() && !was_bottom) {
    ++bottom_count_;
    ctr_conflicts_.inc();
  }

  // Magnitude of the tightening of the latest-transition bound; an infinite
  // jump (top -> finite, or a class emptying) lands in the overflow bucket.
  const Time new_latest = nd.latest();
  if (old_latest == new_latest) {
    lh_narrowing_magnitude_.observe(0);
  } else if (old_latest.is_finite() && new_latest.is_finite()) {
    lh_narrowing_magnitude_.observe(
        static_cast<std::uint64_t>(old_latest.value() - new_latest.value()));
  } else {
    lh_narrowing_magnitude_.observe(
        telemetry::Pow2Ladder::lower(telemetry::Pow2Ladder::kBuckets - 1));
  }

  schedule_net(n);

  if (implications_ != nullptr && !nd.is_bottom() && nd.single_class() &&
      !was_single) {
    const bool v = nd.the_class();
    for (const auto& [x, w] : implications_->of(n, v)) {
      // Class !w already gone: the commit would leave the domain as is.
      if (domains_[x.index()].cls(!w).is_empty()) continue;
      commit_domain(x, AbstractSignal::class_only(w));
    }
  }
}

bool ConstraintSystem::restrict_domain(NetId n, const AbstractSignal& with) {
  const std::uint64_t before = narrowings_;
  commit_domain(n, with);
  return narrowings_ != before;
}

void ConstraintSystem::schedule_gate(GateId g) {
  const std::uint32_t slot = plan_.slot_of_gate[g.index()];
  if (slot_queued_.test_set(slot)) return;
  const std::size_t lv = gate_level_[g.index()];
  ++level_count_[lv];
  ++queue_size_;
  if (lv < cursor_) cursor_ = lv;
  if (lv > touched_hi_) touched_hi_ = lv;
}

void ConstraintSystem::schedule_net(NetId n) {
  const Net& net = circuit_.net(n);
  if (net.driver.valid()) schedule_gate(net.driver);
  for (GateId f : net.fanouts) schedule_gate(f);
}

void ConstraintSystem::schedule_all() {
  for (GateId g : circuit_.topo_order()) schedule_gate(g);
}

void ConstraintSystem::clear_queue() {
  if (queue_size_ != 0) {
    // Invariant: every level below cursor_ is already empty, and nothing
    // was pushed above touched_hi_ since the last clear.
    for (std::size_t lv = cursor_; lv <= touched_hi_; ++lv) {
      if (level_count_[lv] != 0) {
        slot_queued_.clear_range(plan_.level_begin[lv],
                                 plan_.level_begin[lv + 1]);
        level_count_[lv] = 0;
      }
    }
    queue_size_ = 0;
  }
  cursor_ = plan_.num_levels;
  touched_hi_ = 0;
}

bool ConstraintSystem::sweep_level(std::size_t lv,
                                   std::uint64_t& next_deadline_check,
                                   std::size_t& peak_queue) {
  const std::uint32_t sb = plan_.level_begin[lv];
  const std::uint32_t se = plan_.level_begin[lv + 1];
  // Snapshot and unqueue the level's scheduled slots before evaluating
  // anything: commits during the sweep re-queue gates (same level included)
  // for the *next* sweep.
  sweep_slots_.clear();
  slot_queued_.for_each_set_in_range(sb, se, [&](std::size_t s) {
    sweep_slots_.push_back(static_cast<std::uint32_t>(s));
    // Wave width at this drain step (the popped gate included).
    lh_queue_depth_.observe(queue_size_);
    if (queue_size_ > peak_queue) peak_queue = queue_size_;
    --queue_size_;
  });
  slot_queued_.clear_range(sb, se);
  level_count_[lv] = 0;

  AbstractSignal* const ins = gate_ins_.data();
  for (const std::uint32_t s : sweep_slots_) {
    if (applications_ >= next_deadline_check) {
      if (telemetry::monotonic_ns() >= deadline_ns_) {
        clear_queue();
        deadline_hit_ = true;
        return false;
      }
      next_deadline_check = applications_ + kDeadlineStride;
    }
    ++applications_;
    const NetId onet{plan_.out_net[s]};
    const std::uint32_t* in_net = plan_.ins_net.data() + plan_.ins_offset[s];
    const std::size_t arity = plan_.ins_offset[s + 1] - plan_.ins_offset[s];
    assert(arity <= kMaxGateFanin);
    AbstractSignal out = domains_[onet.index()];
    for (std::size_t k = 0; k < arity; ++k) ins[k] = domains_[in_net[k]];
    const ProjectionDelta delta =
        project_gate(plan_.type[s], plan_.delay[s], out,
                     std::span<AbstractSignal>(ins, arity));
    if (delta.out_changed) commit_domain(onet, out);
    for (std::size_t k = 0; k < arity; ++k) {
      if (delta.in_changed(k)) commit_domain(NetId{in_net[k]}, ins[k]);
    }
    if (bottom_count_ > 0) return true;  // outer loop clears and concludes
  }
  return true;
}

ConstraintSystem::Status ConstraintSystem::reach_fixpoint() {
  if (deadline_hit_) {
    // Expired on an earlier drain and not re-armed since: nothing more to
    // compute, the caller is on its way to kAbandoned.
    clear_queue();
    return Status::kPossibleViolation;
  }
  const std::uint64_t apps0 = applications_;
  const std::uint64_t nar0 = narrowings_;
  const std::size_t depth0 = queue_size_;
  // Hardware-counter window around the whole drain: two group reads per
  // fixpoint, nothing inside the loop.
  const bool perf_on = prof::counters_enabled();
  prof::CounterSample perf0;
  if (perf_on) perf0 = prof::thread_counter_group().read();
  // Tripwire against unforeseen non-termination (Theorem 1 guarantees the
  // fixpoint is finite; this bound is far above any observed run).
  const std::uint64_t budget =
      applications_ + 1000ull * std::max<std::size_t>(circuit_.num_gates(),
                                                      10000);
  Status status = Status::kPossibleViolation;
  std::size_t peak_queue = queue_size_;
  std::uint64_t sweeps = 0;
  // Deadline bookkeeping: one clock read every kDeadlineStride gate
  // applications (and one up front, so an already-expired deadline never
  // starts a drain). A hit clears the queue and latches deadline_hit_; the
  // domains stay sound but are not a fixpoint — callers must abandon.
  std::uint64_t next_deadline_check =
      deadline_ns_ != 0 ? applications_ : ~std::uint64_t{0};
  while (queue_size_ > 0) {
    while (level_count_[cursor_] == 0) ++cursor_;
    ++sweeps;
    if (!sweep_level(cursor_, next_deadline_check, peak_queue)) break;
    if (inconsistent()) {
      clear_queue();
      status = Status::kNoViolation;
      break;
    }
    if (applications_ > budget) {
      throw std::logic_error("constraint propagation exceeded budget");
    }
  }

  ctr_fixpoints_.inc();
  ctr_gate_evals_.add(applications_ - apps0);
  ctr_narrowings_.add(narrowings_ - nar0);
  ctr_level_sweeps_.add(sweeps);
  if (perf_on) {
    prof::add_to_registry(
        reg_, "fixpoint",
        prof::delta_between(perf0, prof::thread_counter_group().read()));
  }
  // Liveness tick for the --progress monitor: gate evaluations are the
  // engine's finest-grained forward-progress unit (+1 so even an empty
  // drain counts as life).
  flight::self().tick(applications_ - apps0 + 1);
  h_fixpoint_narrowings_.observe(narrowings_ - nar0);
  lh_queue_depth_.flush();
  lh_narrowing_magnitude_.flush();
  // High-water gauges, once per fixpoint: their `max` accumulates the
  // whole-run peak even though `value` is only the latest observation.
  g_trail_depth_.set(static_cast<std::int64_t>(trail_.size()));
  g_queue_depth_.set(static_cast<std::int64_t>(peak_queue));
  g_arena_bytes_.set(static_cast<std::int64_t>(arena_bytes()));
  flight::record(flight::Kind::kPropagate, {},
                 static_cast<std::int64_t>(applications_ - apps0),
                 static_cast<std::int64_t>(narrowings_ - nar0),
                 status == Status::kNoViolation ? 'N' : 'P',
                 static_cast<std::uint32_t>(depth0));
  return status;
}

std::vector<NetId> ConstraintSystem::changed_since(Mark mark) const {
  std::vector<NetId> nets;
  nets.reserve(trail_.size() - mark);
  for (std::size_t i = mark; i < trail_.size(); ++i) {
    nets.push_back(trail_[i].net);
  }
  return nets;
}

ConstraintSystem::Mark ConstraintSystem::push_state() {
  current_epoch_ = ++epoch_counter_;
  return trail_.size();
}

void ConstraintSystem::pop_to(Mark mark) {
  if (trail_.size() > mark) ++domain_gen_;
  while (trail_.size() > mark) {
    TrailEntry& e = trail_.back();
    AbstractSignal& dom = domains_[e.net.index()];
    if (dom.is_bottom() && !e.old_value.is_bottom()) --bottom_count_;
    dom = e.old_value;
    save_epoch_[e.net.index()] = e.old_epoch;
    log_change(e.net);
    trail_.pop_back();
  }
  clear_queue();
  current_epoch_ = ++epoch_counter_;
}

}  // namespace waveck
