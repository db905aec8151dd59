#include "explain/analyzer.hpp"

#include <algorithm>
#include <unordered_map>

#include "explain/trace_reader.hpp"

namespace waveck::explain {

namespace {

constexpr std::size_t kMaxStoredWarnings = 50;

/// Mutable analyzer state around one CheckTree: the branch accumulators are
/// working storage the final tree does not need.
struct OpenCheck {
  std::size_t index;  // into TraceAnalysis::checks
  bool open = true;
  /// Gate evals since a decision opened or last flipped, keyed by decision
  /// id. Moved into DecisionNode::wasted_gate_evals when the branch fails.
  std::unordered_map<std::int64_t, std::uint64_t> branch_evals;
};

class Analyzer {
 public:
  explicit Analyzer(TraceAnalysis& out) : out_(out) {}

  void handle(const TraceEvent& e) {
    ++out_.events;
    ++out_.event_counts[e.ev];
    if (out_.t_first < 0 && e.t >= 0) out_.t_first = e.t;
    if (e.t > out_.t_last) out_.t_last = e.t;
    note_worker(static_cast<int>(e.w));

    if (e.ev == "fr_dump") {
      // Flight-recorder dump header: remember why the rings were flushed so
      // reports can lead with the incident, not the event soup.
      out_.dump_reason = e.str("reason");
      out_.dump_rings = e.num("rings", 0);
      out_.dump_records = e.num("records", 0);
      return;
    }
    if (e.ev == "check_begin") {
      on_check_begin(e);
      return;
    }
    if (e.ev == "batch_begin") {
      out_.batches.push_back({e.num("delta", 0), e.num("jobs", 0),
                              e.num("checks", 0), 0});
      return;
    }
    if (e.ev == "batch_end") {
      if (!out_.batches.empty()) {
        out_.batches.back().checks_skipped = e.num("checks_skipped", 0);
      }
      return;
    }
    if (e.chk < 0) return;  // fuzz bookkeeping etc.: counted, not modeled

    OpenCheck* oc = find_open(e);
    if (oc == nullptr) return;  // already warned
    CheckTree& c = out_.checks[oc->index];

    if (e.ev == "check_end") on_check_end(e, *oc, c);
    else if (e.ev == "stage_begin") c.stages.push_back({std::string(e.str("stage")), "", e.t, -1});
    else if (e.ev == "stage_end") on_stage_end(e, c);
    else if (e.ev == "decision") on_decision(e, c);
    else if (e.ev == "decision_close") on_decision_close(e, *oc, c);
    else if (e.ev == "backtrack") on_backtrack(e, *oc, c);
    else if (e.ev == "propagate") on_propagate(e, *oc, c);
    else if (e.ev == "conflict") on_simple_tally(e, c, &CheckTree::n_conflicts, &DecisionNode::conflicts);
    else if (e.ev == "spurious_vector") on_simple_tally(e, c, &CheckTree::n_spurious, &DecisionNode::spurious);
    else if (e.ev == "gitd_round") ++c.n_gitd_rounds;
    else if (e.ev == "stem") ++c.n_stems;
    else if (e.ev == "cache") on_cache(e, c);
  }

  void finish() {
    for (const auto& [chk, oc] : open_) {
      CheckTree& c = out_.checks[oc.index];
      if (!c.closed) {
        warn("check " + std::to_string(chk) + " (" + c.output +
             ") never closed (truncated trace?)");
        close_remaining_spans(c);
      }
      // Net attribution of decision work happens once per check, after all
      // of its events have been folded in.
      for (const auto& [id, d] : c.decisions) {
        NetStat& ns = net_stat(d.net);
        ns.gate_evals += d.gate_evals;
        ns.narrowings += d.narrowings;
      }
    }
    std::sort(out_.workers.begin(), out_.workers.end());
  }

 private:
  void warn(std::string msg) {
    ++out_.n_warnings;
    if (out_.warnings.size() < kMaxStoredWarnings) {
      out_.warnings.push_back(std::move(msg));
    } else if (out_.warnings.size() == kMaxStoredWarnings) {
      out_.warnings.push_back("... further warnings suppressed");
    }
  }

  void note_worker(int w) {
    if (std::find(out_.workers.begin(), out_.workers.end(), w) ==
        out_.workers.end()) {
      out_.workers.push_back(w);
    }
  }

  NetStat& net_stat(const std::string& net) {
    NetStat& ns = out_.net_stats[net];
    if (ns.net.empty()) ns.net = net;
    return ns;
  }

  OpenCheck* find_open(const TraceEvent& e) {
    const auto it = open_.find(e.chk);
    if (it == open_.end() || !it->second.open) {
      warn("seq " + std::to_string(e.seq) + ": orphan \"" + e.ev +
           "\" for check " + std::to_string(e.chk) +
           (it == open_.end() ? " (never began)" : " (already ended)"));
      return nullptr;
    }
    return &it->second;
  }

  DecisionNode* find_decision(const TraceEvent& e, CheckTree& c) {
    if (e.dec < 0) return nullptr;
    const auto it = c.decisions.find(e.dec);
    if (it == c.decisions.end()) {
      warn("seq " + std::to_string(e.seq) + ": \"" + e.ev +
           "\" attributed to unknown decision " + std::to_string(e.dec) +
           " of check " + std::to_string(e.chk));
      return nullptr;
    }
    return &it->second;
  }

  void on_check_begin(const TraceEvent& e) {
    if (e.chk < 0) {
      warn("seq " + std::to_string(e.seq) + ": check_begin without chk id");
      return;
    }
    if (open_.contains(e.chk)) {
      warn("seq " + std::to_string(e.seq) + ": duplicate check_begin for " +
           std::to_string(e.chk));
      return;
    }
    CheckTree c;
    c.chk = e.chk;
    c.output = e.str("output");
    c.delta = e.num("delta", 0);
    c.worker = static_cast<int>(e.w);
    c.t_begin = e.t;
    open_.emplace(e.chk, OpenCheck{out_.checks.size()});
    out_.checks.push_back(std::move(c));
  }

  void on_check_end(const TraceEvent& e, OpenCheck& oc, CheckTree& c) {
    c.conclusion = e.str("conclusion");
    const TraceValue* secs = e.find("seconds");
    if (secs != nullptr) c.seconds = secs->d;
    c.witness = e.str("vector");
    c.t_end = e.t;
    c.closed = true;
    oc.open = false;
    close_remaining_spans(c);
  }

  /// End-of-check audit: every stage and decision must already be closed.
  void close_remaining_spans(CheckTree& c) {
    for (const StageSpan& s : c.stages) {
      if (s.t_end < 0) {
        warn("check " + std::to_string(c.chk) + ": stage \"" + s.stage +
             "\" never closed");
      }
    }
    for (const auto& [id, d] : c.decisions) {
      if (d.close.empty()) {
        warn("check " + std::to_string(c.chk) + ": decision " +
             std::to_string(id) + " (" + d.net + ") never closed");
      }
    }
  }

  void on_stage_end(const TraceEvent& e, CheckTree& c) {
    const std::string_view stage = e.str("stage");
    for (auto it = c.stages.rbegin(); it != c.stages.rend(); ++it) {
      if (it->t_end < 0 && it->stage == stage) {
        it->t_end = e.t;
        it->status = e.str("status");
        return;
      }
    }
    warn("seq " + std::to_string(e.seq) + ": stage_end \"" +
         std::string(stage) + "\" without open stage_begin (check " +
         std::to_string(c.chk) + ")");
  }

  void on_decision(const TraceEvent& e, CheckTree& c) {
    if (e.dec < 0) {
      warn("seq " + std::to_string(e.seq) + ": decision without dec id");
      return;
    }
    ++c.n_decisions;
    if (c.decisions.contains(e.dec)) {
      warn("seq " + std::to_string(e.seq) + ": duplicate decision id " +
           std::to_string(e.dec) + " in check " + std::to_string(c.chk));
      return;
    }
    DecisionNode d;
    d.id = e.dec;
    d.parent = e.num("parent", -1);
    d.net = e.str("net");
    const TraceValue* cls = e.find("cls");
    d.cls = cls != nullptr && cls->b;
    d.depth = e.num("depth", 0);
    d.t_open = e.t;
    if (d.parent < 0) {
      c.roots.push_back(d.id);
    } else {
      const auto pit = c.decisions.find(d.parent);
      if (pit == c.decisions.end()) {
        warn("seq " + std::to_string(e.seq) + ": decision " +
             std::to_string(d.id) + " has unknown parent " +
             std::to_string(d.parent));
        c.roots.push_back(d.id);
      } else {
        pit->second.children.push_back(d.id);
      }
    }
    ++net_stat(d.net).decisions;
    c.decisions.emplace(d.id, std::move(d));
  }

  void on_decision_close(const TraceEvent& e, OpenCheck& oc, CheckTree& c) {
    DecisionNode* d = find_decision(e, c);
    if (d == nullptr) return;
    if (!d->close.empty()) {
      warn("seq " + std::to_string(e.seq) + ": decision " +
           std::to_string(d->id) + " closed twice");
      return;
    }
    d->close = e.str("outcome");
    d->t_close = e.t;
    if (d->close == "exhausted" || d->close == "restart") {
      // Whatever ran since the last flip failed too (or, on a restart, was
      // thrown away with the whole first search pass): wasted.
      d->wasted_gate_evals += take_branch(oc, d->id);
    } else {
      oc.branch_evals.erase(d->id);
    }
  }

  void on_backtrack(const TraceEvent& e, OpenCheck& oc, CheckTree& c) {
    ++c.n_backtracks;
    DecisionNode* d = find_decision(e, c);
    if (d == nullptr) return;
    if (d->backtracked) {
      warn("seq " + std::to_string(e.seq) + ": decision " +
           std::to_string(d->id) + " backtracked twice");
    }
    d->backtracked = true;
    d->wasted_gate_evals += take_branch(oc, d->id);
    ++net_stat(d->net).backtracks;
  }

  std::uint64_t take_branch(OpenCheck& oc, std::int64_t dec) {
    const auto it = oc.branch_evals.find(dec);
    if (it == oc.branch_evals.end()) return 0;
    const std::uint64_t v = it->second;
    oc.branch_evals.erase(it);
    return v;
  }

  void on_propagate(const TraceEvent& e, OpenCheck& oc, CheckTree& c) {
    const auto apps = static_cast<std::uint64_t>(e.num("applications", 0));
    const auto revs = static_cast<std::uint64_t>(e.num("revisions", 0));
    if (e.dec < 0) {
      c.root_gate_evals += apps;
      c.root_narrowings += revs;
      return;
    }
    DecisionNode* d = find_decision(e, c);
    if (d == nullptr) return;
    d->gate_evals += apps;
    d->narrowings += revs;
    ++d->propagates;
    oc.branch_evals[d->id] += apps;
  }

  void on_simple_tally(const TraceEvent& e, CheckTree& c,
                       std::uint64_t CheckTree::* check_tally,
                       std::uint64_t DecisionNode::* node_tally) {
    ++(c.*check_tally);
    if (e.dec >= 0) {
      if (DecisionNode* d = find_decision(e, c)) ++(d->*node_tally);
    }
  }

  void on_cache(const TraceEvent& e, CheckTree& c) {
    const std::string_view kind = e.str("kind");
    if (kind == "hit") ++c.cache_hits;
    else if (kind == "miss") ++c.cache_misses;
    else if (kind == "dom_rebuild") ++c.cache_dom_rebuilds;
    CacheSample s = out_.cache_timeline.empty() ? CacheSample{}
                                                : out_.cache_timeline.back();
    s.t = e.t;
    if (kind == "hit") ++s.hits;
    else if (kind == "miss") ++s.misses;
    else if (kind == "dom_rebuild") ++s.dom_rebuilds;
    out_.cache_timeline.push_back(s);
  }

  TraceAnalysis& out_;
  std::unordered_map<std::int64_t, OpenCheck> open_;  // by chk id
};

}  // namespace

std::uint64_t CheckTree::total_gate_evals() const {
  std::uint64_t total = root_gate_evals;
  for (const auto& [id, d] : decisions) total += d.gate_evals;
  return total;
}

std::uint64_t CheckTree::wasted_gate_evals() const {
  std::uint64_t wasted = 0;
  for (const auto& [id, d] : decisions) wasted += d.wasted_gate_evals;
  return wasted;
}

double CheckTree::wasted_ratio() const {
  const std::uint64_t total = total_gate_evals();
  return total == 0 ? 0.0
                    : static_cast<double>(wasted_gate_evals()) /
                          static_cast<double>(total);
}

std::vector<const NetStat*> TraceAnalysis::top_nets(
    std::uint64_t NetStat::* member, std::size_t k) const {
  std::vector<const NetStat*> all;
  all.reserve(net_stats.size());
  for (const auto& [name, ns] : net_stats) {
    if (ns.*member > 0) all.push_back(&ns);
  }
  std::sort(all.begin(), all.end(),
            [member](const NetStat* a, const NetStat* b) {
              if (a->*member != b->*member) return a->*member > b->*member;
              return a->net < b->net;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

TraceAnalysis analyze_trace(std::istream& in) {
  TraceAnalysis out;
  Analyzer an(out);
  TraceReader reader(in);
  TraceEvent e;
  while (reader.next(e)) an.handle(e);
  if (!reader.error().empty()) {
    ++out.n_warnings;
    out.warnings.push_back("trace parse error: " + reader.error());
  }
  an.finish();
  return out;
}

}  // namespace waveck::explain
