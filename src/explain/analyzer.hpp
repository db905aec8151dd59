// Trace analyzer: reconstructs per-check search trees from a JSONL trace
// (doc/EXPLAIN.md).
//
// The sink stamps every line with the open span ids ("chk", "dec"), so the
// analyzer can rebuild, per timing check: the stage waterfall, the FAN
// decision tree with per-subtree work attribution, and the cache timeline —
// without the producers ever having threaded ids through hot call sites.
// Structural violations (orphan attributions, unclosed spans, double flips)
// become warnings; a well-formed trace yields none, which is what the fuzz
// battery's trace-well-formedness property and the CI smoke step assert.
#pragma once

#include <cstdint>
#include <istream>
#include <map>
#include <string>
#include <vector>

namespace waveck::explain {

/// One verifier pipeline stage of a check (learning, narrowing,
/// delay_correlation, gitd, stem, case_analysis).
struct StageSpan {
  std::string stage;
  std::string status;        // producer-defined; "" while still open
  std::int64_t t_begin = -1;  // sink timestamps, ns
  std::int64_t t_end = -1;

  [[nodiscard]] double seconds() const {
    return t_begin >= 0 && t_end >= t_begin
               ? static_cast<double>(t_end - t_begin) * 1e-9
               : 0.0;
  }
};

/// One FAN decision and the work directly attributed to it (events stamped
/// with its id while it was the innermost open decision).
struct DecisionNode {
  std::int64_t id = -1;
  std::int64_t parent = -1;  // -1: child of the search root
  std::string net;
  bool cls = false;
  std::int64_t depth = 0;
  std::int64_t t_open = -1;
  std::int64_t t_close = -1;
  bool backtracked = false;  // first branch failed and was flipped
  std::string close;  // "exhausted" | "witness" | "abandoned" | "restart" | ""

  std::uint64_t gate_evals = 0;
  std::uint64_t narrowings = 0;
  std::uint64_t propagates = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t spurious = 0;
  /// Direct work spent under branches of this decision that failed (moved
  /// from the running branch accumulator on backtrack / exhausted or
  /// restart close).
  std::uint64_t wasted_gate_evals = 0;

  std::vector<std::int64_t> children;
};

/// One reconstructed timing check.
struct CheckTree {
  std::int64_t chk = -1;
  std::string output;
  std::int64_t delta = 0;
  int worker = 0;
  std::string conclusion;  // from check_end; "" if the trace is truncated
  double seconds = 0.0;
  std::string witness;  // check_end "vector" payload, if any
  std::int64_t t_begin = -1;
  std::int64_t t_end = -1;
  bool closed = false;

  std::vector<StageSpan> stages;
  std::map<std::int64_t, DecisionNode> decisions;
  std::vector<std::int64_t> roots;  // decision ids with parent == -1

  // Event tallies (must equal the CheckReport/registry tallies; the fuzz
  // battery's parity property leans on this).
  std::uint64_t n_decisions = 0;
  std::uint64_t n_backtracks = 0;
  std::uint64_t n_conflicts = 0;
  std::uint64_t n_spurious = 0;
  std::uint64_t n_gitd_rounds = 0;
  std::uint64_t n_stems = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_dom_rebuilds = 0;

  /// Work stamped with this check but no decision (pipeline stages and the
  /// search root).
  std::uint64_t root_gate_evals = 0;
  std::uint64_t root_narrowings = 0;

  [[nodiscard]] std::uint64_t total_gate_evals() const;
  [[nodiscard]] std::uint64_t wasted_gate_evals() const;
  /// Fraction of this check's gate evaluations spent under decision
  /// branches that were subsequently backtracked, exhausted or discarded by
  /// a restart.
  [[nodiscard]] double wasted_ratio() const;
};

/// Per-net aggregation across every check in the trace.
struct NetStat {
  std::string net;
  std::uint64_t decisions = 0;
  std::uint64_t backtracks = 0;
  std::uint64_t gate_evals = 0;
  std::uint64_t narrowings = 0;
};

/// Cumulative carrier-cache counters after each cache event.
struct CacheSample {
  std::int64_t t = -1;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t dom_rebuilds = 0;
};

/// One scheduler batch (parallel runs only).
struct BatchSpan {
  std::int64_t delta = 0;
  std::int64_t jobs = 0;
  std::int64_t checks = 0;
  std::int64_t checks_skipped = 0;
};

struct TraceAnalysis {
  std::vector<CheckTree> checks;  // in order of first appearance
  std::vector<BatchSpan> batches;
  std::vector<int> workers;  // distinct "w" values, ascending
  std::map<std::string, NetStat> net_stats;
  std::vector<CacheSample> cache_timeline;
  std::map<std::string, std::uint64_t> event_counts;  // per "ev" name
  std::uint64_t events = 0;
  std::int64_t t_first = -1;
  std::int64_t t_last = -1;

  /// Non-empty when the trace is a flight-recorder blackbox dump: the
  /// `fr_dump` header's trigger ("watchdog_stall", "deadline_expired",
  /// "fatal_signal", "exit", ...), plus the header's ring/record tallies.
  std::string dump_reason;
  std::int64_t dump_rings = 0;
  std::int64_t dump_records = 0;

  /// Structural problems; empty for a well-formed trace. Storage is capped
  /// (`n_warnings` keeps the true count).
  std::vector<std::string> warnings;
  std::uint64_t n_warnings = 0;

  [[nodiscard]] bool well_formed() const { return n_warnings == 0; }

  /// Nets ordered by `NetStat::*member` descending, at most `k`.
  [[nodiscard]] std::vector<const NetStat*> top_nets(
      std::uint64_t NetStat::* member, std::size_t k) const;
};

/// Streams the trace once and reconstructs everything above. A reader parse
/// error becomes a warning (the events before it are still analyzed).
[[nodiscard]] TraceAnalysis analyze_trace(std::istream& in);

}  // namespace waveck::explain
