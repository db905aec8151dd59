// Case analysis by waveform splitting (paper Section 5).
//
// A branch-and-bound search that restricts net domains to one final class at
// a time, propagating each decision through the narrowing engine (including
// the dynamic-dominator implications of Figure 4), until either
//   * every primary input is class-determined and the system is consistent
//     -- a test vector, cross-validated against the independent floating-
//     mode simulator -- or
//   * all alternatives are refuted: no violation is possible.
//
// Decision selection follows the paper's modified FAN:
//   * *initial objectives* sensitize the dynamic-carrier circuit Psi: inputs
//     of Psi gates that are not carriers themselves are steered to the
//     non-controlling value of the gate they feed;
//   * objectives are triplets (k, n0(k), n1(k)) where n_v is the length of a
//     path to s potentially enabled by setting k to v; at fanout stems the
//     incoming n values combine by MAX (the paper's modification; the
//     original FAN sum is available as an ablation);
//   * SCOAP controllability breaks ties;
//   * decisions run in 3 phases: between consecutive dynamic dominators
//     (computed before any decision), then the whole carrier neighbourhood,
//     then the output and primary inputs via complete backtrace from
//     unjustified gates.
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <vector>

#include "analysis/carriers.hpp"
#include "analysis/scoap.hpp"
#include "constraints/constraint_system.hpp"

namespace waveck {

struct CaseAnalysisOptions {
  std::size_t max_backtracks = 100000;
  /// Re-run the dominator implications after every decision (the paper's
  /// `evaluate` loop).
  bool dominators_in_search = true;
  /// Ablation: combine objective weights at fanout stems with SUM (original
  /// FAN) instead of the paper's MAX.
  bool sum_at_fanout = false;
  /// Ablation: disable SCOAP tie-breaking.
  bool use_scoap = true;
  /// Ablation: collapse the 3-phase decision ordering into one phase.
  bool three_phase = true;
  /// Cooperative cancellation (src/sched): when non-null and set, the
  /// search stops at the next decision boundary and returns kAbandoned,
  /// exactly as if the backtrack budget had been exhausted. Polled with a
  /// relaxed load once per search-loop iteration.
  const std::atomic<bool>* cancel = nullptr;
  /// Absolute monotonic deadline (telemetry::monotonic_ns clock; 0 = none).
  /// Checked alongside `cancel` at every decision boundary — and, through
  /// ConstraintSystem::set_deadline_ns, inside each propagation drain — so
  /// expiry mid-search returns kAbandoned within microseconds.
  std::uint64_t deadline_ns = 0;
};

enum class CaseResult : std::uint8_t {
  kViolation,    // test vector found (and validated by simulation)
  kNoViolation,  // search exhausted: no sigma-compatible assignment
  kAbandoned,    // backtrack budget exceeded (paper's 'A' entries)
  kConflict,     // stopped at its first conflict (SearchPass)
};

/// How far one run of the search goes. The verifier runs a check's search
/// in up to two passes around stem correlation (Verifier::run_check_stages);
/// this is that schedule's handle, not a user option.
struct SearchPass {
  /// Stop at the first conflict, before any backtrack is taken, and return
  /// kConflict with the system restored to the entry state.
  bool stop_at_first_conflict = false;
  /// Decisions an earlier pass of the same check took. This pass numbers
  /// its decision spans after them, so span ids stay unique per check.
  std::size_t earlier_decisions = 0;
};

struct CaseAnalysisOutcome {
  CaseResult result = CaseResult::kAbandoned;
  std::size_t backtracks = 0;
  std::size_t decisions = 0;
  /// Test vector (indexed like Circuit::inputs()) when result == kViolation.
  std::vector<bool> vector;
};

class CarrierCache;
struct HeadLines;

/// Runs the case analysis on a system already at a fixpoint (after global
/// implications, and on a second pass after stem correlation too). `scoap`
/// may be null; `heads` are the circuit's head lines (compute_head_lines).
/// On kViolation the system is left at the satisfying state; otherwise it
/// is restored to the entry state. `cache` (may be null) serves the dynamic
/// carriers and dominators incrementally, and the search marks its
/// decision levels there; the search behaves identically with or without
/// it.
CaseAnalysisOutcome run_case_analysis(ConstraintSystem& cs,
                                      const TimingCheck& check,
                                      const Scoap* scoap,
                                      const HeadLines& heads,
                                      const CaseAnalysisOptions& opt = {},
                                      CarrierCache* cache = nullptr,
                                      const SearchPass& pass = {});

}  // namespace waveck
