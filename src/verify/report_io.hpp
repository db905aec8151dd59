// Report rendering: machine-readable JSON and human-readable ASCII timing
// diagrams for verification results.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/floating_sim.hpp"
#include "verify/pessimism.hpp"
#include "verify/verifier.hpp"

namespace waveck {

/// JSON for a single-output check (stages, conclusion, vector, timing).
/// `include_metrics` controls the trailing process-wide registry snapshot
/// (global state, not a property of the check).
[[nodiscard]] std::string to_json(const Circuit& c, const CheckReport& rep,
                                  bool include_metrics = true);

/// JSON for a circuit-level check. `include_metrics` controls the trailing
/// process-wide registry snapshot; the scheduler determinism tests disable
/// it to compare serial and parallel suites byte-for-byte (the snapshot is
/// global state, not a property of the suite).
[[nodiscard]] std::string to_json(const Circuit& c, const SuiteReport& rep,
                                  bool include_metrics = true);

/// Canonical (byte-comparable) report JSON: the determinism-contract view
/// with every wall-clock field zeroed, the hardware-counter block dropped,
/// and no registry snapshot. Two runs of the same check on the same netlist
/// yield identical bytes across processes and thread counts; the serve
/// daemon embeds exactly this form and `waveck check --canon` prints it.
[[nodiscard]] std::string canonical_json(const Circuit& c, CheckReport rep);
[[nodiscard]] std::string canonical_json(const Circuit& c, SuiteReport rep);

/// The per-stage cost members of a report object: `"stage_seconds":{...}`
/// and, when counters were on for the check, `,"perf":{...}` — no braces
/// around them, for writers that embed them in their own objects.
[[nodiscard]] std::string stage_costs_json(const StagePerf& p);

/// JSON for the exact-delay search result.
[[nodiscard]] std::string to_json(const Circuit& c,
                                  const Verifier::ExactDelayResult& res);

/// JSON for the per-output pessimism report.
[[nodiscard]] std::string to_json(const Circuit& c,
                                  const PessimismReport& rep);

/// ASCII timing diagram of a simulated witness along a path: one row per
/// net, a time axis scaled to `width` columns, `?` marking the interval
/// where the net may still toggle and its final value after the settle
/// point. Rows appear input-first.
void render_timing_diagram(std::ostream& os, const Circuit& c,
                           const FloatingResult& sim,
                           const std::vector<NetId>& path,
                           unsigned width = 64);
[[nodiscard]] std::string timing_diagram_string(
    const Circuit& c, const FloatingResult& sim,
    const std::vector<NetId>& path, unsigned width = 64);

}  // namespace waveck
