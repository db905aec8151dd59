// Differential cross-check battery: every way this repo can compute or
// transform a floating-mode answer, checked against every other on one
// circuit (doc/TESTING.md "oracle hierarchy").
//
// The battery is the fuzzer's verdict function and the shrinker's fitness
// function, so each property is independently runnable: `check_property`
// re-runs exactly one discriminating property on a candidate circuit. All
// properties are deterministic — any derived randomness (buffer-insertion
// sites, sampled vectors) comes from BatteryOptions::salt, never from
// wall-clock or global state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/circuit.hpp"

namespace waveck::fuzz {

enum class Property : std::uint8_t {
  /// Verifier::exact_floating_delay == exhaustive oracle, witness replays.
  kExactDelay,
  /// Per-δ agreement: check_circuit at sampled δ says V iff the oracle has
  /// a vector settling at/after δ; V witnesses replay through
  /// simulate_floating to >= δ; N answers have no oracle counterexample.
  kDeltaSoundness,
  /// Verdicts are monotone in δ: scanning δ upward, once the verifier
  /// answers NoViolation it never answers Violation again.
  kDeltaMonotonic,
  /// Zero-delay buffer insertion (netlist/transforms) preserves the exact
  /// floating delay and the verifier still matches the oracle on it.
  kBufferInvariance,
  /// map_to_nor preserves the Boolean function (all-vector value
  /// equivalence) and the verifier matches the oracle on the remap.
  kNorRemap,
  /// Serial vs --jobs N suite reports are byte-identical JSON.
  kParallelDeterminism,
  /// write_bench -> read_bench -> write_bench is a fixpoint and preserves
  /// structure + delay annotations.
  kBenchRoundTrip,
  /// Same for structural Verilog (skipped for MUX/DELAY circuits, which
  /// the writer legally lowers).
  kVerilogRoundTrip,
  /// CarrierCache on vs off suite reports are byte-identical JSON: the
  /// incremental carrier/dominator cache is a pure optimisation (catches
  /// stale-cache bugs).
  kCacheEquivalence,
  /// A traced per-output run yields a structurally well-formed JSONL trace:
  /// the explain analyzer reconstructs it with zero warnings (every
  /// check_begin has a matching check_end, every decision exactly one
  /// close, no orphan attributions) and the per-check decision/backtrack/
  /// gitd/stem tallies equal the CheckReport counters.
  kTraceWellFormed,
};

[[nodiscard]] const char* to_string(Property p);
/// Parses the names `to_string` produces; returns false on unknown names.
bool property_from_string(const std::string& name, Property* out);
[[nodiscard]] const std::vector<Property>& all_properties();

struct BatteryOptions {
  /// Exhaustive-oracle input cap: circuits wider than this fail loudly
  /// (OracleLimitError) instead of being silently skipped.
  unsigned max_inputs = 14;
  /// Worker threads for the kParallelDeterminism property.
  std::size_t jobs = 2;
  /// Deterministic salt for derived choices (buffer sites, δ samples).
  std::uint64_t salt = 0;
  /// Skip kNorRemap on circuits whose NOR remap would exceed this many
  /// gates (the remap is quadratic-ish on wide gates). Skipping is recorded
  /// in PropertyResult::skipped, never silent.
  std::size_t max_nor_gates = 4000;
};

struct PropertyResult {
  Property property{};
  bool ok = true;
  bool skipped = false;  // property not applicable (reason in details)
  std::string details;   // failure diagnosis or skip reason
};

struct BatteryResult {
  std::vector<PropertyResult> results;
  [[nodiscard]] bool ok() const {
    for (const auto& r : results) {
      if (!r.ok) return false;
    }
    return true;
  }
  /// First failing property, if any.
  [[nodiscard]] const PropertyResult* first_failure() const {
    for (const auto& r : results) {
      if (!r.ok) return &r;
    }
    return nullptr;
  }
};

/// Runs one property. Never throws for a *failing* property (failures are
/// data); throws OracleLimitError/CircuitError only for unusable inputs.
[[nodiscard]] PropertyResult check_property(const Circuit& c, Property p,
                                            const BatteryOptions& opt = {});

/// Runs the full battery in `all_properties()` order.
[[nodiscard]] BatteryResult run_battery(const Circuit& c,
                                        const BatteryOptions& opt = {});

}  // namespace waveck::fuzz
