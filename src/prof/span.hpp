// Check and stage spans: the one writer of a timing check's and a pipeline
// stage's boundary state. Opening and closing a span updates, together, the
// thread's flight::Slot (check id, output name, delta, stage — which the
// trace, the dumps, the heartbeat and the profiler's samples all read), the
// "stage.<name>" timer, the stage's hardware-counter window and the
// begin/end events (flight::record), so none of them can drift from the
// others.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/flight_recorder.hpp"
#include "common/telemetry.hpp"
#include "prof/perf_counters.hpp"

namespace waveck::prof {

/// A timing check's span. It takes a process-unique 1-based check id, and
/// every event recorded on this thread while it is open carries that id,
/// including from code that knows nothing about checks. Destruction leaves
/// the thread idle and restores the enclosing span ids, so spans nest.
class CheckSpan {
 public:
  /// `output` names the checked net and must outlive the span.
  CheckSpan(const std::string& output, std::int64_t delta);
  CheckSpan(const CheckSpan&) = delete;
  CheckSpan& operator=(const CheckSpan&) = delete;
  ~CheckSpan();

  [[nodiscard]] std::int64_t id() const { return id_; }

  /// Closes the span with the check's conclusion letter and, for a
  /// violation, its witness `vector` (trace-only: the DOT exporter's
  /// critical-path highlight needs no re-search). Returns the check's wall
  /// time in seconds.
  double close(char conclusion, std::string_view vector);

 private:
  flight::Slot& slot_;
  const std::string& output_;
  std::int64_t delta_;
  std::int64_t id_;
  std::int64_t prev_chk_, prev_dec_;  // the enclosing span ids
  telemetry::StopWatch watch_;
};

/// A pipeline stage's span inside a check span. A stage is charged from the
/// previous stage's close (`boundary`), so the set-up between two stages
/// (the carrier cache, SCOAP) counts toward the stage it prepares. Its wall
/// time goes to the "stage.<name>" timer and the caller's CounterTotals;
/// with counters_enabled() its counter window (carrying the same wall time)
/// is added to both the CounterTotals and the thread's registry under
/// "perf.stage.<name>.*", so the global registry equals the sum over
/// per-check reports.
class StageSpan {
 public:
  /// `stage` must be a string literal (profiler samples keep the pointer).
  StageSpan(const char* stage, telemetry::StopWatch& boundary);
  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

  /// Closes the stage with its verdict letter ("-", "P", "N" or the check's
  /// conclusion), adding its cost to `cost` when given.
  void close(const char* status, CounterTotals* cost = nullptr);

 private:
  flight::Slot& slot_;
  const char* stage_;
  telemetry::StopWatch& boundary_;
  bool perf_on_;
  CounterSample perf_mark_;
};

}  // namespace waveck::prof
