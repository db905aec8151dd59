#include "prof/span.hpp"

#include <cstdio>

#include "common/flight_recorder.hpp"
#include "prof/heartbeat.hpp"

namespace waveck::prof {

CheckSpan::CheckSpan(const std::string& output, std::int64_t delta)
    : output_(output), delta_(delta) {
  flight::record(flight::Kind::kCheckBegin, output, delta);
  // Both the profiler mark and the board slot hold the interned copy of
  // the name, which outlives the circuit.
  telemetry::set_check_mark(output.c_str());
  if (heartbeat_enabled()) {
    ActivityBoard::begin_check(telemetry::check_mark(), span_.id());
  }
}

double CheckSpan::close(char conclusion, std::string_view vector) {
  const double seconds = watch_.seconds();
  telemetry::set_stage_mark(nullptr);
  telemetry::set_check_mark(nullptr);
  if (heartbeat_enabled()) ActivityBoard::end_check();
  flight::record(flight::Kind::kCheckEnd, output_,
                 static_cast<std::int64_t>(seconds * 1e9), delta_,
                 static_cast<std::uint8_t>(conclusion), 0, vector);
  return seconds;
}

StageSpan::StageSpan(const char* stage, telemetry::StopWatch& boundary)
    : stage_(stage), boundary_(boundary), perf_on_(counters_enabled()) {
  telemetry::set_stage_mark(stage);
  if (heartbeat_enabled()) ActivityBoard::set_stage(stage);
  if (perf_on_) perf_mark_ = thread_counter_group().read();
  flight::record(flight::Kind::kStageBegin, stage);
}

void StageSpan::close(const char* status, double* seconds,
                      CounterTotals* perf) {
  auto& reg = telemetry::Registry::current();
  char buf[64];
  const int len = std::snprintf(buf, sizeof buf, "stage.%s", stage_);
  const std::string_view timer(buf, static_cast<std::size_t>(len));
  const std::uint64_t ns = boundary_.ns();
  reg.timer(timer).add_ns(ns);
  if (seconds != nullptr) *seconds += static_cast<double>(ns) * 1e-9;
  boundary_ = telemetry::StopWatch();
  if (perf_on_ && perf != nullptr) {
    const CounterDelta d =
        delta_between(perf_mark_, thread_counter_group().read());
    perf->add(d);
    add_to_registry(reg, timer, d);
  }
  telemetry::set_stage_mark(nullptr);
  flight::record(flight::Kind::kStageEnd, stage_, 0, 0,
                 static_cast<std::uint8_t>(status[0]));
}

}  // namespace waveck::prof
