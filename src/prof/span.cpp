#include "prof/span.hpp"

#include <cstdio>
#include <mutex>
#include <unordered_set>

namespace waveck::prof {

namespace {
std::atomic<std::int64_t> g_next_check_id{0};

/// The process-lifetime copy of `name`: profiler samples and the heartbeat
/// keep a check's name after its circuit is gone. Node-based, so a returned
/// pointer survives later insertions; never destroyed, so it also survives
/// static destruction.
const char* intern(const std::string& name) {
  static std::mutex mu;
  static auto* names = new std::unordered_set<std::string>();
  const std::lock_guard<std::mutex> lock(mu);
  return names->emplace(name).first->c_str();
}
}  // namespace

CheckSpan::CheckSpan(const std::string& output, std::int64_t delta)
    : slot_(flight::self()),
      output_(output),
      delta_(delta),
      id_(g_next_check_id.fetch_add(1, std::memory_order_relaxed) + 1),
      prev_chk_(slot_.chk.load(std::memory_order_relaxed)),
      prev_dec_(slot_.dec.load(std::memory_order_relaxed)) {
  // The name and delta go in before the id, so a dump that matches the id
  // reads this check's name (see flight::dump).
  slot_.busy(intern(output), delta);
  slot_.chk.store(id_, std::memory_order_release);
  slot_.dec.store(-1, std::memory_order_relaxed);
  flight::record(flight::Kind::kCheckBegin, output, delta);
}

CheckSpan::~CheckSpan() {
  slot_.idle();  // already, unless the check threw
  slot_.chk.store(prev_chk_, std::memory_order_release);
  slot_.dec.store(prev_dec_, std::memory_order_relaxed);
}

double CheckSpan::close(char conclusion, std::string_view vector) {
  const double seconds = watch_.seconds();
  flight::record(flight::Kind::kCheckEnd, output_,
                 static_cast<std::int64_t>(seconds * 1e9), delta_,
                 static_cast<std::uint8_t>(conclusion), 0, vector);
  slot_.idle();
  return seconds;
}

StageSpan::StageSpan(const char* stage, telemetry::StopWatch& boundary)
    : slot_(flight::self()),
      stage_(stage),
      boundary_(boundary),
      perf_on_(counters_enabled()) {
  slot_.stage.store(stage, std::memory_order_relaxed);
  if (perf_on_) perf_mark_ = thread_counter_group().read();
  flight::record(flight::Kind::kStageBegin, stage);
}

void StageSpan::close(const char* status, CounterTotals* cost) {
  auto& reg = telemetry::Registry::current();
  char buf[64];
  const int len = std::snprintf(buf, sizeof buf, "stage.%s", stage_);
  const std::string_view timer(buf, static_cast<std::size_t>(len));
  const std::uint64_t ns = boundary_.ns();
  reg.timer(timer).add_ns(ns);
  boundary_ = telemetry::StopWatch();
  if (cost != nullptr) {
    CounterTotals d;
    if (perf_on_) d = delta_between(perf_mark_, thread_counter_group().read());
    d.wall_ns = ns;
    cost->add(d);
    if (perf_on_) add_to_registry(reg, timer, d);
  }
  slot_.stage.store(nullptr, std::memory_order_relaxed);
  flight::record(flight::Kind::kStageEnd, stage_, 0, 0,
                 static_cast<std::uint8_t>(status[0]));
}

}  // namespace waveck::prof
