#include "prof/heartbeat.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ostream>
#include <string>

#include "common/flight_recorder.hpp"
#include "common/telemetry.hpp"
#include "prof/perf_counters.hpp"

namespace waveck::prof {

namespace detail {
std::atomic<bool> g_heartbeat_enabled{false};
}  // namespace detail

void set_heartbeat_enabled(bool on) {
  detail::g_heartbeat_enabled.store(on, std::memory_order_relaxed);
}

ActivityBoard& ActivityBoard::instance() {
  static ActivityBoard board;
  return board;
}

WorkerActivity& ActivityBoard::slot(int worker) {
  const int i = worker >= 0 && worker < kMaxWorkers ? worker : 0;
  return slots_[i];
}

namespace {
WorkerActivity& self_slot() {
  return ActivityBoard::instance().slot(telemetry::worker_id());
}
}  // namespace

void ActivityBoard::begin_check(const char* output, std::int64_t chk) {
  WorkerActivity& s = self_slot();
  s.output.store(output, std::memory_order_relaxed);
  s.stage.store(nullptr, std::memory_order_relaxed);
  s.chk.store(chk, std::memory_order_relaxed);
  s.depth.store(0, std::memory_order_relaxed);
  s.since_ns.store(monotonic_ns(), std::memory_order_relaxed);
}

void ActivityBoard::end_check() {
  WorkerActivity& s = self_slot();
  s.output.store(nullptr, std::memory_order_relaxed);
  s.stage.store(nullptr, std::memory_order_relaxed);
  s.chk.store(-1, std::memory_order_relaxed);
  s.depth.store(0, std::memory_order_relaxed);
}

void ActivityBoard::set_stage(const char* stage) {
  self_slot().stage.store(stage, std::memory_order_relaxed);
}

void ActivityBoard::set_depth(std::int64_t depth) {
  self_slot().depth.store(depth, std::memory_order_relaxed);
}

void ActivityBoard::tick(std::uint64_t n) {
  self_slot().progress.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t ActivityBoard::total_progress() const {
  std::uint64_t total = 0;
  for (const WorkerActivity& s : slots_) {
    total += s.progress.load(std::memory_order_relaxed);
  }
  return total;
}

namespace {

/// 152340 -> "152k", 12 -> "12": compact rate formatting for the one-liner.
std::string compact(std::uint64_t v) {
  char buf[32];
  if (v >= 10'000'000) {
    std::snprintf(buf, sizeof buf, "%lluM",
                  static_cast<unsigned long long>(v / 1'000'000));
  } else if (v >= 10'000) {
    std::snprintf(buf, sizeof buf, "%lluk",
                  static_cast<unsigned long long>(v / 1'000));
  } else {
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
  }
  return buf;
}

std::string fmt_s(double s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1fs", s);
  return buf;
}

}  // namespace

ProgressMonitor::ProgressMonitor(const HeartbeatOptions& opt,
                                 std::ostream& err)
    : opt_(opt), err_(&err) {
  if (opt_.interval_s <= 0.0) opt_.interval_s = 5.0;
  stall_s_ = opt_.stall_s > 0.0
                 ? opt_.stall_s
                 : std::max(30.0, 6.0 * opt_.interval_s);
  set_heartbeat_enabled(true);
  telemetry::emit("progress_begin",
                  {{"interval_s", opt_.interval_s}, {"stall_s", stall_s_}});
  thread_ = std::thread([this] { run(); });
}

ProgressMonitor::~ProgressMonitor() { stop(); }

void ProgressMonitor::stop() {
  {
    const std::scoped_lock lock(mu_);
    if (stopped_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    const std::scoped_lock lock(mu_);
    stopped_ = true;
  }
  set_heartbeat_enabled(false);
  telemetry::emit("progress_end", {{"beats", beats()}, {"stalls", stalls()}});
}

void ProgressMonitor::run() {
  auto& board = ActivityBoard::instance();
  auto& reg = telemetry::Registry::global();
  const std::uint64_t t0 = monotonic_ns();
  std::uint64_t prev_ticks = board.total_progress();
  std::uint64_t prev_ns = t0;
  std::uint64_t last_advance_ns = t0;
  bool stall_reported = false;

  std::unique_lock lk(mu_);
  while (!stop_requested_) {
    cv_.wait_for(lk,
                 std::chrono::duration<double>(opt_.interval_s),
                 [this] { return stop_requested_; });
    if (stop_requested_) break;
    lk.unlock();

    const std::uint64_t now = monotonic_ns();
    const std::uint64_t ticks = board.total_progress();
    const double dt = static_cast<double>(now - prev_ns) * 1e-9;
    const std::uint64_t rate =
        dt > 0.0 ? static_cast<std::uint64_t>(
                       static_cast<double>(ticks - prev_ticks) / dt)
                 : 0;
    const std::uint64_t beat =
        beats_.fetch_add(1, std::memory_order_relaxed) + 1;
    const double elapsed = static_cast<double>(now - t0) * 1e-9;
    // Merged-registry tallies lag live workers until batch end, but give
    // the long-horizon picture the board's raw ticks cannot.
    const std::uint64_t decisions = reg.counter("search.decisions").value();
    const std::uint64_t backtracks = reg.counter("search.backtracks").value();
    const std::int64_t queue_hw = reg.gauge("engine.queue_depth").high_water();

    std::string line = "[waveck hb#" + std::to_string(beat) + " t=" +
                       fmt_s(elapsed) + "] gate_evals=" + compact(ticks) +
                       " (+" + compact(rate) + "/s) decisions=" +
                       compact(decisions) + " backtracks=" +
                       compact(backtracks) + " queue_hw=" +
                       std::to_string(queue_hw);
    int active = 0;
    for (int w = 0; w < ActivityBoard::kMaxWorkers; ++w) {
      const WorkerActivity& s = board.slot(w);
      const char* out = s.output.load(std::memory_order_relaxed);
      if (out == nullptr) continue;
      ++active;
      const char* stage = s.stage.load(std::memory_order_relaxed);
      const double in_check =
          static_cast<double>(now -
                              s.since_ns.load(std::memory_order_relaxed)) *
          1e-9;
      line += " | w" + std::to_string(w) + " " + out + " " +
              (stage != nullptr ? stage : "-") + " d=" +
              std::to_string(s.depth.load(std::memory_order_relaxed)) +
              " " + fmt_s(in_check);
    }
    *err_ << line << "\n" << std::flush;
    telemetry::emit("heartbeat", {{"n", beat},
                                  {"elapsed_s", elapsed},
                                  {"gate_evals", ticks},
                                  {"gate_evals_per_s", rate},
                                  {"decisions", decisions},
                                  {"backtracks", backtracks},
                                  {"queue_hw", queue_hw},
                                  {"active", active}});

    // An all-idle board is not a stall: a long-lived daemon with no work in
    // flight makes no progress by design, and a spurious stall here would
    // both cry wolf on stderr and burn the blackbox dump cooldown right
    // before a real wedge. The stall window starts when a worker opens a
    // check (the board slot goes active) and its ticks stop advancing.
    if (ticks != prev_ticks || active == 0) {
      last_advance_ns = now;
      stall_reported = false;
    } else if (!stall_reported &&
               static_cast<double>(now - last_advance_ns) * 1e-9 >=
                   stall_s_) {
      stall_reported = true;  // once per stall episode
      stalls_.fetch_add(1, std::memory_order_relaxed);
      const double stalled_s =
          static_cast<double>(now - last_advance_ns) * 1e-9;
      *err_ << "[waveck watchdog] no progress for " << fmt_s(stalled_s)
            << "; active checks:\n";
      int dumped = 0;
      for (int w = 0; w < ActivityBoard::kMaxWorkers; ++w) {
        const WorkerActivity& s = board.slot(w);
        const char* out = s.output.load(std::memory_order_relaxed);
        if (out == nullptr) continue;
        ++dumped;
        const char* stage = s.stage.load(std::memory_order_relaxed);
        const double in_check =
            static_cast<double>(
                now - s.since_ns.load(std::memory_order_relaxed)) *
            1e-9;
        *err_ << "  w" << w << ": " << out << " stage="
              << (stage != nullptr ? stage : "-") << " depth="
              << s.depth.load(std::memory_order_relaxed) << " chk#"
              << s.chk.load(std::memory_order_relaxed) << " elapsed="
              << fmt_s(in_check) << "\n";
      }
      if (dumped == 0) *err_ << "  (no check in flight)\n";
      *err_ << std::flush;
      telemetry::emit("watchdog_stall",
                      {{"stalled_s", stalled_s}, {"active", dumped}});
      // Post-mortem evidence: mark the stall in the rings, then flush them
      // to the blackbox (no-op unless --blackbox armed a directory).
      flight::record(flight::Kind::kMark, "watchdog_stall", 0,
                     static_cast<std::int64_t>(dumped));
      const std::string path = flight::dump_blackbox("watchdog_stall");
      if (!path.empty()) {
        *err_ << "[waveck watchdog] flight recorder dumped to " << path
              << "\n" << std::flush;
      }
      if (opt_.on_stall) opt_.on_stall();
    }
    prev_ticks = ticks;
    prev_ns = now;
    lk.lock();
  }
}

}  // namespace waveck::prof
