#include "prof/heartbeat.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "common/flight_recorder.hpp"
#include "common/telemetry.hpp"
#include "prof/perf_counters.hpp"

namespace waveck::prof {

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

/// Sum of every slot's progress tick; the watchdog's liveness signal.
std::uint64_t total_progress() {
  std::uint64_t total = 0;
  for (const flight::Slot& s : flight::slots()) {
    total += s.progress.load(std::memory_order_relaxed);
  }
  return total;
}

/// One busy thread's activity, read from its slot: worker id, what it is
/// doing, stage, depth, check id and seconds since it started.
struct Busy {
  int w;
  const char* what;
  const char* stage;
  std::int64_t depth, chk;
  double seconds;
};

std::vector<Busy> busy_threads(std::uint64_t now) {
  std::vector<Busy> out;
  for (const flight::Slot& s : flight::slots()) {
    const char* what = s.check.load(std::memory_order_acquire);
    if (!s.live.load(std::memory_order_relaxed) || what == nullptr) continue;
    const char* stage = s.stage.load(std::memory_order_relaxed);
    // A thread that went busy after `now` was read has not started yet.
    const std::uint64_t since = s.since_ns.load(std::memory_order_relaxed);
    out.push_back({s.worker.load(std::memory_order_relaxed), what,
                   stage != nullptr ? stage : "-",
                   s.depth.load(std::memory_order_relaxed),
                   s.chk.load(std::memory_order_relaxed),
                   static_cast<double>(now > since ? now - since : 0) * 1e-9});
  }
  return out;
}

}  // namespace

ProgressMonitor::ProgressMonitor(const HeartbeatOptions& opt,
                                 std::ostream& err)
    : opt_(opt), err_(&err) {
  if (opt_.interval_s <= 0.0) opt_.interval_s = 5.0;
  stall_s_ = opt_.stall_s > 0.0
                 ? opt_.stall_s
                 : std::max(30.0, 6.0 * opt_.interval_s);
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
  telemetry::emit("progress_end", {{"beats", beats()}, {"stalls", stalls()}});
}

void ProgressMonitor::run() {
  auto& reg = telemetry::Registry::global();
  const std::uint64_t t0 = telemetry::monotonic_ns();
  std::uint64_t prev_ticks = total_progress();
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

    const std::uint64_t now = telemetry::monotonic_ns();
    const std::uint64_t ticks = total_progress();
    const double dt = static_cast<double>(now - prev_ns) * 1e-9;
    const std::uint64_t rate =
        dt > 0.0 ? static_cast<std::uint64_t>(
                       static_cast<double>(ticks - prev_ticks) / dt)
                 : 0;
    const std::uint64_t beat =
        beats_.fetch_add(1, std::memory_order_relaxed) + 1;
    const double elapsed = static_cast<double>(now - t0) * 1e-9;
    // Merged-registry tallies lag live workers until batch end, but give
    // the long-horizon picture the slots' raw ticks cannot.
    const std::uint64_t decisions = reg.counter("search.decisions").value();
    const std::uint64_t backtracks = reg.counter("search.backtracks").value();
    const std::int64_t queue_hw = reg.gauge("engine.queue_depth").high_water();

    std::string line = "[waveck hb#" + std::to_string(beat) + " t=" +
                       fmt_s(elapsed) + "] gate_evals=" + compact(ticks) +
                       " (+" + compact(rate) + "/s) decisions=" +
                       compact(decisions) + " backtracks=" +
                       compact(backtracks) + " queue_hw=" +
                       std::to_string(queue_hw);
    const std::vector<Busy> busy = busy_threads(now);
    for (const Busy& b : busy) {
      line += " | w" + std::to_string(b.w) + " " + b.what + " " + b.stage +
              " d=" + std::to_string(b.depth) + " " + fmt_s(b.seconds);
    }
    *err_ << line << "\n" << std::flush;
    telemetry::emit("heartbeat", {{"n", beat},
                                  {"elapsed_s", elapsed},
                                  {"gate_evals", ticks},
                                  {"gate_evals_per_s", rate},
                                  {"decisions", decisions},
                                  {"backtracks", backtracks},
                                  {"queue_hw", queue_hw},
                                  {"active", busy.size()}});

    // No busy thread is not a stall: a long-lived daemon with no work in
    // flight makes no progress by design, and a spurious stall here would
    // both cry wolf on stderr and burn the blackbox dump cooldown right
    // before a real wedge. The stall window starts when a thread opens a
    // check (its slot goes busy) and the ticks stop advancing.
    if (ticks != prev_ticks || busy.empty()) {
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
      for (const Busy& b : busy) {
        *err_ << "  w" << b.w << ": " << b.what << " stage=" << b.stage
              << " depth=" << b.depth << " chk#" << b.chk
              << " elapsed=" << fmt_s(b.seconds) << "\n";
      }
      *err_ << std::flush;
      telemetry::emit("watchdog_stall",
                      {{"stalled_s", stalled_s}, {"active", busy.size()}});
      // Post-mortem evidence: mark the stall in the rings, then flush them
      // to the blackbox (no-op unless --blackbox armed a directory).
      flight::record(flight::Kind::kMark, "watchdog_stall", 0,
                     static_cast<std::int64_t>(busy.size()));
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
