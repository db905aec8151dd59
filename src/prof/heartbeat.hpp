// Live progress heartbeat and soft watchdog (perf observatory, pillar 3).
//
// Under --progress [SECS] a ProgressMonitor thread periodically emits a
// one-line status to stderr and a "heartbeat" JSONL trace event, and — when
// no progress tick has arrived for the stall window — a thread-dump-style
// snapshot of what every worker is doing ("watchdog_stall"). This is the
// seed of the serve daemon's wedged-worker detection (ROADMAP item 1).
//
// The monitor reads the flight recorder's per-thread slots
// (common/flight_recorder.hpp), not the registry: under --jobs N the
// workers accumulate into private ScopedRegistry instances that only merge
// into the global registry at batch end, so the monitor cannot see live
// progress there. Each live thread's slot holds its open check, stage,
// check id, start time and decision depth, and a monotonically increasing
// progress tick that the fixpoint drain advances by its gate-evaluation
// count. Producers write their slot unconditionally (plain stores, no
// read-modify-write), whether or not a monitor is running.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <thread>
#include <condition_variable>
#include <mutex>

namespace waveck::prof {

struct HeartbeatOptions {
  double interval_s = 5.0;
  /// No-progress window before a watchdog snapshot; <= 0 picks
  /// max(30, 6 * interval).
  double stall_s = 0.0;
  /// Invoked (from the monitor thread) once per stall episode, after the
  /// stderr snapshot, the "watchdog_stall" trace event, and the automatic
  /// flight-recorder blackbox dump. The serve daemon hangs its structured
  /// stats line here.
  std::function<void()> on_stall;
};

/// Owns the monitor thread; construction emits "progress_begin", stop() (or
/// destruction) emits "progress_end" with the beat/stall totals so traces
/// can assert balanced brackets.
class ProgressMonitor {
 public:
  ProgressMonitor(const HeartbeatOptions& opt, std::ostream& err);
  ~ProgressMonitor();
  ProgressMonitor(const ProgressMonitor&) = delete;
  ProgressMonitor& operator=(const ProgressMonitor&) = delete;

  void stop();
  [[nodiscard]] std::uint64_t beats() const {
    return beats_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t stalls() const {
    return stalls_.load(std::memory_order_relaxed);
  }

 private:
  void run();

  HeartbeatOptions opt_;
  double stall_s_ = 0.0;
  std::ostream* err_;
  std::atomic<std::uint64_t> beats_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace waveck::prof
