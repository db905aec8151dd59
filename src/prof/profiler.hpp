// In-process sampling profiler (perf observatory, pillar 2).
//
// A SIGPROF handler driven by setitimer(ITIMER_PROF) captures a backtrace(3)
// stack into a preallocated ring of fixed-size records — the handler does no
// allocation, no locking, and no symbolization, only an atomic slot claim
// plus reads of the thread's flight::Slot (check output name and pipeline
// stage, written by prof::CheckSpan/StageSpan). Because ITIMER_PROF counts
// process CPU time, samples land on whichever thread is burning cycles, so
// --jobs N workers are profiled together.
//
// stop() symbolizes once (backtrace_symbols + __cxa_demangle), prepends two
// synthetic annotation frames — "check:<output>" and "stage:<stage>" — to
// each stack, and folds everything into
//   * collapsed-stack text ("frame;frame;frame count" per line, the format
//     flamegraph.pl and speedscope both ingest), and
//   * a speedscope-compatible JSON document ("type":"sampled").
// The annotation frames are what let a flamegraph separate fixpoint vs FAN
// vs stem-correlation time per check even where C++ inlining muddies the
// raw frames.
//
// One profiler per process (SIGPROF is process-wide); start/stop from the
// main thread. Tool binaries need -rdynamic for backtrace_symbols to see
// function names.
#pragma once

#include <cstdint>
#include <string>

namespace waveck::prof {

struct ProfilerOptions {
  std::uint32_t hz = 997;        // off the 1000Hz beat of timer interrupts
  std::size_t max_samples = 1u << 16;
};

struct ProfileReport {
  std::size_t samples = 0;
  std::size_t dropped = 0;       // ring full; raise max_samples
  double cpu_seconds = 0.0;      // samples / hz
  std::string folded;            // collapsed-stack text
  std::string speedscope_json;
};

class SamplingProfiler {
 public:
  [[nodiscard]] static SamplingProfiler& instance();

  /// Arms the timer. Returns false (with *error set) if already running or
  /// the platform lacks SIGPROF/backtrace support.
  bool start(const ProfilerOptions& opt, std::string* error = nullptr);
  [[nodiscard]] bool running() const;
  /// Disarms, symbolizes, folds. Safe to call when not running (empty
  /// report).
  ProfileReport stop();

 private:
  SamplingProfiler() = default;
};

}  // namespace waveck::prof
