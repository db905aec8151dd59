// The benchmark's workloads and the measurement loop they share.
//
// A workload is set up several times (the median set-up is `setup_s`), then
// runs a fixed number of identical iterations. End-to-end
// metrics come from untraced iterations only; with --trace 1 iterations
// alternate untraced/traced and the per-layer metrics come from the traced
// ones, next to the traced-minus-untraced wall (`trace.overhead_s`).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;     // small inputs, for the benchmark's own test
  std::string work_dir;   // scratch files (served netlists, span trace)
};

struct Outcome {
  Metrics metrics;  // end-to-end (untraced) or per-layer (traced) set
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log
  std::string fingerprint;
  std::string fingerprint_detail;  // per-part digests, for a changed digest
};

/// Records a failed verdict/replay/protocol check (kept to the first 20
/// messages; every one is counted).
void fail(Outcome& out, const std::string& what);

/// Registry counters and stage timers read around every iteration.
struct EngineCounters {
  std::uint64_t decisions = 0, backtracks = 0, conflicts = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0, dom_rebuilds = 0;
  std::uint64_t gate_evals = 0, level_sweeps = 0, scalar_tail = 0;
  std::uint64_t narrowings = 0, checks_skipped = 0;
  double narrowing_s = 0, gitd_s = 0, stem_s = 0, case_analysis_s = 0;
  [[nodiscard]] static EngineCounters read();
  [[nodiscard]] EngineCounters minus(const EngineCounters& o) const;
  void add(const EngineCounters& o);
  [[nodiscard]] double stage_s() const {
    return narrowing_s + gitd_s + stem_s + case_analysis_s;
  }
};

/// One measured iteration: its window, CPU time and layer accounting.
struct Iteration {
  bool traced = false;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  double cpu_s = 0.0;
  OpTotals ops;             // per-op deltas over the iteration
  EngineCounters engine;    // registry deltas over the iteration
  [[nodiscard]] double wall_s() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// Iterations a run measures: `seconds` over `nominal_s`, the workload's
/// iteration time at the seed commit, rounded up. The count depends
/// on the budget, never on how fast the build under test runs, so every
/// commit takes its best of the same number of samples.
[[nodiscard]] std::size_t iteration_count(double seconds, double nominal_s);

/// A run starts no iteration after this share of `seconds` has passed,
/// so that a host in a slow stretch cannot stretch the run without
/// bound. At normal speed the fixed count ends well before it.
inline constexpr double kDeadlineShare = 1.15;

/// Runs `body(i)` `count` times (at least twice with `trace`, odd
/// iterations recorded), starting none after `deadline_s` seconds.
[[nodiscard]] std::vector<Iteration> run_iterations(
    std::size_t count, bool trace, double deadline_s,
    const std::function<void(std::size_t)>& body);

/// Keeps a single-threaded measurement on the least contended CPU. On a
/// shared host a vCPU can run 1.5x slower than its siblings for tens of
/// seconds while another guest loads the core behind it, and the kernel
/// has no reason to move a busy thread off it. `step()` times a short
/// L2-resident pointer chase on every CPU the process may use and pins
/// the calling thread to the fastest, at most every `kInterval` seconds;
/// the destructor restores the original CPU mask. Without the right to
/// set affinity it does nothing.
class QuietCpu {
 public:
  static constexpr double kInterval = 0.25;
  QuietCpu();
  ~QuietCpu();
  QuietCpu(const QuietCpu&) = delete;
  QuietCpu& operator=(const QuietCpu&) = delete;
  /// Re-chooses the CPU when `kInterval` has passed since the last choice.
  void step(std::int64_t job);

 private:
  std::vector<int> cpus_;  // allowed at construction
  std::uint64_t last_ns_ = 0;
  bool any_ = false;  // a choice was made (the mask needs restoring)
};

/// Times `setup` `times` times; returns the median seconds.
[[nodiscard]] double timed_setups(int times, const std::function<void()>& setup);

/// Per-layer metrics shared by every workload, from the traced
/// iterations: span-timed layer calls, registry deltas, span self times,
/// unattributed time and the tracing overhead. Workload-specific entries
/// (serve.*, netlist.gates, search.probes, sim.oracle_s) are added by the
/// caller; every name the benchmark declares is present, 0 where a layer
/// does not run in the workload.
[[nodiscard]] Metrics layer_metrics(const std::vector<Iteration>& its);

/// The three workloads (flows.cpp, serve_mix.cpp).
Outcome run_table1_suite(const RunConfig& cfg);
Outcome run_c6288_delay(const RunConfig& cfg);
Outcome run_serve_mix(const RunConfig& cfg);

}  // namespace perfbench
