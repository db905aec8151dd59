// Shared plumbing of the waveck end-to-end benchmark: clocks, sample
// statistics, the verdict fingerprint, the metric sink and the span
// recorder that times every call the benchmark makes into an engine layer.
//
// The benchmark drives waveck only through its public API; every timing in
// here is taken from outside the engine, around the call.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ----- clocks ---------------------------------------------------------------
/// Monotonic wall clock in ns.
[[nodiscard]] std::uint64_t wall_ns();
/// CPU time of the whole process (every thread) in seconds.
[[nodiscard]] double process_cpu_s();
/// Peak resident set size of the process in MiB.
[[nodiscard]] double peak_rss_mb();

// ----- statistics -----------------------------------------------------------
/// Nearest-rank quantile (q in [0,1]) of an unsorted sample; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
/// Harrell–Davis quantile (q in (0,1)): a Beta-weighted mean of every
/// order statistic. On a few samples it moves less than one order
/// statistic does when one sample moves; 0 when empty.
[[nodiscard]] double hd_quantile(std::vector<double> v, double q);

// ----- fingerprint ----------------------------------------------------------
/// FNV-1a 64 over a stream of facts. Only deterministic engine outputs go
/// in (verdicts, witnesses, δ values, search counts), never timings.
class Fingerprint {
 public:
  Fingerprint& add(std::string_view s);
  Fingerprint& add(std::int64_t v);
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// ----- metrics --------------------------------------------------------------
struct Metric {
  double value = 0.0;
  std::string unit;
};
/// Name -> metric, printed sorted.
using Metrics = std::map<std::string, Metric>;

// ----- span recorder --------------------------------------------------------
/// Every layer call the benchmark makes, by the layer it belongs to. A
/// span's layer is the prefix of its op name.
enum class Op : std::uint8_t {
  kParse,        // netlist: read_bench_string
  kDecompose,    // netlist: decompose_for_solver
  kNorMap,       // netlist: map_to_nor + uniform delay
  kScoap,        // analysis: Verifier::scoap
  kLearning,     // analysis: Verifier::learning
  kStems,        // analysis: Verifier::reconvergent_stems
  kDelaySearch,  // verify: Verifier::exact_floating_delay(probe)
  kCheck,        // verify: Verifier::check_circuit (serial suite check)
  kSchedCheck,   // sched: CheckScheduler::check_circuit
  kWitness,      // sim: simulate_floating replay of a V witness
  kOracle,       // sim: exhaustive / sampled floating-delay oracle
  kServeCheck,   // serve: one check request, send -> response
  kServeStats,   // serve: stats poll
  kServeLoad,    // serve: load request (parse + prepare on the worker)
  kServeUnload,  // serve: unload request
  kCpuProbe,     // bench: choosing the quietest CPU (QuietCpu)
  kCount
};
inline constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::kCount);
[[nodiscard]] const char* op_name(Op op);
/// "netlist", "analysis", "verify", "sched", "sim" or "serve".
[[nodiscard]] std::string layer_of(Op op);

/// Per-op totals: calls and summed wall ns (always kept, traced or not).
struct OpTotals {
  std::array<std::uint64_t, kNumOps> calls{};
  std::array<std::uint64_t, kNumOps> ns{};
  [[nodiscard]] double seconds(Op op) const {
    return static_cast<double>(ns[static_cast<std::size_t>(op)]) * 1e-9;
  }
};

struct SpanRecord {
  Op op;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::int64_t parent;  // index into the recorder, -1 for a root span
  std::int64_t job;     // circuit flow / request id; spans of one job share it
  int thread;           // recorder-assigned thread number
};

/// Process-wide span recorder. Recording (the traced run) is off by
/// default; the per-op totals are kept either way.
class Recorder {
 public:
  static void set_recording(bool on);
  [[nodiscard]] static bool recording();
  /// Snapshot of the per-op totals (all threads).
  [[nodiscard]] static OpTotals totals();
  /// Copy of every recorded span, in start order per thread.
  [[nodiscard]] static std::vector<SpanRecord> spans();
  /// Writes the spans as JSONL (one object per line after `header`).
  static bool write_jsonl(const std::string& path, const std::string& header);
};

/// RAII span around one layer call. `job` groups the spans of one circuit
/// flow or one served request.
class Span {
 public:
  Span(Op op, std::int64_t job);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Ends the span now (idempotent) and returns its duration in seconds.
  double stop();

 private:
  Op op_;
  std::int64_t job_;
  std::uint64_t start_;
  std::int64_t index_ = -1;  // recorded span slot, -1 when not recording
  bool open_ = true;
  double seconds_ = 0.0;
};

/// Self time per layer, total root-span coverage and span count over the
/// recorded spans whose start lies in [from_ns, to_ns).
struct TraceSummary {
  std::map<std::string, double> self_s;  // layer -> seconds
  double covered_s = 0.0;                // union of root spans
  std::size_t spans = 0;
};
[[nodiscard]] TraceSummary summarize(const std::vector<SpanRecord>& spans,
                                     std::uint64_t from_ns,
                                     std::uint64_t to_ns);

}  // namespace perfbench
