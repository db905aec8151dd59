// Multi-tenant resident-circuit registry for the serve daemon.
//
// Each `load` materialises a ResidentCircuit: the finalized netlist plus
// the expensive per-circuit state the offline CLI rebuilds on every
// invocation — a Verifier (whose prepare_shared() analyses and
// CarrierCache persist across requests) and a CheckScheduler for
// whole-circuit suites. Entries are keyed by namespace name; the content
// hash (netlist/content_hash.hpp) pins the identity: re-loading the same
// structure under the same name is idempotent, a different structure is a
// hash_mismatch error, never a silent swap.
//
// Thread model: the registry map is mutex-guarded (IO thread loads/unloads
// while the worker resolves names). The ResidentCircuit internals
// (Verifier, scheduler, stats) are NOT locked here — every check runs on
// the single worker thread, which is the only caller of check_* on a
// resident entry. shared_ptr keeps an entry alive across an unload that
// races an in-flight check.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/telemetry.hpp"
#include "netlist/circuit.hpp"
#include "sched/check_scheduler.hpp"
#include "verify/verifier.hpp"

namespace waveck::serve {

/// Relaxed atomics throughout (the TimeHistograms too): the worker thread
/// writes, `list`/`stats`/`metrics` snapshots read from the IO thread.
struct ResidentStats {
  std::atomic<std::uint64_t> checks{0};   // engine runs on this circuit
  std::atomic<std::uint64_t> requests{0};  // check requests answered (fanout)
  std::atomic<std::uint64_t> deduped{0};   // requests satisfied by a twin run
  std::atomic<std::uint64_t> batches{0};  // worker batches on this circuit
  std::atomic<std::uint64_t> prepare_runs{0};  // stays at 1: state resident
  /// Request latency split at the queue/engine boundary: `queued_us` is
  /// enqueue -> worker pickup, `engine_us` is pickup -> response ready. The
  /// split is the diagnosis: a fat queued tail means admission pressure
  /// (raise queue_cap / add daemons), a fat engine tail means the checks
  /// themselves are slow (look at the circuit, not the daemon).
  telemetry::TimeHistogram queued_us;
  telemetry::TimeHistogram engine_us;
};

class ResidentCircuit {
 public:
  /// `c` must be finalized. `jobs` is the scheduler fan-out for
  /// whole-circuit checks (1 = serial inline). `cancel_flag` (may be null)
  /// is installed as the verifier's cancel flag *before* the entry is
  /// published in the registry: once another thread can see this circuit
  /// and run checks on it, nothing mutates the verifier's cancellation
  /// wiring anymore.
  ResidentCircuit(std::string name, Circuit c, std::size_t jobs,
                  const std::atomic<bool>* cancel_flag);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& hash() const { return hash_; }
  [[nodiscard]] const Circuit& circuit() const { return circuit_; }
  /// Circuit::longest_path, computed once at load: a check's delta is in
  /// range iff Circuit::delta_in_range(delta, longest_path()).
  [[nodiscard]] std::int64_t longest_path() const { return longest_path_; }
  [[nodiscard]] Verifier& verifier() { return verifier_; }
  [[nodiscard]] sched::CheckScheduler& scheduler() { return scheduler_; }
  [[nodiscard]] ResidentStats& stats() { return stats_; }

  /// Runs the shared analyses once; later calls are no-ops (worker thread
  /// only). Returns true when this call did the work.
  bool ensure_prepared();

 private:
  std::string name_;
  std::string hash_;
  Circuit circuit_;  // must outlive verifier_ (holds a const reference)
  std::int64_t longest_path_;
  Verifier verifier_;
  sched::CheckScheduler scheduler_;
  ResidentStats stats_;
  bool prepared_ = false;
};

using ResidentPtr = std::shared_ptr<ResidentCircuit>;

struct LoadOutcome {
  ResidentPtr resident;        // null on hash_mismatch
  bool already_loaded = false; // same name + same hash: idempotent no-op
  bool hash_mismatch = false;  // same name, different structure
  std::string existing_hash;   // filled on both non-fresh outcomes
};

struct ResidentInfo {
  std::string name;
  std::string hash;
  std::size_t nets = 0;
  std::size_t gates = 0;
  std::size_t inputs = 0;
  std::size_t outputs = 0;
  std::uint64_t checks = 0;
};

class CircuitRegistry {
 public:
  /// `cancel_flag` (may be null) is handed to every ResidentCircuit at
  /// construction — see the ResidentCircuit constructor contract.
  explicit CircuitRegistry(std::size_t jobs,
                           const std::atomic<bool>* cancel_flag = nullptr)
      : jobs_(jobs), cancel_flag_(cancel_flag) {}

  /// Registers `c` under `name` (see LoadOutcome for the collision rules).
  [[nodiscard]] LoadOutcome load(const std::string& name, Circuit c);
  /// Removes the entry; in-flight checks keep their shared_ptr. Returns
  /// false when the name is not resident.
  bool unload(const std::string& name);
  [[nodiscard]] ResidentPtr get(const std::string& name);
  /// Name-sorted snapshot for the `list` op.
  [[nodiscard]] std::vector<ResidentInfo> list();
  /// Name-sorted snapshot of the resident entries themselves — the
  /// stats/metrics ops read per-namespace counters and latency histograms
  /// directly (all relaxed atomics, safe against the worker).
  [[nodiscard]] std::vector<ResidentPtr> snapshot();
  [[nodiscard]] std::size_t size();

 private:
  std::size_t jobs_;
  const std::atomic<bool>* cancel_flag_;
  std::mutex mu_;
  std::unordered_map<std::string, ResidentPtr> by_name_;
};

}  // namespace waveck::serve
