// The engine's event spine, its always-on flight recorder, and the table of
// per-thread slots both live in. Every engine event (check and stage spans,
// FAN decisions/backtracks, propagations, cache queries, serve request
// lifecycle) is written once, by `record()`, into a lock-free, fixed-size
// per-thread ring of compact binary records; when a trace sink is installed,
// the same call also hands the sink the event's JSONL line, rendered by the
// formatter the dump uses, so the trace and the dump share one schema and
// one writer.
//
// Unlike the trace sink — opt-in, allocating, unbounded — the recorder is
// meant to stay on in production: each record is one 64-byte struct copy
// into the thread's ring plus one release store, with no allocation, no
// locks and no formatting on the hot path. The rings hold the last ~4096
// records per thread; when something goes wrong (watchdog stall, deadline
// expiry, fatal signal, explicit `--blackbox DIR`) the rings are merged
// chronologically and dumped as explain-compatible JSONL, so `waveck
// explain` can reconstruct the final seconds before the incident.
//
// Each live thread owns one `Slot` of a fixed 64-entry table: its ring plus
// what it is doing right now (worker id, open check and stage, span ids,
// decision depth, progress tick). The heartbeat, the watchdog, the
// profiler's SIGPROF handler and the dumps all read the same slots. A
// thread claims a slot on first use and returns it when it exits; the next
// thread to claim it keeps appending to its ring, so a dump still sees the
// records of an exited thread until its successor overwrites them.
//
// Concurrency model: each slot has exactly one writer (its owning thread),
// which writes with plain atomic stores, never a read-modify-write. A
// ring's head index is published with a release store after the record
// body, and readers re-check the head after copying to discard records that
// were overwritten mid-read (seqlock-style).
//
// The fatal-signal path (`dump_signal_safe`) uses only async-signal-safe
// operations: no allocation, no locks, manual integer formatting, write(2).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>

#include "common/telemetry.hpp"

namespace waveck::flight {

/// Record kind: one per engine event. `record()` is the only writer of
/// these events; the kind-specific slots below are also the trace fields the
/// event's JSONL line carries, in this order (doc/OBSERVABILITY.md has the
/// full table). Letters (status, conclusion) are stored in `aux` as the
/// character itself; enumerated words index `Word`.
enum class Kind : std::uint8_t {
  kNone = 0,        // unwritten slot
  kCheckBegin,      // check_begin      name=output  a=delta
  kCheckEnd,        // check_end        name=output  aux=conclusion a=ns
                    //                  (b=delta, ring-only; see dump())
  kStageBegin,      // stage_begin      name=stage
  kStageEnd,        // stage_end        name=stage   aux=status
  kDecision,        // decision         a=parent name=net aux=cls b=depth
  kDecisionClose,   // decision_close   aux=outcome (Word)
  kBacktrack,       // backtrack        name=net aux=cls b=depth
  kConflict,        // conflict         b=depth
  kSpurious,        // spurious_vector  b=depth
  kPropagate,       // propagate        c=queue a=applications b=revisions
                    //                  aux=status
  kCache,           // cache            aux=kind (Word)
  kGitdRound,       // gitd_round       a=narrowed
  kStem,            // stem             name=net aux=outcome (Word) a=narrowed
  kDelayCorrRound,  // delay_corr_round a=round b=gates_narrowed
  kServeRequest,    // serve_request    name=op a=queue depth after
  kServeResponse,   // serve_response   name=op a=bytes aux=ok
  kServeBatch,      // serve_batch      name=circuit a=group size b=unique runs
  kMark,            // mark             name=label (watchdog_stall, ...)
  kMaxKind = kMark,
};

/// Enumerated words carried in Record::aux: decision_close outcomes
/// (kTruncated only in dump tails; kRestart closes the decisions of a
/// search pass that stopped at its first conflict), stem outcomes and cache
/// kinds.
enum Word : std::uint8_t {
  kExhausted, kWitness, kAbandoned, kTruncated, kRestart,
  kRefuted, kOneSided, kBoth,
  kHit, kMiss, kDomRebuild,
};

/// Bytes of name payload a record can carry. Longer names are cut (at a
/// UTF-8 boundary) in the ring only; the trace line carries the full name.
/// The name is stored inline so a record stays valid after the string it
/// was copied from — a circuit unloaded by the serve daemon, say — is gone.
inline constexpr std::size_t kNameCap = 17;

/// One 64-byte flight record. Plain data so the ring write is a struct
/// copy; read back with strnlen-capped name access (no NUL at full width).
struct Record {
  std::uint64_t t_ns;   // CLOCK_MONOTONIC timestamp
  std::int64_t chk;     // enclosing check span id (-1 outside any check)
  std::int64_t dec;     // enclosing decision id (-1 at the search root)
  std::int64_t a;       // kind-specific (see Kind comments)
  std::int64_t b;       // kind-specific
  std::uint32_t c;      // kind-specific
  char name[kNameCap];  // kind-specific, truncated, not NUL-padded at cap
  std::uint8_t kind;    // Kind
  std::uint8_t aux;     // kind-specific letter or Word
  std::uint8_t w;       // worker id of the recording thread (clamped to 255)
};
static_assert(sizeof(Record) == 64, "flight records must stay cache-line");

/// Single-writer ring of the last kCapacity records of one thread.
class Ring {
 public:
  static constexpr std::size_t kCapacity = 4096;  // power of two, 256 KiB

  void push(const Record& r) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    slots_[h & (kCapacity - 1)] = r;
    head_.store(h + 1, std::memory_order_release);
  }
  [[nodiscard]] std::uint64_t head() const {
    return head_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const Record& slot(std::uint64_t i) const {
    return slots_[i & (kCapacity - 1)];
  }
  /// Test hook: forgets every record (readers see an empty ring). Racing a
  /// concurrent push is the caller's hazard.
  void reset_for_test() { head_.store(0, std::memory_order_release); }

 private:
  std::atomic<std::uint64_t> head_{0};
  // Not value-initialized: a reader only copies records below the head,
  // so a ring's pages stay untouched until it is written.
  Record slots_[kCapacity];
};

/// One live thread's slot: its flight ring and what the thread is doing.
/// Only the owning thread writes a slot; the heartbeat, the watchdog, the
/// SIGPROF handler and the dumps read it from anywhere. The identity fields
/// of a check (`check`, `delta`, `chk`) use release stores so a reader can
/// match them as a set (see dump()); the rest are relaxed. Cache-line
/// aligned, so two threads' slots never share a line.
struct alignas(64) Slot {
  Ring ring;  // keeps its head when the slot is recycled
  std::atomic<bool> live{false};  // claimed by a running thread
  std::atomic<int> worker{0};     // 0 main thread, 1..N pool workers
  std::atomic<std::int64_t> chk{-1};  // open check span id (-1 none)
  std::atomic<std::int64_t> dec{-1};  // open decision id (-1 search root)
  /// What the thread is busy with: an open check's output name (interned,
  /// process-lifetime) or a literal such as "load"; null when idle.
  std::atomic<const char*> check{nullptr};
  std::atomic<std::int64_t> delta{0};       // the open check's delta
  std::atomic<const char*> stage{nullptr};  // literal stage name, or null
  std::atomic<std::uint64_t> since_ns{0};   // CLOCK_MONOTONIC at busy()
  std::atomic<std::int64_t> depth{0};       // FAN decision depth
  /// Forward-progress tick (gate evaluations); monotonic, and kept when
  /// the slot is recycled, so the watchdog's sum never goes back.
  std::atomic<std::uint64_t> progress{0};

  /// Marks the thread busy with `what` since now, at stage "-", depth 0.
  void busy(const char* what, std::int64_t d = 0);
  /// Marks the thread idle.
  void idle() {
    check.store(nullptr, std::memory_order_release);
    stage.store(nullptr, std::memory_order_relaxed);
  }
  void tick(std::uint64_t n) {
    progress.store(progress.load(std::memory_order_relaxed) + n,
                   std::memory_order_relaxed);
  }
};

/// At most this many threads hold a registered slot at once. A thread that
/// finds the table full gets a private slot nobody reads: its events still
/// reach the trace, but not dumps or the heartbeat.
inline constexpr int kMaxRings = 64;

namespace detail {
extern std::atomic<bool> g_enabled;
// constinit: no dynamic initialization, so other translation units read
// it without a TLS wrapper call.
extern constinit thread_local Slot* t_slot;
Slot& claim_slot();  // slow path of self()
void record(Kind kind, std::string_view name, std::int64_t a, std::int64_t b,
            std::uint8_t aux, std::uint32_t c, std::string_view vector);
}  // namespace detail

/// Whether recording is on. Defaults to true (always-on observability);
/// WAVECK_FLIGHT=0 in the environment or set_enabled(false) turns it off.
/// One relaxed load — the same cost discipline as trace_enabled().
[[nodiscard]] inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// The calling thread's slot, claimed on first use and returned to the
/// table when the thread exits.
[[nodiscard]] inline Slot& self() {
  Slot* s = detail::t_slot;
  return s != nullptr ? *s : detail::claim_slot();
}

/// Every table slot a thread has claimed so far, live or released (its ring
/// may still hold records). Safe to walk from any thread.
[[nodiscard]] std::span<const Slot> slots();

/// Writes one engine event; the only writer of the events `Kind` lists.
/// When `enabled()`, appends the record to the calling thread's ring. When
/// a trace sink is installed, hands the sink the same event's JSONL line,
/// rendered by the dump's formatter from these arguments with the
/// full-length name plus `vector` — check_end's witness, the one field the
/// ring does not keep. `chk`, `dec` and `w` are read from the thread's
/// slot. With neither on, the cost is two relaxed loads and a branch.
inline void record(Kind kind, std::string_view name = {}, std::int64_t a = 0,
                   std::int64_t b = 0, std::uint8_t aux = 0,
                   std::uint32_t c = 0, std::string_view vector = {}) {
  if (enabled() || telemetry::trace_enabled()) {
    detail::record(kind, name, a, b, aux, c, vector);
  }
}

/// Snapshot of how much the recorder has seen: `rings` is the number of
/// table slots ever claimed (at most kMaxRings).
struct RecorderStats {
  int rings = 0;
  std::uint64_t records = 0;  // sum of ring heads (includes overwritten)
};
[[nodiscard]] RecorderStats stats();

/// Zeroes every ring (head reset; slots cleared lazily by overwrite being
/// ignored — a reset ring reports no records). Test hook; not signal-safe.
void reset_for_test();

/// Merged chronological dump of every ring as explain-compatible JSONL:
/// a leading `fr_dump` header event (reason, ring/record/drop counts), then
/// one trace-schema line per surviving record. Spans whose opening record
/// was already overwritten get a synthetic open: a check_begin (output and
/// delta from the check's surviving check_end) before the check's first
/// surviving record, and a stage_begin for the check's first surviving
/// stage_end that has none. A check with no surviving check_end is still
/// running, and its output and delta come from the slot whose `chk` it is.
/// Still-open spans get synthetic closes appended (decision_close
/// "truncated", stage_end "-", check_end "A"), so `explain::analyze_trace`
/// reports well_formed() == true on every dump this writer produces.
void dump(std::ostream& os, std::string_view reason);

/// Async-signal-safe variant for the fatal-signal handler: streams a k-way
/// merge of the rings to `fd` with manual formatting and write(2). Does not
/// sanitize (a crashing process gets raw data; explain tolerates truncated
/// traces with warnings). Disables recording first so the dump is stable.
void dump_signal_safe(int fd, const char* reason);

// ---------------------------------------------------------------------------
// Blackbox: where automatic dumps land.
// ---------------------------------------------------------------------------

/// Sets (or, with "", clears) the directory automatic dumps are written to.
/// Dump files are named flight-<reason>-<pid>-<n>.jsonl.
void set_blackbox_dir(std::string dir);
[[nodiscard]] bool blackbox_enabled();

/// Writes a dump into the blackbox directory, rate-limited per reason (a
/// serve daemon shedding load must not grind writing dumps): at most one
/// dump per reason per `cooldown_ns` (default 5 s; pass 0 to force).
/// Returns the path written, or "" when disabled, rate-limited, or the
/// file could not be opened.
std::string dump_blackbox(const char* reason,
                          std::uint64_t cooldown_ns = 5'000'000'000ULL);

/// Installs SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL handlers that write a
/// signal-safe dump to <blackbox_dir>/flight-fatal-<pid>.jsonl and re-raise
/// the default disposition. Requires set_blackbox_dir() first (the full
/// path is precomputed here; the handler itself formats nothing).
void install_fatal_handlers();

}  // namespace waveck::flight
