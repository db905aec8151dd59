#include "common/flight_recorder.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <ostream>
#include <unordered_set>
#include <vector>

#include "common/telemetry.hpp"

namespace waveck::flight {

namespace detail {

namespace {
bool initial_enabled() {
  const char* env = std::getenv("WAVECK_FLIGHT");
  return env == nullptr || std::strcmp(env, "0") != 0;
}
}  // namespace

std::atomic<bool> g_enabled{initial_enabled()};
constinit thread_local Slot* t_slot = nullptr;

namespace {
// The slot table, allocated by the first claim and never freed (post-mortem
// data): a slot's ring pages stay untouched until its thread records, and
// the fatal-signal path can walk the table without locks. `g_used` is the
// high-water mark: slots below it have been claimed at least once.
std::atomic<Slot*> g_table{nullptr};
std::atomic<int> g_used{0};

Slot* table() {
  static Slot* const t = [] {
    Slot* p = new Slot[kMaxRings];  // default-initialized: rings untouched
    g_table.store(p, std::memory_order_release);
    return p;
  }();
  return t;
}

// Set once the calling thread's lease has returned its slot: anything it
// records later (from another thread_local's destructor) goes to a private
// slot instead of re-entering the table.
thread_local bool t_released = false;

/// Returns the thread's slot when it exits: a table slot goes back to the
/// table, a private one is freed.
struct Lease {
  Slot* slot;
  bool shared;
  ~Lease() {
    t_slot = nullptr;
    t_released = true;
    if (!shared) {
      delete slot;
      return;
    }
    slot->idle();
    slot->chk.store(-1, std::memory_order_release);
    slot->live.store(false, std::memory_order_release);
  }
};

std::span<Slot> used_slots() {
  const int n = g_used.load(std::memory_order_acquire);
  if (n == 0) return {};
  return {g_table.load(std::memory_order_acquire),
          static_cast<std::size_t>(n)};
}
}  // namespace

Slot& claim_slot() {
  // The lowest free slot: a released slot, and the ring pages its last
  // thread touched, are reused before a fresh one is, which keeps the
  // table's resident memory to what the live threads need.
  Slot* const slots = table();
  Slot* s = nullptr;
  for (int i = 0; i < kMaxRings && !t_released; ++i) {
    bool free = false;
    if (!slots[i].live.load(std::memory_order_relaxed) &&
        slots[i].live.compare_exchange_strong(free, true,
                                              std::memory_order_acquire)) {
      s = &slots[i];
      int used = g_used.load(std::memory_order_relaxed);
      while (used <= i && !g_used.compare_exchange_weak(
                              used, i + 1, std::memory_order_release)) {
      }
      break;
    }
  }
  const bool shared = s != nullptr;
  if (!shared) s = new Slot;  // table full (or thread exiting): private
  s->worker.store(0, std::memory_order_relaxed);
  s->chk.store(-1, std::memory_order_release);
  s->dec.store(-1, std::memory_order_relaxed);
  s->depth.store(0, std::memory_order_relaxed);
  s->idle();
  t_slot = s;
  if (!t_released) {
    thread_local Lease lease{s, shared};
  }
  return *s;
}

}  // namespace detail

void Slot::busy(const char* what, std::int64_t d) {
  since_ns.store(telemetry::monotonic_ns(), std::memory_order_relaxed);
  stage.store(nullptr, std::memory_order_relaxed);
  depth.store(0, std::memory_order_relaxed);
  delta.store(d, std::memory_order_release);
  check.store(what, std::memory_order_release);
}

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::span<const Slot> slots() { return detail::used_slots(); }

RecorderStats stats() {
  RecorderStats s;
  const std::span<const Slot> table = slots();
  s.rings = static_cast<int>(table.size());
  for (const Slot& slot : table) s.records += slot.ring.head();
  return s;
}

void reset_for_test() {
  // Heads are advanced by owning threads only; a concurrent push during a
  // test reset is the test's hazard. Resetting the head to 0 makes the ring
  // report no readable records without touching slot contents.
  for (Slot& slot : detail::used_slots()) slot.ring.reset_for_test();
}

// ---------------------------------------------------------------------------
// Rendering. One formatter serves the trace sink, the sanitizing ostream
// dump and the async-signal-safe fd dump: everything below formats into a
// caller-provided buffer with no allocation, locks, or stdio.
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kLineCap = 512;

/// Bounded writer that also counts the bytes the whole line needs, so a
/// caller whose buffer was too small can render again into a larger one.
struct Buf {
  char* p;
  char* end;
  std::size_t need = 0;

  void ch(char c) {
    ++need;
    if (p < end) *p++ = c;
  }
  void lit(const char* s) {
    while (*s != '\0') ch(*s++);
  }
  void u64(std::uint64_t v) {
    char tmp[20];
    int n = 0;
    do {
      tmp[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (n > 0) ch(tmp[--n]);
  }
  void i64(std::int64_t v) {
    if (v < 0) {
      ch('-');
      u64(static_cast<std::uint64_t>(-(v + 1)) + 1);
    } else {
      u64(static_cast<std::uint64_t>(v));
    }
  }
  /// JSON string, escaped exactly as telemetry::json_escape does.
  void jstr(std::string_view s) {
    ch('"');
    for (const char c : s) {
      const auto u = static_cast<unsigned char>(c);
      if (c == '"' || c == '\\') {
        ch('\\');
        ch(c);
      } else if (c == '\n') {
        lit("\\n");
      } else if (c == '\t') {
        lit("\\t");
      } else if (u < 0x20) {
        lit("\\u00");
        static constexpr char kHex[] = "0123456789abcdef";
        ch(kHex[u >> 4]);
        ch(kHex[u & 0xf]);
      } else {
        ch(c);
      }
    }
    ch('"');
  }
  void key(const char* k) {
    ch(',');
    ch('"');
    lit(k);
    lit("\":");
  }
  void key_str(const char* k, std::string_view s) {
    key(k);
    jstr(s);
  }
  void key_letter(const char* k, std::uint8_t letter) {
    const char c = static_cast<char>(letter);
    key_str(k, {&c, 1});
  }
  void key_i64(const char* k, std::int64_t v) {
    key(k);
    i64(v);
  }
  void key_bool(const char* k, bool b) {
    key(k);
    lit(b ? "true" : "false");
  }
  /// ns duration rendered as seconds with 9 fractional digits.
  void key_seconds(const char* k, std::int64_t ns) {
    key(k);
    if (ns < 0) ns = 0;
    u64(static_cast<std::uint64_t>(ns) / 1'000'000'000ULL);
    ch('.');
    std::uint64_t frac = static_cast<std::uint64_t>(ns) % 1'000'000'000ULL;
    char tmp[9];
    for (int i = 8; i >= 0; --i) {
      tmp[i] = static_cast<char>('0' + frac % 10);
      frac /= 10;
    }
    for (char c : tmp) ch(c);
  }
};

constexpr const char* kWords[] = {
    "exhausted", "witness",   "abandoned", "truncated", "restart",
    "refuted",   "one_sided", "both",      "hit",       "miss",
    "dom_rebuild"};
static_assert(std::size(kWords) == kDomRebuild + 1, "one name per Word");

std::string_view word(std::uint8_t code) {
  return code < std::size(kWords) ? kWords[code] : "?";
}

const char* event_name(Kind kind) {
  switch (kind) {
    case Kind::kCheckBegin: return "check_begin";
    case Kind::kCheckEnd: return "check_end";
    case Kind::kStageBegin: return "stage_begin";
    case Kind::kStageEnd: return "stage_end";
    case Kind::kDecision: return "decision";
    case Kind::kDecisionClose: return "decision_close";
    case Kind::kBacktrack: return "backtrack";
    case Kind::kConflict: return "conflict";
    case Kind::kSpurious: return "spurious_vector";
    case Kind::kPropagate: return "propagate";
    case Kind::kCache: return "cache";
    case Kind::kGitdRound: return "gitd_round";
    case Kind::kStem: return "stem";
    case Kind::kDelayCorrRound: return "delay_corr_round";
    case Kind::kServeRequest: return "serve_request";
    case Kind::kServeResponse: return "serve_response";
    case Kind::kServeBatch: return "serve_batch";
    case Kind::kMark: return "mark";
    default: return nullptr;  // torn or unwritten slot
  }
}

/// Prefix of `name` that fits a record: at most kNameCap bytes, cut back to
/// a UTF-8 sequence boundary so a dump never carries half a character.
std::size_t ring_name_len(std::string_view name) {
  if (name.size() <= kNameCap) return name.size();
  std::size_t n = kNameCap;
  while (n > 0 && (static_cast<unsigned char>(name[n]) & 0xC0) == 0x80) --n;
  return n;
}

std::string_view record_name(const Record& r) {
  std::size_t n = 0;
  while (n < kNameCap && r.name[n] != '\0') ++n;
  return {r.name, n};
}

/// Renders the part of an event's JSONL line after the sink-stamped "ev",
/// "seq" and "t" keys: `,"w":..[,"chk":..][,"dec":..]`, the kind's fields
/// in trace order, and the closing `}` plus newline. `name` stands in for
/// the record's (possibly cut) name and `vector` adds check_end's witness.
/// Returns the bytes the line needs; at most `cap` of them are written.
std::size_t format_body(const Record& r, std::string_view name,
                        std::string_view vector, char* out, std::size_t cap) {
  Buf b{out, out + cap};
  b.lit(",\"w\":");
  b.u64(r.w);
  if (r.chk >= 0) b.key_i64("chk", r.chk);
  if (r.dec >= 0) b.key_i64("dec", r.dec);
  switch (static_cast<Kind>(r.kind)) {
    case Kind::kCheckBegin:
      b.key_str("output", name);
      b.key_i64("delta", r.a);
      break;
    case Kind::kCheckEnd:
      b.key_str("output", name);
      b.key_letter("conclusion", r.aux);
      b.key_seconds("seconds", r.a);
      if (!vector.empty()) b.key_str("vector", vector);
      break;
    case Kind::kStageBegin:
      b.key_str("stage", name);
      break;
    case Kind::kStageEnd:
      b.key_str("stage", name);
      b.key_letter("status", r.aux);
      break;
    case Kind::kDecision:
      b.key_i64("parent", r.a);
      b.key_str("net", name);
      b.key_bool("cls", r.aux != 0);
      b.key_i64("depth", r.b);
      break;
    case Kind::kDecisionClose:
      b.key_str("outcome", word(r.aux));
      break;
    case Kind::kBacktrack:
      b.key_str("net", name);
      b.key_bool("cls", r.aux != 0);
      b.key_i64("depth", r.b);
      break;
    case Kind::kConflict:
    case Kind::kSpurious:
      b.key_i64("depth", r.b);
      break;
    case Kind::kPropagate:
      b.key_i64("queue", r.c);
      b.key_i64("applications", r.a);
      b.key_i64("revisions", r.b);
      b.key_letter("status", r.aux);
      break;
    case Kind::kCache:
      b.key_str("kind", word(r.aux));
      break;
    case Kind::kGitdRound:
      b.key_i64("narrowed", r.a);
      break;
    case Kind::kStem:
      b.key_str("net", name);
      b.key_str("outcome", word(r.aux));
      b.key_i64("narrowed", r.a);
      break;
    case Kind::kDelayCorrRound:
      b.key_i64("round", r.a);
      b.key_i64("gates_narrowed", r.b);
      break;
    case Kind::kServeRequest:
      b.key_str("op", name);
      b.key_i64("queue", r.a);
      break;
    case Kind::kServeResponse:
      b.key_str("op", name);
      b.key_i64("bytes", r.a);
      b.key_bool("ok", r.aux != 0);
      break;
    case Kind::kServeBatch:
      b.key_str("circuit", name);
      b.key_i64("size", r.a);
      b.key_i64("unique", r.b);
      break;
    case Kind::kMark:
      b.key_str("name", name);
      break;
    default:
      break;
  }
  b.lit("}\n");
  return b.need;
}

/// Renders one record as a dump line (with trailing newline). `t0` rebases
/// timestamps so the dump starts at t=0. Returns the number of bytes
/// written to `out` (0 for a torn slot); async-signal-safe.
std::size_t format_record(const Record& r, std::uint64_t seq, std::uint64_t t0,
                          char* out, std::size_t cap) {
  const char* ev = event_name(static_cast<Kind>(r.kind));
  if (ev == nullptr) return 0;
  Buf b{out, out + cap};
  b.lit("{\"ev\":\"");
  b.lit(ev);
  b.lit("\",\"seq\":");
  b.u64(seq);
  b.lit(",\"t\":");
  b.u64(r.t_ns >= t0 ? r.t_ns - t0 : 0);
  const std::size_t head = std::min(b.need, cap);
  const std::size_t body =
      format_body(r, record_name(r), {}, out + head, cap - head);
  return std::min(head + body, cap);
}

std::size_t format_header(std::string_view reason, std::uint64_t rings,
                          std::uint64_t records, std::uint64_t dropped,
                          char* out, std::size_t cap) {
  Buf b{out, out + cap};
  b.lit("{\"ev\":\"fr_dump\",\"seq\":1,\"t\":0,\"w\":0");
  b.key_str("reason", reason.substr(0, 64));
  b.key_i64("rings", static_cast<std::int64_t>(rings));
  b.key_i64("records", static_cast<std::int64_t>(records));
  b.key_i64("dropped", static_cast<std::int64_t>(dropped));
  b.lit("}\n");
  return std::min(b.need, cap);
}

bool valid_kind(std::uint8_t k) {
  return k > 0 && k <= static_cast<std::uint8_t>(Kind::kMaxKind);
}

}  // namespace

// ---------------------------------------------------------------------------
// The spine: one call writes the ring record and the trace line.
// ---------------------------------------------------------------------------

void detail::record(Kind kind, std::string_view name, std::int64_t a,
                    std::int64_t b, std::uint8_t aux, std::uint32_t c,
                    std::string_view vector) {
  Slot& slot = self();
  Record rec{};
  rec.t_ns = telemetry::monotonic_ns();
  rec.chk = slot.chk.load(std::memory_order_relaxed);
  rec.dec = slot.dec.load(std::memory_order_relaxed);
  rec.a = a;
  rec.b = b;
  rec.c = c;
  // An empty name may have a null data(); memcpy from null is UB even for
  // zero bytes.
  const std::size_t n = ring_name_len(name);
  if (n != 0) std::memcpy(rec.name, name.data(), n);
  rec.kind = static_cast<std::uint8_t>(kind);
  rec.aux = aux;
  const int w = slot.worker.load(std::memory_order_relaxed);
  rec.w = static_cast<std::uint8_t>(w < 0 ? 0 : (w > 255 ? 255 : w));
  if (enabled()) slot.ring.push(rec);
  if (telemetry::TraceSink* sink = telemetry::trace_sink()) {
    // The trace line is the dump line with the full-length name and the
    // witness vector; a long one is rendered again into a heap buffer.
    char line[kLineCap];
    const std::size_t len = format_body(rec, name, vector, line, kLineCap);
    if (len <= kLineCap) {
      sink->line(event_name(kind), {line, len});
    } else {
      std::string big(len, '\0');
      format_body(rec, name, vector, big.data(), len);
      sink->line(event_name(kind), big);
    }
  }
}

// ---------------------------------------------------------------------------
// Sanitizing merged dump (normal path).
// ---------------------------------------------------------------------------

namespace {
/// Fills `open`'s name and delta (`a`) from the slot whose open check is
/// `chk`, or names it "?" when no slot holds it any more. The identity
/// fields are re-read around the copy, so a thread moving on to its next
/// check mid-read is never mistaken for this one.
void running_check(std::span<const Slot> table, std::int64_t chk,
                   Record& open) {
  open.name[0] = '?';
  for (const Slot& slot : table) {
    if (slot.chk.load(std::memory_order_acquire) != chk) continue;
    const char* name = slot.check.load(std::memory_order_acquire);
    const std::int64_t delta = slot.delta.load(std::memory_order_acquire);
    if (name == nullptr || slot.chk.load(std::memory_order_acquire) != chk) {
      return;
    }
    const std::string_view sv(name);
    std::memcpy(open.name, sv.data(), ring_name_len(sv));
    open.a = delta;
    return;
  }
}
}  // namespace

void dump(std::ostream& os, std::string_view reason) {
  // Snapshot every ring. Recording stays live (a serve daemon dumps while
  // still fielding traffic), so after copying we re-read the head and
  // discard the prefix that may have been overwritten mid-copy.
  std::vector<Record> recs;
  std::uint64_t torn = 0;
  const std::span<const Slot> table = slots();
  for (const Slot& slot : table) {
    const Ring& ring = slot.ring;
    const std::uint64_t h = ring.head();
    const std::uint64_t lo = h > Ring::kCapacity ? h - Ring::kCapacity : 0;
    const std::size_t base = recs.size();
    for (std::uint64_t u = lo; u < h; ++u) recs.push_back(ring.slot(u));
    const std::uint64_t h2 = ring.head();
    const std::uint64_t lo2 = h2 > Ring::kCapacity ? h2 - Ring::kCapacity : 0;
    if (lo2 > lo) {
      const std::uint64_t overwritten = std::min(lo2 - lo, h - lo);
      recs.erase(recs.begin() + static_cast<std::ptrdiff_t>(base),
                 recs.begin() + static_cast<std::ptrdiff_t>(base + overwritten));
      torn += overwritten;
    }
  }
  recs.erase(std::remove_if(recs.begin(), recs.end(),
                            [](const Record& r) { return !valid_kind(r.kind); }),
             recs.end());
  std::stable_sort(recs.begin(), recs.end(),
                   [](const Record& x, const Record& y) {
                     return x.t_ns < y.t_ns;
                   });

  // Pass 1: the opens each check lost. Ring eviction is strictly oldest-
  // first and a check runs on one thread, so a check whose check_begin
  // survived kept every later record too. A check whose check_begin was
  // evicted (any check that outlives the ring, which is every check a
  // deadline dump is written for) gets its opens back instead: check_begin
  // from its surviving check_end (output, and delta from the ring-only `b`),
  // and, when its first surviving stage record is a stage_end, that stage's
  // stage_begin.
  struct CheckState {
    bool begun = false;             // its check_begin survived or was made
    const Record* end = nullptr;    // its surviving check_end
    const Record* stage = nullptr;  // its first surviving stage record
    bool open = false;
    std::string output;
    std::vector<std::string> stages;         // open stages, outermost first
    std::vector<std::int64_t> dec_stack;     // open decisions, outermost first
    std::unordered_set<std::int64_t> defined;
    std::unordered_set<std::int64_t> closed;
  };
  std::map<std::int64_t, CheckState> state;
  for (const Record& r : recs) {
    if (r.chk < 0) continue;
    CheckState& cs = state[r.chk];
    switch (static_cast<Kind>(r.kind)) {
      case Kind::kCheckBegin: cs.begun = true; break;
      case Kind::kCheckEnd: cs.end = &r; break;
      case Kind::kStageBegin:
      case Kind::kStageEnd:
        if (cs.stage == nullptr) cs.stage = &r;
        break;
      default: break;
    }
  }
  std::vector<std::int64_t> open_order;

  const std::uint64_t t0 = recs.empty() ? 0 : recs.front().t_ns;
  std::uint64_t t_last = 0;
  std::uint64_t seq = 1;
  std::uint64_t dropped = torn;
  char line[kLineCap];

  // Header first; its drop count is patched conceptually by the docs — the
  // exact number of sanitized records is emitted in a trailing mark instead.
  os.write(line, static_cast<std::streamsize>(format_header(
                     reason, table.size(),
                     static_cast<std::uint64_t>(recs.size()), torn, line,
                     kLineCap)));

  const auto write_rec = [&](const Record& r) {
    const std::size_t n = format_record(r, ++seq, t0, line, kLineCap);
    if (n > 0) os.write(line, static_cast<std::streamsize>(n));
  };

  for (const Record& r : recs) {
    const auto kind = static_cast<Kind>(r.kind);
    if (r.chk >= 0) {
      CheckState& cs = state[r.chk];
      if (!cs.begun) {
        cs.begun = true;
        Record open{};
        open.t_ns = r.t_ns;
        open.chk = r.chk;
        open.dec = -1;
        open.w = r.w;
        open.kind = static_cast<std::uint8_t>(Kind::kCheckBegin);
        if (cs.end != nullptr) {
          std::memcpy(open.name, cs.end->name, kNameCap);
          open.a = cs.end->b;
        } else {
          running_check(table, r.chk, open);
        }
        write_rec(open);
        cs.open = true;
        cs.output = record_name(open);
        open_order.push_back(r.chk);
        if (cs.stage != nullptr &&
            static_cast<Kind>(cs.stage->kind) == Kind::kStageEnd) {
          open.kind = static_cast<std::uint8_t>(Kind::kStageBegin);
          open.a = 0;
          std::memcpy(open.name, cs.stage->name, kNameCap);
          write_rec(open);
          cs.stages.emplace_back(record_name(open));
        }
      }
      switch (kind) {
        case Kind::kCheckBegin:
          if (cs.open) {  // duplicate begin: impossible, but never emit one
            ++dropped;
            continue;
          }
          cs.open = true;
          cs.output = record_name(r);
          open_order.push_back(r.chk);
          break;
        case Kind::kCheckEnd:
          cs.open = false;
          break;
        case Kind::kStageBegin:
          cs.stages.emplace_back(record_name(r));
          break;
        case Kind::kStageEnd: {
          const std::string_view sn = record_name(r);
          for (auto it = cs.stages.rbegin(); it != cs.stages.rend(); ++it) {
            if (*it == sn) {
              cs.stages.erase(std::next(it).base());
              break;
            }
          }
          break;
        }
        case Kind::kDecision:
          cs.defined.insert(r.dec);
          cs.dec_stack.push_back(r.dec);
          break;
        case Kind::kDecisionClose:
          if (!cs.defined.contains(r.dec) || !cs.closed.insert(r.dec).second) {
            ++dropped;
            continue;
          }
          std::erase(cs.dec_stack, r.dec);
          break;
        case Kind::kBacktrack:
          if (!cs.defined.contains(r.dec)) {
            ++dropped;
            continue;
          }
          break;
        default:
          break;
      }
    }
    // Work records stamped with a decision the dump no longer defines, and
    // decisions whose parent it no longer defines, are re-attributed to the
    // search root rather than dropped.
    Record out = r;
    if (out.chk >= 0) {
      const CheckState& cs = state[out.chk];
      if (kind == Kind::kDecision) {
        if (out.a >= 0 && !cs.defined.contains(out.a)) out.a = -1;
      } else if (out.dec >= 0 && kind != Kind::kDecisionClose &&
                 kind != Kind::kBacktrack && !cs.defined.contains(out.dec)) {
        out.dec = -1;
      }
    }
    t_last = std::max(t_last, r.t_ns >= t0 ? r.t_ns - t0 : 0);
    write_rec(out);
  }

  // Synthetic closes: anything still open at dump time gets an explicit
  // truncation marker so analyze_trace() sees a fully bracketed trace.
  for (const std::int64_t chk : open_order) {
    CheckState& cs = state[chk];
    if (!cs.open) continue;
    Record r{};
    r.t_ns = t0 + (++t_last);
    r.chk = chk;
    r.dec = -1;
    for (auto it = cs.dec_stack.rbegin(); it != cs.dec_stack.rend(); ++it) {
      if (cs.closed.contains(*it)) continue;
      r.kind = static_cast<std::uint8_t>(Kind::kDecisionClose);
      r.dec = *it;
      r.aux = kTruncated;
      write_rec(r);
      r.t_ns = t0 + (++t_last);
    }
    r.dec = -1;
    for (auto it = cs.stages.rbegin(); it != cs.stages.rend(); ++it) {
      r.kind = static_cast<std::uint8_t>(Kind::kStageEnd);
      r.aux = '-';
      const std::size_t n = std::min(it->size(), kNameCap);
      std::memset(r.name, 0, kNameCap);
      std::memcpy(r.name, it->data(), n);
      write_rec(r);
      r.t_ns = t0 + (++t_last);
    }
    r.kind = static_cast<std::uint8_t>(Kind::kCheckEnd);
    r.aux = 'A';  // abandoned: the dump interrupted it
    r.a = 0;
    std::memset(r.name, 0, kNameCap);
    std::memcpy(r.name, cs.output.data(), std::min(cs.output.size(), kNameCap));
    write_rec(r);
  }

  if (dropped > torn) {
    Record r{};
    r.t_ns = t0 + (++t_last);
    r.chk = -1;
    r.dec = -1;
    r.kind = static_cast<std::uint8_t>(Kind::kMark);
    std::snprintf(r.name, kNameCap, "sanitized:%llu",
                  static_cast<unsigned long long>(dropped - torn));
    write_rec(r);
  }
  os.flush();
}

// ---------------------------------------------------------------------------
// Async-signal-safe dump (fatal-signal path).
// ---------------------------------------------------------------------------

namespace {
void write_all(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}
}  // namespace

void dump_signal_safe(int fd, const char* reason) {
  // Stop the writers first so cursors are stable; relaxed is enough — a
  // racing in-flight push at worst tears one slot, which valid_kind and the
  // per-ring head bounds below tolerate.
  detail::g_enabled.store(false, std::memory_order_relaxed);

  std::uint64_t cur[kMaxRings];
  std::uint64_t end[kMaxRings];
  const Ring* rings[kMaxRings];
  std::uint64_t total = 0;
  int n = 0;
  for (const Slot& slot : slots()) {
    const Ring* r = &slot.ring;
    const std::uint64_t h = r->head();
    rings[n] = r;
    cur[n] = h > Ring::kCapacity ? h - Ring::kCapacity : 0;
    end[n] = h;
    total += end[n] - cur[n];
    ++n;
  }
  std::uint64_t t0 = UINT64_MAX;
  for (int i = 0; i < n; ++i) {
    if (cur[i] < end[i]) t0 = std::min(t0, rings[i]->slot(cur[i]).t_ns);
  }
  if (t0 == UINT64_MAX) t0 = 0;

  char line[kLineCap];
  write_all(fd, line,
            format_header(reason, static_cast<std::uint64_t>(n), total, 0,
                          line, kLineCap));
  std::uint64_t seq = 1;
  for (;;) {
    int best = -1;
    std::uint64_t best_t = UINT64_MAX;
    for (int i = 0; i < n; ++i) {
      if (cur[i] >= end[i]) continue;
      const std::uint64_t t = rings[i]->slot(cur[i]).t_ns;
      if (t < best_t) {
        best_t = t;
        best = i;
      }
    }
    if (best < 0) break;
    const Record& r = rings[best]->slot(cur[best]++);
    if (!valid_kind(r.kind)) continue;
    const std::size_t len = format_record(r, ++seq, t0, line, kLineCap);
    if (len > 0) write_all(fd, line, len);
  }
}

// ---------------------------------------------------------------------------
// Blackbox directory, rate limiting, fatal handlers.
// ---------------------------------------------------------------------------

namespace {
std::mutex g_bb_mu;
std::string g_bb_dir;
// Precomputed so the signal handler opens a ready-made path (snprintf is
// not on the async-signal-safe list).
char g_fatal_path[512] = {0};

struct ReasonGate {
  std::string reason;
  std::uint64_t last_ns = 0;
  std::uint64_t count = 0;
};
std::vector<ReasonGate>& gates() {
  static std::vector<ReasonGate> g;
  return g;
}

void fatal_handler(int sig) {
  if (g_fatal_path[0] != '\0') {
    const int fd =
        ::open(g_fatal_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      dump_signal_safe(fd, "fatal_signal");
      ::close(fd);
    }
  }
  // SA_RESETHAND restored the default disposition; re-raise to die with
  // the original signal (keeps exit codes and core dumps honest).
  ::raise(sig);
}
}  // namespace

void set_blackbox_dir(std::string dir) {
  std::lock_guard<std::mutex> lock(g_bb_mu);
  g_bb_dir = std::move(dir);
  if (g_bb_dir.empty()) {
    g_fatal_path[0] = '\0';
  } else {
    std::snprintf(g_fatal_path, sizeof(g_fatal_path),
                  "%s/flight-fatal-%ld.jsonl", g_bb_dir.c_str(),
                  static_cast<long>(::getpid()));
  }
}

bool blackbox_enabled() {
  std::lock_guard<std::mutex> lock(g_bb_mu);
  return !g_bb_dir.empty();
}

std::string dump_blackbox(const char* reason, std::uint64_t cooldown_ns) {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(g_bb_mu);
    if (g_bb_dir.empty()) return "";
    const std::uint64_t now = telemetry::monotonic_ns();
    ReasonGate* gate = nullptr;
    for (ReasonGate& g : gates()) {
      if (g.reason == reason) {
        gate = &g;
        break;
      }
    }
    if (gate == nullptr) {
      gates().push_back(ReasonGate{reason, 0, 0});
      gate = &gates().back();
    }
    if (cooldown_ns != 0 && gate->last_ns != 0 &&
        now - gate->last_ns < cooldown_ns) {
      return "";
    }
    gate->last_ns = now;
    path = g_bb_dir + "/flight-" + reason + "-" +
           std::to_string(::getpid()) + "-" + std::to_string(++gate->count) +
           ".jsonl";
  }
  std::ofstream f(path, std::ios::trunc);
  if (!f) return "";
  dump(f, reason);
  return path;
}

void install_fatal_handlers() {
  struct sigaction sa{};
  sa.sa_handler = &fatal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESETHAND;
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
    ::sigaction(sig, &sa, nullptr);
  }
}

}  // namespace waveck::flight
