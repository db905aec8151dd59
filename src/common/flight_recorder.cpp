#include "common/flight_recorder.hpp"

#include <fcntl.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
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
thread_local Ring* t_ring = nullptr;

namespace {
constexpr int kMaxRings = 64;
// Ring pointers are published with release stores and never retired: a
// thread that exits leaves its ring behind for post-mortem dumps, and the
// fatal-signal path can walk the table without locks.
std::atomic<Ring*> g_rings[kMaxRings];
std::atomic<int> g_ring_count{0};
std::mutex g_claim_mu;
thread_local bool t_claim_failed = false;

std::uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
}  // namespace

Ring* claim_ring() {
  if (t_claim_failed) return nullptr;
  std::lock_guard<std::mutex> lock(g_claim_mu);
  const int idx = g_ring_count.load(std::memory_order_relaxed);
  if (idx >= kMaxRings) {
    t_claim_failed = true;
    return nullptr;
  }
  Ring* r = new Ring();  // intentionally never freed (post-mortem data)
  g_rings[idx].store(r, std::memory_order_release);
  g_ring_count.store(idx + 1, std::memory_order_release);
  t_ring = r;
  return r;
}

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void record(Kind kind, std::string_view name, std::int64_t a, std::int64_t b,
            std::uint8_t aux) {
  if (!enabled()) return;
  Ring* r = detail::t_ring;
  if (r == nullptr) {
    r = detail::claim_ring();
    if (r == nullptr) return;
  }
  Record rec{};
  rec.t_ns = detail::now_ns();
  const telemetry::SpanContext& ctx = telemetry::span_context();
  rec.chk = ctx.chk;
  rec.dec = ctx.dec;
  rec.a = a;
  rec.b = b;
  // An empty name may have a null data(); memcpy from null is UB even for
  // zero bytes.
  const std::size_t n = std::min(name.size(), kNameCap);
  if (n != 0) std::memcpy(rec.name, name.data(), n);
  rec.kind = static_cast<std::uint8_t>(kind);
  rec.aux = aux;
  const int w = telemetry::worker_id();
  rec.w = static_cast<std::uint8_t>(w < 0 ? 0 : (w > 255 ? 255 : w));
  r->push(rec);
}

RecorderStats stats() {
  RecorderStats s;
  s.rings = detail::g_ring_count.load(std::memory_order_acquire);
  for (int i = 0; i < s.rings; ++i) {
    Ring* r = detail::g_rings[i].load(std::memory_order_acquire);
    if (r != nullptr) s.records += r->head();
  }
  return s;
}

void reset_for_test() {
  // Heads are advanced by owning threads only; a concurrent push during a
  // test reset is the test's hazard. Resetting the head to 0 makes the ring
  // report no readable records without touching slot contents.
  const int n = detail::g_ring_count.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i) {
    Ring* r = detail::g_rings[i].load(std::memory_order_acquire);
    if (r != nullptr) r->reset_for_test();
  }
}

// ---------------------------------------------------------------------------
// Rendering. One shared formatter serves both the sanitizing ostream writer
// and the async-signal-safe fd writer: everything below formats into a
// caller-provided buffer with no allocation, locks, or stdio.
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kLineCap = 512;

struct Buf {
  char* p;
  char* end;

  void ch(char c) {
    if (p < end) *p++ = c;
  }
  void lit(const char* s) {
    while (*s != '\0' && p < end) *p++ = *s++;
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
  /// JSON string body with minimal escaping; bytes >= 0x7f become '?' so a
  /// name truncated mid-UTF-8-sequence cannot produce invalid output.
  void jstr(const char* s, std::size_t n) {
    ch('"');
    for (std::size_t i = 0; i < n; ++i) {
      const unsigned char c = static_cast<unsigned char>(s[i]);
      if (c == '"' || c == '\\') {
        ch('\\');
        ch(static_cast<char>(c));
      } else if (c < 0x20) {
        lit("\\u00");
        static constexpr char kHex[] = "0123456789abcdef";
        ch(kHex[c >> 4]);
        ch(kHex[c & 0xf]);
      } else if (c >= 0x7f) {
        ch('?');
      } else {
        ch(static_cast<char>(c));
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
  void key_str(const char* k, const char* s, std::size_t n) {
    key(k);
    jstr(s, n);
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

const char* conclusion_str(std::uint8_t code) {
  switch (code) {
    case kConclusionN: return "N";
    case kConclusionV: return "V";
    case kConclusionA: return "A";
    case kConclusionP: return "P";
  }
  return "?";
}

const char* stage_status_str(std::uint8_t code) {
  switch (code) {
    case kStageNotRun: return "-";
    case kStagePossible: return "P";
    case kStageNoViolation: return "N";
  }
  return "?";
}

const char* outcome_str(std::uint8_t code) {
  switch (code) {
    case kOutcomeExhausted: return "exhausted";
    case kOutcomeWitness: return "witness";
    case kOutcomeAbandoned: return "abandoned";
    case kOutcomeTruncated: return "truncated";
  }
  return "?";
}

const char* cache_kind_str(std::uint8_t code) {
  switch (code) {
    case kCacheHit: return "hit";
    case kCacheMiss: return "miss";
    case kCacheDomRebuild: return "dom_rebuild";
  }
  return "?";
}

std::size_t name_len(const Record& r) {
  std::size_t n = 0;
  while (n < kNameCap && r.name[n] != '\0') ++n;
  return n;
}

/// Renders one record as a trace-schema JSONL line (with trailing newline).
/// `t0` rebases timestamps so the dump starts at t=0. Returns the number of
/// bytes written to `out` (at most `cap`); async-signal-safe.
std::size_t format_record(const Record& r, std::uint64_t seq, std::uint64_t t0,
                          char* out, std::size_t cap) {
  const auto kind = static_cast<Kind>(r.kind);
  const char* ev = nullptr;
  switch (kind) {
    case Kind::kCheckBegin: ev = "check_begin"; break;
    case Kind::kCheckEnd: ev = "check_end"; break;
    case Kind::kStageBegin: ev = "stage_begin"; break;
    case Kind::kStageEnd: ev = "stage_end"; break;
    case Kind::kDecision: ev = "decision"; break;
    case Kind::kDecisionClose: ev = "decision_close"; break;
    case Kind::kBacktrack: ev = "backtrack"; break;
    case Kind::kConflict: ev = "conflict"; break;
    case Kind::kSpurious: ev = "spurious_vector"; break;
    case Kind::kPropagate: ev = "propagate"; break;
    case Kind::kCache: ev = "cache"; break;
    case Kind::kGitdRound: ev = "gitd_round"; break;
    case Kind::kStem: ev = "stem"; break;
    case Kind::kServeRequest: ev = "serve_request"; break;
    case Kind::kServeResponse: ev = "serve_response"; break;
    case Kind::kServeBatch: ev = "serve_batch"; break;
    case Kind::kMark: ev = "mark"; break;
    default: return 0;  // torn or unwritten slot
  }
  Buf b{out, out + cap};
  b.lit("{\"ev\":\"");
  b.lit(ev);
  b.lit("\",\"seq\":");
  b.u64(seq);
  b.lit(",\"t\":");
  b.u64(r.t_ns >= t0 ? r.t_ns - t0 : 0);
  b.lit(",\"w\":");
  b.u64(r.w);
  if (r.chk >= 0) b.key_i64("chk", r.chk);
  if (r.dec >= 0) b.key_i64("dec", r.dec);
  const std::size_t nl = name_len(r);
  switch (kind) {
    case Kind::kCheckBegin:
      b.key_str("output", r.name, nl);
      b.key_i64("delta", r.a);
      break;
    case Kind::kCheckEnd:
      b.key_str("output", r.name, nl);
      b.key("conclusion");
      b.jstr(conclusion_str(r.aux), std::strlen(conclusion_str(r.aux)));
      b.key_seconds("seconds", r.a);
      break;
    case Kind::kStageBegin:
      b.key_str("stage", r.name, nl);
      break;
    case Kind::kStageEnd: {
      b.key_str("stage", r.name, nl);
      const char* st = stage_status_str(r.aux);
      b.key_str("status", st, std::strlen(st));
      break;
    }
    case Kind::kDecision:
      b.key_i64("parent", r.a);
      b.key_str("net", r.name, nl);
      b.key_bool("cls", r.aux != 0);
      b.key_i64("depth", r.b);
      break;
    case Kind::kDecisionClose: {
      const char* oc = outcome_str(r.aux);
      b.key_str("outcome", oc, std::strlen(oc));
      break;
    }
    case Kind::kBacktrack:
      b.key_str("net", r.name, nl);
      b.key_bool("cls", r.aux != 0);
      b.key_i64("depth", r.b);
      break;
    case Kind::kConflict:
    case Kind::kSpurious:
      b.key_i64("depth", r.b);
      break;
    case Kind::kPropagate:
      b.key_i64("applications", r.a);
      b.key_i64("revisions", r.b);
      b.key_str("status", r.aux != 0 ? "P" : "N", 1);
      break;
    case Kind::kCache: {
      const char* ck = cache_kind_str(r.aux);
      b.key_str("kind", ck, std::strlen(ck));
      break;
    }
    case Kind::kGitdRound:
      b.key_i64("narrowed", r.a);
      break;
    case Kind::kStem:
      b.key_str("net", r.name, nl);
      break;
    case Kind::kServeRequest:
      b.key_str("op", r.name, nl);
      b.key_i64("queue", r.a);
      break;
    case Kind::kServeResponse:
      b.key_str("op", r.name, nl);
      b.key_i64("bytes", r.a);
      b.key_bool("ok", r.aux != 0);
      break;
    case Kind::kServeBatch:
      b.key_str("circuit", r.name, nl);
      b.key_i64("size", r.a);
      b.key_i64("unique", r.b);
      break;
    case Kind::kMark:
      b.key_str("name", r.name, nl);
      break;
    default:
      break;
  }
  b.lit("}\n");
  return static_cast<std::size_t>(b.p - out);
}

std::size_t format_header(std::string_view reason, std::uint64_t rings,
                          std::uint64_t records, std::uint64_t dropped,
                          char* out, std::size_t cap) {
  Buf b{out, out + cap};
  b.lit("{\"ev\":\"fr_dump\",\"seq\":1,\"t\":0,\"w\":0");
  b.key_str("reason", reason.data(), std::min(reason.size(), std::size_t{64}));
  b.key_i64("rings", static_cast<std::int64_t>(rings));
  b.key_i64("records", static_cast<std::int64_t>(records));
  b.key_i64("dropped", static_cast<std::int64_t>(dropped));
  b.lit("}\n");
  return static_cast<std::size_t>(b.p - out);
}

bool valid_kind(std::uint8_t k) {
  return k > 0 && k <= static_cast<std::uint8_t>(Kind::kMaxKind);
}

}  // namespace

// ---------------------------------------------------------------------------
// Sanitizing merged dump (normal path).
// ---------------------------------------------------------------------------

void dump(std::ostream& os, std::string_view reason) {
  // Snapshot every ring. Recording stays live (a serve daemon dumps while
  // still fielding traffic), so after copying we re-read the head and
  // discard the prefix that may have been overwritten mid-copy.
  std::vector<Record> recs;
  std::uint64_t torn = 0;
  const int nrings = detail::g_ring_count.load(std::memory_order_acquire);
  for (int i = 0; i < nrings; ++i) {
    Ring* ring = detail::g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const std::uint64_t h = ring->head();
    const std::uint64_t lo = h > Ring::kCapacity ? h - Ring::kCapacity : 0;
    const std::size_t base = recs.size();
    for (std::uint64_t u = lo; u < h; ++u) recs.push_back(ring->slot(u));
    const std::uint64_t h2 = ring->head();
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

  // Pass 1: checks whose begin survived. Ring eviction is strictly oldest-
  // first and a check runs on one thread, so "begin survived" implies every
  // later record of that check survived too; anything else is an orphan the
  // analyzer would warn about, and is dropped instead.
  std::unordered_set<std::int64_t> begun;
  for (const Record& r : recs) {
    if (static_cast<Kind>(r.kind) == Kind::kCheckBegin && r.chk >= 0) {
      begun.insert(r.chk);
    }
  }

  struct CheckState {
    bool open = false;
    std::string output;
    std::vector<std::string> stages;         // open stages, outermost first
    std::vector<std::int64_t> dec_stack;     // open decisions, outermost first
    std::unordered_set<std::int64_t> defined;
    std::unordered_set<std::int64_t> closed;
  };
  std::map<std::int64_t, CheckState> state;
  std::vector<std::int64_t> open_order;

  const std::uint64_t t0 = recs.empty() ? 0 : recs.front().t_ns;
  std::uint64_t t_last = 0;
  std::uint64_t seq = 1;
  std::uint64_t dropped = torn;
  char line[kLineCap];

  // Header first; its drop count is patched conceptually by the docs — the
  // exact number of sanitized records is emitted in a trailing mark instead.
  os.write(line, static_cast<std::streamsize>(format_header(
                     reason, static_cast<std::uint64_t>(nrings),
                     static_cast<std::uint64_t>(recs.size()), torn, line,
                     kLineCap)));

  const auto write_rec = [&](const Record& r) {
    const std::size_t n = format_record(r, ++seq, t0, line, kLineCap);
    if (n > 0) os.write(line, static_cast<std::streamsize>(n));
  };

  for (const Record& r : recs) {
    const auto kind = static_cast<Kind>(r.kind);
    if (r.chk >= 0 && !begun.contains(r.chk)) {
      ++dropped;
      continue;
    }
    if (r.chk >= 0) {
      CheckState& cs = state[r.chk];
      switch (kind) {
        case Kind::kCheckBegin:
          if (cs.open) {  // duplicate begin: impossible, but never emit one
            ++dropped;
            continue;
          }
          cs.open = true;
          cs.output.assign(r.name, name_len(r));
          open_order.push_back(r.chk);
          break;
        case Kind::kCheckEnd:
          cs.open = false;
          break;
        case Kind::kStageBegin:
          cs.stages.emplace_back(r.name, name_len(r));
          break;
        case Kind::kStageEnd: {
          const std::string_view sn(r.name, name_len(r));
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
    // Work records stamped with a decision the dump no longer defines are
    // re-attributed to the search root rather than dropped.
    Record out = r;
    if (out.chk >= 0 && out.dec >= 0 && kind != Kind::kDecision &&
        kind != Kind::kDecisionClose && kind != Kind::kBacktrack &&
        !state[out.chk].defined.contains(out.dec)) {
      out.dec = -1;
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
      r.aux = kOutcomeTruncated;
      write_rec(r);
      r.t_ns = t0 + (++t_last);
    }
    r.dec = -1;
    for (auto it = cs.stages.rbegin(); it != cs.stages.rend(); ++it) {
      r.kind = static_cast<std::uint8_t>(Kind::kStageEnd);
      r.aux = kStageNotRun;
      const std::size_t n = std::min(it->size(), kNameCap);
      std::memset(r.name, 0, kNameCap);
      std::memcpy(r.name, it->data(), n);
      write_rec(r);
      r.t_ns = t0 + (++t_last);
    }
    r.kind = static_cast<std::uint8_t>(Kind::kCheckEnd);
    r.aux = kConclusionA;  // abandoned: the dump interrupted it
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

  const int nrings = detail::g_ring_count.load(std::memory_order_acquire);
  constexpr int kMax = 64;
  std::uint64_t cur[kMax];
  std::uint64_t end[kMax];
  Ring* rings[kMax];
  std::uint64_t total = 0;
  int n = 0;
  for (int i = 0; i < nrings && i < kMax; ++i) {
    Ring* r = detail::g_rings[i].load(std::memory_order_acquire);
    if (r == nullptr) continue;
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

std::string blackbox_dir() {
  std::lock_guard<std::mutex> lock(g_bb_mu);
  return g_bb_dir;
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
    const std::uint64_t now = detail::now_ns();
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
