#include "prof/profiler.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <vector>

#include "common/flight_recorder.hpp"
#include "common/telemetry.hpp"

#ifdef __linux__
#include <cxxabi.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#endif

namespace waveck::prof {

namespace {

constexpr int kMaxFrames = 32;

struct Record {
  void* pc[kMaxFrames];
  const char* stage;
  const char* check;
  std::int32_t depth;
  std::int32_t first_app;  // first frame below the signal prologue
};

// Handler-visible state. The ring is preallocated by start(); the handler
// claims a slot with one relaxed fetch_add and never touches anything that
// could allocate or lock.
std::atomic<bool> g_armed{false};
std::atomic<std::size_t> g_cursor{0};
std::vector<Record> g_records;
std::size_t g_capacity = 0;
std::uint32_t g_hz = 0;

#ifdef __linux__
struct sigaction g_prev_action {};

/// The interrupted instruction, read from the signal context (null where
/// the register layout is unknown).
void* interrupted_pc(const void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return nullptr;
#endif
}

extern "C" void waveck_sigprof_handler(int, siginfo_t*, void* context) {
  const int saved_errno = errno;
  if (g_armed.load(std::memory_order_relaxed)) {
    const std::size_t i = g_cursor.fetch_add(1, std::memory_order_relaxed);
    if (i < g_capacity) {
      Record& r = g_records[i];
      r.depth = backtrace(r.pc, kMaxFrames);
      // Frame 0 is this handler and frame 1 the kernel's sigreturn
      // trampoline; the sampled code starts at the frame holding the
      // interrupted pc. Without that pc, drop the two prologue frames.
      const void* leaf = interrupted_pc(context);
      r.first_app = std::min(2, r.depth - 1);
      for (int f = 0; leaf != nullptr && f < r.depth; ++f) {
        if (r.pc[f] == leaf) {
          r.first_app = f;
          break;
        }
      }
      // The thread's slot, if it has one: claiming one here would not be
      // async-signal-safe, and a thread without a slot has no open check.
      const flight::Slot* slot = flight::detail::t_slot;
      r.stage = slot != nullptr
                    ? slot->stage.load(std::memory_order_relaxed) : nullptr;
      r.check = slot != nullptr
                    ? slot->check.load(std::memory_order_relaxed) : nullptr;
    }
  }
  errno = saved_errno;
}

/// "path(mangled+0x1a) [0x...]" -> demangled symbol, raw symbol, or the
/// module basename when the frame has no symbol at all.
std::string frame_name(const char* symbolized) {
  std::string s(symbolized != nullptr ? symbolized : "");
  const std::size_t open = s.find('(');
  const std::size_t plus = s.find('+', open == std::string::npos ? 0 : open);
  if (open != std::string::npos && plus != std::string::npos &&
      plus > open + 1) {
    std::string mangled = s.substr(open + 1, plus - open - 1);
    int status = 0;
    char* dem =
        abi::__cxa_demangle(mangled.c_str(), nullptr, nullptr, &status);
    if (status == 0 && dem != nullptr) {
      std::string out(dem);
      std::free(dem);
      return out;
    }
    if (dem != nullptr) std::free(dem);
    return mangled;
  }
  // No symbol: keep the module basename so the frame is still meaningful.
  const std::size_t cut = open != std::string::npos ? open : s.find(' ');
  std::string module = s.substr(0, cut);
  const std::size_t slash = module.rfind('/');
  if (slash != std::string::npos) module = module.substr(slash + 1);
  return module.empty() ? "??" : module;
}
#endif

std::string json_str(const std::string& s) {
  std::string out = "\"";
  out += telemetry::json_escape(s);
  out += '"';
  return out;
}

}  // namespace

SamplingProfiler& SamplingProfiler::instance() {
  static SamplingProfiler p;
  return p;
}

bool SamplingProfiler::running() const {
  return g_armed.load(std::memory_order_relaxed);
}

bool SamplingProfiler::start(const ProfilerOptions& opt, std::string* error) {
#ifdef __linux__
  if (running()) {
    if (error != nullptr) *error = "profiler already running";
    return false;
  }
  g_hz = opt.hz == 0 ? 997 : opt.hz;
  g_capacity = opt.max_samples == 0 ? (1u << 16) : opt.max_samples;
  g_records.assign(g_capacity, Record{});
  g_cursor.store(0, std::memory_order_relaxed);

  // Prime libgcc's unwinder outside signal context: the first backtrace()
  // call may allocate/dlopen, later ones are async-signal-safe in practice.
  void* prime[2];
  backtrace(prime, 2);

  struct sigaction sa {};
  sa.sa_sigaction = waveck_sigprof_handler;
  sa.sa_flags = SA_RESTART | SA_SIGINFO;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, &g_prev_action) != 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }

  g_armed.store(true, std::memory_order_release);
  const long usec = std::max(1000000L / static_cast<long>(g_hz), 1L);
  itimerval timer{};
  timer.it_interval.tv_sec = usec / 1000000;
  timer.it_interval.tv_usec = usec % 1000000;
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    g_armed.store(false, std::memory_order_release);
    sigaction(SIGPROF, &g_prev_action, nullptr);
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  return true;
#else
  (void)opt;
  if (error != nullptr) *error = "profiler not supported on this platform";
  return false;
#endif
}

ProfileReport SamplingProfiler::stop() {
  ProfileReport rep;
#ifdef __linux__
  if (!running()) return rep;
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  g_armed.store(false, std::memory_order_release);
  sigaction(SIGPROF, &g_prev_action, nullptr);

  const std::size_t claimed = g_cursor.load(std::memory_order_relaxed);
  const std::size_t n = std::min(claimed, g_capacity);
  rep.samples = n;
  rep.dropped = claimed - n;
  rep.cpu_seconds = static_cast<double>(n) / static_cast<double>(g_hz);

  // Symbolize each record once; name cache keyed by pc.
  std::map<void*, std::string> names;
  std::map<std::string, std::uint64_t> folded;  // key: "f;f;f" root-first
  for (std::size_t i = 0; i < n; ++i) {
    const Record& r = g_records[i];
    if (r.depth <= 0) continue;
    const int first_app = r.first_app;
    char** symbols = backtrace_symbols(const_cast<void* const*>(r.pc),
                                       r.depth);
    if (symbols == nullptr) continue;
    std::string key;
    if (r.check != nullptr) {
      key += "check:";
      key += r.check;
    }
    if (r.stage != nullptr) {
      if (!key.empty()) key += ';';
      key += "stage:";
      key += r.stage;
    }
    for (int f = r.depth - 1; f >= first_app; --f) {  // root first
      auto it = names.find(r.pc[f]);
      if (it == names.end()) {
        it = names.emplace(r.pc[f], frame_name(symbols[f])).first;
      }
      if (!key.empty()) key += ';';
      key += it->second;
    }
    std::free(symbols);
    if (!key.empty()) ++folded[key];
  }
  g_records.clear();
  g_records.shrink_to_fit();

  // Collapsed-stack text plus the speedscope "sampled" document; one
  // sample entry per distinct stack with its count as the weight.
  std::ostringstream folded_os;
  std::map<std::string, std::size_t> frame_index;
  std::vector<std::string> frame_names;
  std::ostringstream samples_os;
  std::ostringstream weights_os;
  std::uint64_t total = 0;
  bool first_stack = true;
  for (const auto& [key, count] : folded) {
    folded_os << key << ' ' << count << '\n';
    samples_os << (first_stack ? "[" : ",[");
    weights_os << (first_stack ? "" : ",") << count;
    first_stack = false;
    std::size_t pos = 0;
    bool first_frame = true;
    while (pos <= key.size()) {
      const std::size_t sep = key.find(';', pos);
      const std::string frame =
          key.substr(pos, sep == std::string::npos ? sep : sep - pos);
      auto [it, inserted] =
          frame_index.try_emplace(frame, frame_names.size());
      if (inserted) frame_names.push_back(frame);
      samples_os << (first_frame ? "" : ",") << it->second;
      first_frame = false;
      if (sep == std::string::npos) break;
      pos = sep + 1;
    }
    samples_os << ']';
    total += count;
  }
  rep.folded = folded_os.str();

  std::ostringstream ss;
  ss << "{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\""
     << ",\"name\":\"waveck profile\",\"exporter\":\"waveck\""
     << ",\"activeProfileIndex\":0,\"shared\":{\"frames\":[";
  for (std::size_t i = 0; i < frame_names.size(); ++i) {
    ss << (i ? "," : "") << "{\"name\":" << json_str(frame_names[i]) << "}";
  }
  ss << "]},\"profiles\":[{\"type\":\"sampled\",\"name\":\"cpu (" << g_hz
     << "Hz)\",\"unit\":\"none\",\"startValue\":0,\"endValue\":" << total
     << ",\"samples\":[" << samples_os.str() << "],\"weights\":["
     << weights_os.str() << "]}]}";
  rep.speedscope_json = ss.str();
#endif
  return rep;
}

}  // namespace waveck::prof
