#include "prof/perf_counters.hpp"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

#ifdef __linux__
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace waveck::prof {

namespace {

std::atomic<bool> g_counters_enabled{false};
std::atomic<std::uint64_t> g_warnings{0};
std::mutex g_reason_mu;
std::string g_first_reason;  // guarded by g_reason_mu

thread_local std::unique_ptr<PerfCounterGroup> t_group;

/// Records the first failure and warns exactly once per process: repeated
/// per-thread opens (every worker degrades the same way) stay quiet.
void note_unavailable(const std::string& reason) {
  const std::scoped_lock lock(g_reason_mu);
  if (!g_first_reason.empty()) return;
  g_first_reason = reason;
  g_warnings.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr,
               "waveck: hardware counters unavailable (%s); "
               "reporting wall-clock only\n",
               reason.c_str());
}

/// WAVECK_PERF_FAKE_ERRNO: an errno name or number forcing open failure.
int fake_errno() {
  const char* v = std::getenv("WAVECK_PERF_FAKE_ERRNO");
  if (v == nullptr || *v == '\0') return 0;
  if (std::strcmp(v, "ENOENT") == 0) return ENOENT;
  if (std::strcmp(v, "EACCES") == 0) return EACCES;
  if (std::strcmp(v, "EPERM") == 0) return EPERM;
  if (std::strcmp(v, "EINVAL") == 0) return EINVAL;
  const int n = std::atoi(v);
  return n > 0 ? n : EACCES;
}

}  // namespace

std::uint64_t scale_multiplexed(std::uint64_t raw, std::uint64_t enabled_ns,
                                std::uint64_t running_ns) {
  if (raw == 0 || enabled_ns == running_ns) return raw;
  if (running_ns == 0) return raw;
  const long double scaled = static_cast<long double>(raw) *
                             static_cast<long double>(enabled_ns) /
                             static_cast<long double>(running_ns);
  return static_cast<std::uint64_t>(scaled + 0.5L);
}

CounterTotals delta_between(const CounterSample& begin,
                            const CounterSample& end) {
  CounterTotals d;
  d.sections = 1;
  d.wall_ns = end.monotonic_ns - begin.monotonic_ns;
  d.hw_valid = begin.hw_valid && end.hw_valid;
  if (!d.hw_valid) return d;
  const std::uint64_t en = end.time_enabled_ns - begin.time_enabled_ns;
  const std::uint64_t run = end.time_running_ns - begin.time_running_ns;
  d.cycles = scale_multiplexed(end.cycles - begin.cycles, en, run);
  d.instructions =
      scale_multiplexed(end.instructions - begin.instructions, en, run);
  d.cache_references = scale_multiplexed(
      end.cache_references - begin.cache_references, en, run);
  d.cache_misses =
      scale_multiplexed(end.cache_misses - begin.cache_misses, en, run);
  d.branch_misses =
      scale_multiplexed(end.branch_misses - begin.branch_misses, en, run);
  return d;
}

void CounterTotals::add(const CounterTotals& o) {
  wall_ns += o.wall_ns;
  if (o.sections == 0) return;
  cycles += o.cycles;
  instructions += o.instructions;
  cache_references += o.cache_references;
  cache_misses += o.cache_misses;
  branch_misses += o.branch_misses;
  sections += o.sections;
  hw_valid = hw_valid && o.hw_valid;
}

double CounterTotals::ipc() const {
  return cycles == 0 ? 0.0
                     : static_cast<double>(instructions) /
                           static_cast<double>(cycles);
}

double CounterTotals::cache_miss_rate() const {
  return cache_references == 0 ? 0.0
                               : static_cast<double>(cache_misses) /
                                     static_cast<double>(cache_references);
}

PerfCounterGroup::PerfCounterGroup() {
#ifdef __linux__
  static constexpr std::uint64_t kConfigs[kEvents] = {
      PERF_COUNT_HW_CPU_CYCLES,       PERF_COUNT_HW_INSTRUCTIONS,
      PERF_COUNT_HW_CACHE_REFERENCES, PERF_COUNT_HW_CACHE_MISSES,
      PERF_COUNT_HW_BRANCH_MISSES};

  if (const int fake = fake_errno(); fake != 0) {
    reason_ = std::string("perf_event_open: ") + std::strerror(fake) +
              " [forced by WAVECK_PERF_FAKE_ERRNO]";
    note_unavailable(reason_);
    return;
  }

  for (std::size_t i = 0; i < kEvents; ++i) {
    perf_event_attr attr{};
    attr.size = sizeof(attr);
    attr.type = PERF_TYPE_HARDWARE;
    attr.config = kConfigs[i];
    attr.disabled = (i == 0) ? 1 : 0;  // arm the whole group via the leader
    attr.exclude_kernel = 1;           // usable at perf_event_paranoid <= 2
    attr.exclude_hv = 1;
    attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_ID |
                       PERF_FORMAT_TOTAL_TIME_ENABLED |
                       PERF_FORMAT_TOTAL_TIME_RUNNING;
    const int group_fd = (i == 0) ? -1 : fds_[0];
    const long fd = syscall(SYS_perf_event_open, &attr, 0, -1, group_fd,
                            PERF_FLAG_FD_CLOEXEC);
    if (fd < 0) {
      if (i == 0) {
        // No leader, no group: degrade to wall-clock only.
        reason_ = std::string("perf_event_open: ") + std::strerror(errno);
        note_unavailable(reason_);
        return;
      }
      continue;  // a missing sibling just reports 0
    }
    fds_[i] = static_cast<int>(fd);
    ioctl(fds_[i], PERF_EVENT_IOC_ID, &ids_[i]);
  }
  ioctl(fds_[0], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ioctl(fds_[0], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
#else
  reason_ = "perf_event_open: not supported on this platform";
  note_unavailable(reason_);
#endif
}

PerfCounterGroup::~PerfCounterGroup() {
#ifdef __linux__
  for (int& fd : fds_) {
    if (fd >= 0) close(fd);
    fd = -1;
  }
#endif
}

CounterSample PerfCounterGroup::read() const {
  CounterSample s;
  s.monotonic_ns = telemetry::monotonic_ns();
#ifdef __linux__
  if (!available()) return s;
  // PERF_FORMAT_GROUP layout: nr, time_enabled, time_running,
  // then (value, id) per group member.
  std::uint64_t buf[3 + 2 * kEvents] = {};
  const ssize_t n = ::read(fds_[0], buf, sizeof buf);
  if (n < static_cast<ssize_t>(3 * sizeof(std::uint64_t))) return s;
  s.time_enabled_ns = buf[1];
  s.time_running_ns = buf[2];
  std::uint64_t* slots[kEvents] = {&s.cycles, &s.instructions,
                                   &s.cache_references, &s.cache_misses,
                                   &s.branch_misses};
  const std::uint64_t nr = buf[0];
  for (std::uint64_t v = 0; v < nr && v < kEvents; ++v) {
    const std::uint64_t value = buf[3 + 2 * v];
    const std::uint64_t id = buf[3 + 2 * v + 1];
    for (std::size_t i = 0; i < kEvents; ++i) {
      if (fds_[i] >= 0 && ids_[i] == id) {
        *slots[i] = value;
        break;
      }
    }
  }
  s.hw_valid = true;
#endif
  return s;
}

bool counters_enabled() {
  return g_counters_enabled.load(std::memory_order_relaxed);
}

void set_counters_enabled(bool on) {
  g_counters_enabled.store(on, std::memory_order_relaxed);
}

PerfCounterGroup& thread_counter_group() {
  if (!t_group) t_group = std::make_unique<PerfCounterGroup>();
  return *t_group;
}

std::string unavailable_reason() {
  const std::scoped_lock lock(g_reason_mu);
  return g_first_reason;
}

std::uint64_t warnings_emitted() {
  return g_warnings.load(std::memory_order_relaxed);
}

void add_to_registry(telemetry::Registry& reg, std::string_view slot,
                     const CounterTotals& d) {
  const std::string prefix = "perf." + std::string(slot) + ".";
  reg.counter(prefix + "cycles").add(d.cycles);
  reg.counter(prefix + "instructions").add(d.instructions);
  reg.counter(prefix + "cache_references").add(d.cache_references);
  reg.counter(prefix + "cache_misses").add(d.cache_misses);
  reg.counter(prefix + "branch_misses").add(d.branch_misses);
  reg.counter(prefix + "wall_ns").add(d.wall_ns);
  reg.counter(prefix + "sections").add(d.sections);
}

void reset_thread_counter_group_for_testing() { t_group.reset(); }

}  // namespace waveck::prof
