#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <mutex>

#include "bench.hpp"

namespace perfbench {

std::uint64_t wall_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

namespace {

/// Continued fraction of the incomplete Beta function (modified Lentz).
double beta_cf(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  const auto clamp_tiny = [](double d) { return std::fabs(d) < kTiny ? kTiny : d; };
  double c = 1.0;
  double d = 1.0 / clamp_tiny(1.0 - (a + b) * x / (a + 1.0));
  double h = d;
  for (int m = 1; m <= 400; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2));
    d = 1.0 / clamp_tiny(1.0 + aa * d);
    c = clamp_tiny(1.0 + aa / c);
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2));
    d = 1.0 / clamp_tiny(1.0 + aa * d);
    c = clamp_tiny(1.0 + aa / c);
    const double step = d * c;
    h *= step;
    if (std::fabs(step - 1.0) < 1e-14) break;
  }
  return h;
}

/// Regularized incomplete Beta function I_x(a, b).
double beta_inc(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                                std::lgamma(b) + a * std::log(x) +
                                b * std::log1p(-x));
  return x < (a + 1.0) / (a + b + 2.0)
             ? front * beta_cf(a, b, x) / a
             : 1.0 - front * beta_cf(b, a, 1.0 - x) / b;
}

}  // namespace

double hd_quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  if (v.size() == 1) return v.front();
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const double a = q * (n + 1.0);
  const double b = (1.0 - q) * (n + 1.0);
  double sum = 0.0;
  double lo = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double hi = beta_inc(a, b, static_cast<double>(i + 1) / n);
    sum += (hi - lo) * v[i];
    lo = hi;
  }
  return sum;
}

Fingerprint& Fingerprint::add(std::string_view s) {
  for (const char ch : s) {
    h_ ^= static_cast<unsigned char>(ch);
    h_ *= 1099511628211ull;
  }
  h_ ^= 0xffu;  // field separator, so ("ab","c") != ("a","bc")
  h_ *= 1099511628211ull;
  return *this;
}

Fingerprint& Fingerprint::add(std::int64_t v) { return add(std::to_string(v)); }

std::string Fingerprint::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

namespace {

constexpr const char* kOpNames[kNumOps] = {
    "netlist.parse",       "netlist.decompose", "netlist.nor_map",
    "analysis.scoap",      "analysis.learning", "analysis.stems",
    "verify.delay_search", "verify.check",      "sched.check",
    "sim.witness",         "sim.oracle",        "serve.check",
    "serve.stats",         "serve.load",        "serve.unload",
    "bench.cpu_probe"};

std::atomic<bool> g_recording{false};
std::array<std::atomic<std::uint64_t>, kNumOps> g_calls{};
std::array<std::atomic<std::uint64_t>, kNumOps> g_ns{};
std::mutex g_mu;  // guards g_spans and g_next_thread
std::vector<SpanRecord> g_spans;
int g_next_thread = 0;

thread_local std::vector<std::int64_t> t_open;  // recorded spans still open
thread_local int t_thread = -1;

}  // namespace

const char* op_name(Op op) { return kOpNames[static_cast<std::size_t>(op)]; }

std::string layer_of(Op op) {
  const std::string name = op_name(op);
  return name.substr(0, name.find('.'));
}

void Recorder::set_recording(bool on) { g_recording.store(on); }
bool Recorder::recording() { return g_recording.load(); }

OpTotals Recorder::totals() {
  OpTotals t;
  for (std::size_t i = 0; i < kNumOps; ++i) {
    t.calls[i] = g_calls[i].load(std::memory_order_relaxed);
    t.ns[i] = g_ns[i].load(std::memory_order_relaxed);
  }
  return t;
}

std::vector<SpanRecord> Recorder::spans() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_spans;
}

bool Recorder::write_jsonl(const std::string& path, const std::string& header) {
  std::ofstream os(path);
  if (!os) return false;
  os << header << "\n";
  std::lock_guard<std::mutex> lock(g_mu);
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const SpanRecord& s = g_spans[i];
    os << "{\"id\":" << i << ",\"name\":\"" << op_name(s.op)
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"parent\":" << s.parent << ",\"job\":" << s.job
       << ",\"thread\":" << s.thread << "}\n";
  }
  return static_cast<bool>(os);
}

Span::Span(Op op, std::int64_t job) : op_(op), job_(job), start_(wall_ns()) {
  if (!Recorder::recording()) return;
  std::lock_guard<std::mutex> lock(g_mu);
  if (t_thread < 0) t_thread = g_next_thread++;
  index_ = static_cast<std::int64_t>(g_spans.size());
  g_spans.push_back({op_, start_, start_, t_open.empty() ? -1 : t_open.back(),
                     job_, t_thread});
  t_open.push_back(index_);
}

Span::~Span() { stop(); }

double Span::stop() {
  if (!open_) return seconds_;
  open_ = false;
  const std::uint64_t end = wall_ns();
  const auto i = static_cast<std::size_t>(op_);
  g_calls[i].fetch_add(1, std::memory_order_relaxed);
  g_ns[i].fetch_add(end - start_, std::memory_order_relaxed);
  seconds_ = static_cast<double>(end - start_) * 1e-9;
  if (index_ >= 0) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_spans[static_cast<std::size_t>(index_)].end_ns = end;
    t_open.pop_back();
  }
  return seconds_;
}

TraceSummary summarize(const std::vector<SpanRecord>& spans,
                       std::uint64_t from_ns, std::uint64_t to_ns) {
  TraceSummary sum;
  std::vector<double> child_s(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> roots;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.start_ns < from_ns || s.start_ns >= to_ns) continue;
    ++sum.spans;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    sum.self_s[layer_of(s.op)] += dur - child_s[i];
    if (s.parent < 0) roots.emplace_back(s.start_ns, s.end_ns);
  }
  // Root spans of different threads overlap; count covered time once.
  std::sort(roots.begin(), roots.end());
  std::uint64_t cur_start = 0;
  std::uint64_t cur_end = 0;
  for (const auto& [b, e] : roots) {
    if (b > cur_end) {
      sum.covered_s += static_cast<double>(cur_end - cur_start) * 1e-9;
      cur_start = b;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  sum.covered_s += static_cast<double>(cur_end - cur_start) * 1e-9;
  return sum;
}

}  // namespace perfbench
