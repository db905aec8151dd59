#include "common/telemetry.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "common/flight_recorder.hpp"

namespace waveck::telemetry {

namespace detail {
std::atomic<TraceSink*> g_trace_sink{nullptr};
}  // namespace detail

namespace {
thread_local Registry* t_registry = nullptr;
}  // namespace

void set_trace_sink(TraceSink* sink) {
  detail::g_trace_sink.store(sink, std::memory_order_release);
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Registry& Registry::current() {
  return t_registry != nullptr ? *t_registry : global();
}

Registry* Registry::exchange_thread_registry(Registry* r) {
  Registry* prev = t_registry;
  t_registry = r;
  return prev;
}

namespace {

template <class Table>
auto& lookup(std::mutex& mu, Table& table, std::string_view name) {
  const std::scoped_lock lock(mu);
  const auto it = table.find(name);
  if (it != table.end()) return it->second;
  return table.try_emplace(std::string(name)).first->second;
}

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  return lookup(mu_, counters_, name);
}
Gauge& Registry::gauge(std::string_view name) {
  return lookup(mu_, gauges_, name);
}
Histogram& Registry::histogram(std::string_view name) {
  return lookup(mu_, histograms_, name);
}
TimeHistogram& Registry::time_histogram(std::string_view name) {
  return lookup(mu_, time_histograms_, name);
}
StageTimer& Registry::timer(std::string_view name) {
  return lookup(mu_, timers_, name);
}

template <class Ladder>
double BasicHistogram<Ladder>::quantile(double q) const {
  std::array<std::uint64_t, kBuckets> b{};
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    b[i] = bucket(i);
    total += b[i];
  }
  if (total == 0) return 0.0;
  q = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
  const double target = q * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (b[i] == 0) continue;
    const double next = cum + static_cast<double>(b[i]);
    if (next >= target) {
      const auto lower = static_cast<double>(Ladder::lower(i));
      const auto upper = static_cast<double>(Ladder::upper(i));
      const double frac = (target - cum) / static_cast<double>(b[i]);
      return lower + frac * (upper - lower);
    }
    cum = next;
  }
  return static_cast<double>(Ladder::upper(kBuckets - 1));
}

template <class Ladder>
std::string histogram_json(const BasicHistogram<Ladder>& h) {
  const std::string unit = Ladder::kUnit;
  std::string out = "{\"count\":" + std::to_string(h.count()) + ",\"sum" +
                    unit + "\":" + std::to_string(h.sum()) + ",\"buckets\":[";
  for (std::size_t i = 0; i < Ladder::kBuckets; ++i) {
    if (i > 0) out += ',';
    out += std::to_string(h.bucket(i));
  }
  out += "],\"p50" + unit + "\":" + fmt_double(h.quantile(0.50)) + ",\"p90" +
         unit + "\":" + fmt_double(h.quantile(0.90)) + ",\"p99" + unit +
         "\":" + fmt_double(h.quantile(0.99)) + "}";
  return out;
}

template <class Ladder>
std::string histogram_prometheus(std::string_view name,
                                 std::string_view labels,
                                 const BasicHistogram<Ladder>& h) {
  const std::string n(name);
  const std::string lbl = labels.empty() ? "" : std::string(labels) + ",";
  const std::string tail =
      labels.empty() ? " " : "{" + std::string(labels) + "} ";
  std::string out;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < Ladder::kBuckets; ++i) {
    cum += h.bucket(i);
    const std::string le = i + 1 < Ladder::kBuckets
                               ? std::to_string(Ladder::le(i))
                               : std::string("+Inf");
    out += n + "_bucket{" + lbl + "le=\"" + le + "\"} " +
           std::to_string(cum) + "\n";
  }
  out += n + "_sum" + tail + std::to_string(h.sum()) + "\n";
  out += n + "_count" + tail + std::to_string(h.count()) + "\n";
  return out;
}

template class BasicHistogram<Pow2Ladder>;
template class BasicHistogram<LatencyLadder>;
template std::string histogram_json(const BasicHistogram<Pow2Ladder>&);
template std::string histogram_json(const BasicHistogram<LatencyLadder>&);
template std::string histogram_prometheus(std::string_view, std::string_view,
                                          const BasicHistogram<Pow2Ladder>&);
template std::string histogram_prometheus(
    std::string_view, std::string_view, const BasicHistogram<LatencyLadder>&);

void Registry::merge_from(const Registry& other) {
  // `other` must be quiescent (a finished worker's registry); take only its
  // structural lock. Lock order global-then-worker is the only one used.
  const std::scoped_lock other_lock(other.mu_);
  for (const auto& [name, c] : other.counters_) counter(name).add(c.value());
  for (const auto& [name, g] : other.gauges_) {
    Gauge& mine = gauge(name);
    mine.add(g.value());
    mine.raise_high_water(g.high_water());  // peak = max over workers
  }
  for (const auto& [name, h] : other.histograms_) {
    histogram(name).merge_from(h);
  }
  for (const auto& [name, h] : other.time_histograms_) {
    time_histogram(name).merge_from(h);
  }
  for (const auto& [name, t] : other.timers_) {
    timer(name).add(t.calls(), t.total_ns());
  }
}

std::string Registry::to_json() const {
  const std::scoped_lock lock(mu_);
  std::ostringstream os;
  char open = '{';
  // One `"key":{"<name>":<value>,...}` member per metric kind.
  const auto section = [&](const char* key, const auto& table, auto value) {
    os << open << '"' << key << "\":{";
    open = ',';
    bool first = true;
    for (const auto& [name, m] : table) {
      os << (first ? "" : ",") << '"' << json_escape(name) << "\":";
      value(m);
      first = false;
    }
    os << '}';
  };
  section("counters", counters_, [&](const Counter& c) { os << c.value(); });
  section("gauges", gauges_, [&](const Gauge& g) {
    os << "{\"value\":" << g.value() << ",\"max\":" << g.high_water() << "}";
  });
  section("timers", timers_, [&](const StageTimer& t) {
    os << "{\"calls\":" << t.calls()
       << ",\"seconds\":" << fmt_double(t.seconds()) << "}";
  });
  const auto hist = [&](const auto& h) { os << histogram_json(h); };
  section("histograms", histograms_, hist);
  section("time_histograms", time_histograms_, hist);
  os << '}';
  return os.str();
}

namespace {

/// Prometheus metric-name mangling: dots and any other non-identifier
/// character become underscores ("serve.latency.queued_us" under prefix
/// "waveck" -> "waveck_serve_latency_queued_us").
std::string prom_name(std::string_view prefix, std::string_view name) {
  std::string out;
  out.reserve(prefix.size() + name.size() + 1);
  out.append(prefix);
  out.push_back('_');
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void prom_type(std::ostringstream& os, const std::string& name,
               const char* type) {
  os << "# TYPE " << name << ' ' << type << '\n';
}

}  // namespace

std::string Registry::to_prometheus(std::string_view prefix) const {
  const std::scoped_lock lock(mu_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    const std::string n = prom_name(prefix, name) + "_total";
    prom_type(os, n, "counter");
    os << n << ' ' << c.value() << '\n';
  }
  for (const auto& [name, g] : gauges_) {
    const std::string n = prom_name(prefix, name);
    prom_type(os, n, "gauge");
    os << n << ' ' << g.value() << '\n';
    prom_type(os, n + "_max", "gauge");
    os << n << "_max " << g.high_water() << '\n';
  }
  for (const auto& [name, t] : timers_) {
    const std::string n = prom_name(prefix, name);
    prom_type(os, n + "_seconds_total", "counter");
    os << n << "_seconds_total " << fmt_double(t.seconds()) << '\n';
    prom_type(os, n + "_calls_total", "counter");
    os << n << "_calls_total " << t.calls() << '\n';
  }
  const auto hists = [&](const auto& table) {
    for (const auto& [name, h] : table) {
      const std::string n = prom_name(prefix, name);
      prom_type(os, n, "histogram");
      os << histogram_prometheus(n, "", h);
    }
  };
  hists(histograms_);
  hists(time_histograms_);
  return os.str();
}

void Registry::reset() {
  const std::scoped_lock lock(mu_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
  for (auto& [name, h] : time_histograms_) h.reset();
  for (auto& [name, t] : timers_) t.reset();
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

JsonlTraceSink::JsonlTraceSink(std::ostream& os) : os_(&os) {}

JsonlTraceSink::JsonlTraceSink(const std::string& path)
    : file_(path), os_(&file_) {
  if (!file_) {
    throw std::runtime_error("cannot open trace file: " + path);
  }
}

void JsonlTraceSink::event(std::string_view name,
                           std::span<const TraceField> fields) {
  std::ostringstream body;
  const flight::Slot& self = flight::self();
  const std::int64_t chk = self.chk.load(std::memory_order_relaxed);
  const std::int64_t dec = self.dec.load(std::memory_order_relaxed);
  body << ",\"w\":" << self.worker.load(std::memory_order_relaxed);
  if (chk >= 0) body << ",\"chk\":" << chk;
  if (dec >= 0) body << ",\"dec\":" << dec;
  for (const TraceField& f : fields) {
    body << ",\"" << json_escape(f.key) << "\":";
    switch (f.kind) {
      case TraceField::Kind::kInt: body << f.i; break;
      case TraceField::Kind::kDouble: body << fmt_double(f.d); break;
      case TraceField::Kind::kBool: body << (f.b ? "true" : "false"); break;
      case TraceField::Kind::kString:
        body << '"' << json_escape(f.s) << '"';
        break;
    }
  }
  body << "}\n";
  line(name, body.str());
}

void JsonlTraceSink::line(std::string_view name, std::string_view body) {
  const std::uint64_t t = monotonic_ns() - start_ns_;
  // The body is formatted by the caller; only the sequence number needs
  // the mutex, so lines from concurrent workers stay valid JSONL (one
  // object per line) and numbered in file order.
  const std::scoped_lock lock(mu_);
  *os_ << "{\"ev\":\"" << json_escape(name)
       << "\",\"seq\":" << seq_.fetch_add(1, std::memory_order_relaxed) + 1
       << ",\"t\":" << t << body;
}

}  // namespace waveck::telemetry
