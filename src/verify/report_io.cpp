#include "verify/report_io.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/telemetry.hpp"
#include "prof/perf_counters.hpp"

namespace waveck {
namespace {

std::string escape(const std::string& s) { return telemetry::json_escape(s); }

/// Minimal JSON writer: objects and arrays via explicit calls.
class Json {
 public:
  Json& begin() { return raw("{"); }
  Json& end() {
    // Like end_array(): a closed object is itself a value, so the next
    // sibling key needs a comma.
    os_ << "}";
    comma_ = true;
    return *this;
  }
  Json& key(const std::string& k) {
    sep();
    os_ << '"' << escape(k) << "\":";
    comma_ = false;
    return *this;
  }
  Json& value(const std::string& v) {
    sep();
    os_ << '"' << escape(v) << '"';
    comma_ = true;
    return *this;
  }
  Json& value(const char* v) { return value(std::string(v)); }
  Json& value(std::int64_t v) {
    sep();
    os_ << v;
    comma_ = true;
    return *this;
  }
  Json& value(std::size_t v) { return value(static_cast<std::int64_t>(v)); }
  Json& value(double v) {
    sep();
    // JSON has no nan/inf literal; a non-finite double (e.g. a rate whose
    // denominator counter read zero) must degrade to 0, never to a token
    // that breaks machine parsers.
    os_ << (std::isfinite(v) ? v : 0.0);
    comma_ = true;
    return *this;
  }
  Json& value(bool v) {
    sep();
    os_ << (v ? "true" : "false");
    comma_ = true;
    return *this;
  }
  Json& value(Time t) {
    if (t.is_finite()) return value(t.value());
    return value(t.str());
  }
  Json& null() {
    sep();
    os_ << "null";
    comma_ = true;
    return *this;
  }
  /// Splices a pre-serialised JSON value (e.g. a registry snapshot).
  Json& raw_value(const std::string& s) {
    sep();
    os_ << s;
    comma_ = true;
    return *this;
  }
  Json& begin_array() {
    sep();
    os_ << "[";
    comma_ = false;
    return *this;
  }
  Json& end_array() {
    os_ << "]";
    comma_ = true;
    return *this;
  }
  [[nodiscard]] std::string str() const { return os_.str(); }

 private:
  Json& raw(const char* s) {
    sep();
    os_ << s;
    comma_ = false;
    return *this;
  }
  void sep() {
    if (comma_) os_ << ",";
    comma_ = false;
  }
  std::ostringstream os_;
  bool comma_ = false;
};

void perf_totals_body(Json& j, const prof::CounterTotals& t, bool hw) {
  j.key("wall_ns").value(static_cast<std::size_t>(t.wall_ns));
  if (!hw) return;  // degraded path: wall-clock only, no fake zeros
  j.key("cycles").value(static_cast<std::size_t>(t.cycles));
  j.key("instructions").value(static_cast<std::size_t>(t.instructions));
  j.key("ipc").value(t.ipc());
  j.key("cache_references")
      .value(static_cast<std::size_t>(t.cache_references));
  j.key("cache_misses").value(static_cast<std::size_t>(t.cache_misses));
  j.key("cache_miss_rate").value(t.cache_miss_rate());
  j.key("branch_misses").value(static_cast<std::size_t>(t.branch_misses));
}

/// "stage_seconds" (every stage's wall time), then the "perf" object:
/// per-stage scaled hardware counters, present only when the check ran
/// with prof::counters_enabled(). On the degraded path (no PMU,
/// perf_event_paranoid, containers) the marker flips to "unavailable" and
/// stages carry wall_ns only.
void stage_costs_body(Json& j, const StagePerf& p) {
  const std::pair<const char*, const prof::CounterTotals*> stages[] = {
      {"narrowing", &p.narrowing},
      {"gitd", &p.gitd},
      {"stem", &p.stem},
      {"case_analysis", &p.case_analysis}};
  j.key("stage_seconds").begin();
  for (const auto& [name, totals] : stages) {
    j.key(name).value(static_cast<double>(totals->wall_ns) * 1e-9);
  }
  j.end();
  if (!p.any()) return;
  const bool hw = p.total().hw_valid;
  j.key("perf").begin();
  j.key("counters").value(hw ? "available" : "unavailable");
  if (!hw) j.key("reason").value(prof::unavailable_reason());
  for (const auto& [name, totals] : stages) {
    if (!totals->any()) continue;
    j.key(name).begin();
    perf_totals_body(j, *totals, hw);
    j.end();
  }
  j.end();
}

void check_body(Json& j, const Circuit& c, const CheckReport& rep) {
  j.key("output").value(c.net(rep.check.output).name);
  j.key("delta").value(rep.check.delta);
  j.key("conclusion").value(to_string(rep.conclusion));
  j.key("stages").begin();
  j.key("before_gitd").value(to_string(rep.before_gitd));
  j.key("after_gitd").value(to_string(rep.after_gitd));
  j.key("after_stem").value(to_string(rep.after_stem));
  j.end();
  j.key("backtracks").value(rep.backtracks);
  j.key("decisions").value(rep.decisions);
  j.key("gitd_rounds").value(rep.gitd_rounds);
  j.key("stems_processed").value(rep.stems_processed);
  j.key("seconds").value(rep.seconds);
  stage_costs_body(j, rep.stage_perf);
  j.key("vector");
  if (rep.vector) {
    j.value(format_vector(*rep.vector));
  } else {
    j.null();
  }
}

}  // namespace

std::string to_json(const Circuit& c, const CheckReport& rep,
                    bool include_metrics) {
  Json j;
  j.begin();
  j.key("circuit").value(c.name());
  check_body(j, c, rep);
  if (include_metrics) {
    j.key("metrics").raw_value(telemetry::Registry::global().to_json());
  }
  j.end();
  return j.str();
}

namespace {

/// The determinism contract (doc/PARALLELISM.md) covers everything except
/// timing: wall-clock fields go to zero and the perf block (which always
/// carries wall_ns) is dropped entirely.
void strip_timing(CheckReport& rep) {
  rep.seconds = 0.0;
  rep.stage_perf = StagePerf{};
}

}  // namespace

std::string stage_costs_json(const StagePerf& p) {
  Json j;
  stage_costs_body(j, p);
  return j.str();
}

std::string canonical_json(const Circuit& c, CheckReport rep) {
  strip_timing(rep);
  return to_json(c, rep, /*include_metrics=*/false);
}

std::string canonical_json(const Circuit& c, SuiteReport rep) {
  rep.seconds = 0.0;
  rep.stage_perf = StagePerf{};
  for (auto& out : rep.per_output) strip_timing(out);
  return to_json(c, rep, /*include_metrics=*/false);
}

std::string to_json(const Circuit& c, const SuiteReport& rep,
                    bool include_metrics) {
  Json j;
  j.begin();
  j.key("circuit").value(c.name());
  j.key("delta").value(rep.delta);
  j.key("conclusion").value(to_string(rep.conclusion));
  j.key("stages").begin();
  j.key("before_gitd").value(to_string(rep.before_gitd));
  j.key("after_gitd").value(to_string(rep.after_gitd));
  j.key("after_stem").value(to_string(rep.after_stem));
  j.end();
  j.key("backtracks").value(rep.backtracks);
  j.key("seconds").value(rep.seconds);
  stage_costs_body(j, rep.stage_perf);
  j.key("vector");
  if (rep.vector) {
    j.value(format_vector(*rep.vector));
  } else {
    j.null();
  }
  j.key("violating_output");
  if (rep.violating_output) {
    j.value(c.net(*rep.violating_output).name);
  } else {
    j.null();
  }
  j.key("outputs").begin_array();
  for (const auto& out : rep.per_output) {
    j.begin();
    check_body(j, c, out);
    j.end();
  }
  j.end_array();
  if (include_metrics) {
    j.key("metrics").raw_value(telemetry::Registry::global().to_json());
  }
  j.end();
  return j.str();
}

std::string to_json(const Circuit& c,
                    const Verifier::ExactDelayResult& res) {
  Json j;
  j.begin();
  j.key("circuit").value(c.name());
  j.key("topological_delay").value(res.topological);
  j.key("floating_delay").value(res.delay);
  j.key("floating_delay_upper").value(res.upper);
  j.key("exact").value(res.exact);
  j.key("probes").value(res.probes);
  j.key("total_backtracks").value(res.total_backtracks);
  j.key("witness");
  if (res.witness) {
    j.value(format_vector(*res.witness));
  } else {
    j.null();
  }
  j.key("metrics").raw_value(telemetry::Registry::global().to_json());
  j.end();
  return j.str();
}

std::string to_json(const Circuit& c, const PessimismReport& rep) {
  Json j;
  j.begin();
  j.key("circuit").value(c.name());
  j.key("worst_topological").value(rep.worst_topological);
  j.key("worst_floating").value(rep.worst_floating);
  j.key("outputs").begin_array();
  for (const auto& od : rep.outputs) {
    j.begin();
    j.key("output").value(c.net(od.output).name);
    j.key("topological").value(od.topological);
    j.key("floating").value(od.floating);
    j.key("exact").value(od.exact);
    j.key("backtracks").value(od.backtracks);
    j.end();
  }
  j.end_array();
  j.end();
  return j.str();
}

void render_timing_diagram(std::ostream& os, const Circuit& c,
                           const FloatingResult& sim,
                           const std::vector<NetId>& path, unsigned width) {
  if (path.empty()) return;
  Time horizon = Time(1);
  std::size_t name_w = 4;
  for (NetId n : path) {
    horizon = Time::max(horizon, sim.settle[n.index()]);
    name_w = std::max(name_w, c.net(n).name.size());
  }
  const double scale =
      horizon.is_finite() && horizon.value() > 0
          ? double(width) / double(horizon.value())
          : 1.0;
  auto col = [&](Time t) {
    if (!t.is_finite()) return t.is_neg_inf() ? 0u : width;
    const auto x = static_cast<long>(double(t.value()) * scale + 0.5);
    return static_cast<unsigned>(std::clamp<long>(x, 0, width));
  };

  os << std::string(name_w + 2, ' ') << "t=0" << std::string(width - 6, ' ')
     << horizon << "\n";
  for (NetId n : path) {
    const unsigned settle_col = col(sim.settle[n.index()]);
    os << c.net(n).name << std::string(name_w - c.net(n).name.size() + 1, ' ')
       << '|';
    // '?' until the settle point, then the final value.
    for (unsigned x = 0; x < width; ++x) {
      os << (x < settle_col ? '?' : (sim.value[n.index()] ? '1' : '0'));
    }
    os << "|  settles@" << sim.settle[n.index()] << "\n";
  }
}

std::string timing_diagram_string(const Circuit& c, const FloatingResult& sim,
                                  const std::vector<NetId>& path,
                                  unsigned width) {
  std::ostringstream os;
  render_timing_diagram(os, c, sim, path, width);
  return os.str();
}

}  // namespace waveck
