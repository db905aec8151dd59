#include "explain/explain_cli.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <vector>

#include "common/telemetry.hpp"
#include "explain/analyzer.hpp"
#include "explain/chrome_export.hpp"
#include "explain/dot_export.hpp"
#include "explain/trace_reader.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/delay_annotation.hpp"
#include "netlist/transforms.hpp"
#include "netlist/verilog_io.hpp"

namespace waveck::explain {

namespace {

struct Options {
  std::string trace_path;
  bool json = false;
  bool canon = false;
  std::string chrome_path;
  std::string dot_dir;
  std::string circuit_path;
  std::string delays_path;
  std::int64_t tree_chk = -1;  // --tree CHK: render that decision tree
  std::size_t top = 10;
};

int usage(std::ostream& err) {
  err << "usage: waveck explain TRACE.jsonl [options]\n"
         "  (no options)        text report: checks, stages, hot nets, waste\n"
         "  --json              the same analysis as a JSON document\n"
         "  --tree CHK          also render check CHK's decision tree\n"
         "  --top K             rows in the hot-net tables (default 10)\n"
         "  --chrome FILE.json  chrome://tracing / Perfetto export\n"
         "  --dot DIR           carrier-circuit DOT per violating check\n"
         "                      (needs --circuit; witness path in red)\n"
         "  --circuit FILE      .bench/.v the trace was produced from\n"
         "  --delays FILE       delay annotation for --circuit\n"
         "  --canon             strip wall-clock fields and heartbeats and\n"
         "                      print the trace to stdout (byte-stable; for\n"
         "                      same-seed diffs)\n"
         "exit: 0 clean, 1 trace has structural warnings, 2 usage/IO error\n";
  return 2;
}

/// Mirrors the main CLI's circuit loader (uniform delay 10 by default).
Circuit load_circuit(const std::string& path, const std::string& delays) {
  const bool verilog =
      path.size() > 2 && path.substr(path.size() - 2) == ".v";
  Circuit c = verilog ? read_verilog_file(path) : read_bench_file(path);
  if (!delays.empty()) {
    read_delays_file(delays, c);
  } else {
    c.set_uniform_delay(DelaySpec::fixed(10));
  }
  return decompose_for_solver(c);
}

int run_canon(const Options& opt, std::ostream& out, std::ostream& err) {
  std::ifstream in(opt.trace_path);
  if (!in) {
    err << "error: cannot open " << opt.trace_path << "\n";
    return 2;
  }
  // Every wall-clock field of the trace schema: the stamps, check_end's
  // duration, and the rates and ages the heartbeat and watchdog report.
  // Heartbeat and watchdog lines are dropped whole: wall time decides how
  // many there are.
  static constexpr std::array<std::string_view, 6> kStrip = {
      "t", "seq", "seconds", "elapsed_s", "gate_evals_per_s", "stalled_s"};
  TraceReader reader(in);
  TraceEvent e;
  while (reader.next(e)) {
    if (e.ev == "heartbeat" || e.ev == "watchdog_stall") continue;
    out << canonical_line(e, kStrip) << "\n";
  }
  if (!reader.error().empty()) {
    err << "error: " << reader.error() << "\n";
    return 2;
  }
  return 0;
}

std::string pct(double ratio) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << ratio * 100.0 << "%";
  return os.str();
}

std::string secs(double s) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(6) << s << "s";
  return os.str();
}

void render_tree(std::ostream& out, const CheckTree& c, std::int64_t id,
                 const std::string& indent) {
  const auto it = c.decisions.find(id);
  if (it == c.decisions.end()) return;
  const DecisionNode& d = it->second;
  out << indent << d.net << "=" << (d.cls ? 1 : 0) << "  ["
      << (d.close.empty() ? "open" : d.close)
      << (d.backtracked ? ", flipped" : "") << ", evals " << d.gate_evals
      << ", wasted " << d.wasted_gate_evals << ", conflicts " << d.conflicts
      << "]\n";
  for (const std::int64_t child : d.children) {
    render_tree(out, c, child, indent + "  ");
  }
}

void text_report(const TraceAnalysis& a, const Options& opt,
                 std::ostream& out) {
  const double span = a.t_first >= 0 && a.t_last >= a.t_first
                          ? static_cast<double>(a.t_last - a.t_first) * 1e-9
                          : 0.0;
  out << "trace: " << a.events << " events over " << secs(span) << ", "
      << a.workers.size() << " worker(s), " << a.checks.size()
      << " check(s)";
  if (!a.batches.empty()) out << ", " << a.batches.size() << " batch(es)";
  out << "\n";
  if (!a.dump_reason.empty()) {
    out << "flight-recorder dump: reason=" << a.dump_reason << ", "
        << a.dump_rings << " ring(s), " << a.dump_records
        << " record(s) seen\n";
  }
  out << "\n";

  // ---- per-check table ----------------------------------------------------
  std::map<std::string, std::size_t> by_conclusion;
  out << std::left << std::setw(5) << "CHK" << std::setw(18) << "OUTPUT"
      << std::right << std::setw(7) << "DELTA" << std::setw(6) << "CONCL"
      << std::setw(7) << "DECS" << std::setw(7) << "BTRK" << std::setw(7)
      << "CONFL" << std::setw(10) << "EVALS" << std::setw(8) << "WASTED"
      << std::setw(11) << "SECONDS" << "\n";
  for (const CheckTree& c : a.checks) {
    ++by_conclusion[c.conclusion.empty() ? "?" : c.conclusion];
    out << std::left << std::setw(5) << c.chk << std::setw(18) << c.output
        << std::right << std::setw(7) << c.delta << std::setw(6)
        << (c.conclusion.empty() ? "?" : c.conclusion) << std::setw(7)
        << c.n_decisions << std::setw(7) << c.n_backtracks << std::setw(7)
        << c.n_conflicts << std::setw(10) << c.total_gate_evals()
        << std::setw(8) << pct(c.wasted_ratio()) << std::setw(11)
        << std::fixed << std::setprecision(6) << c.seconds << "\n";
  }
  out << "conclusions:";
  for (const auto& [k, n] : by_conclusion) out << " " << k << "=" << n;
  out << "\n\n";

  // ---- stage waterfall (totals across checks) -----------------------------
  // A stage may open more than once in a check (case analysis runs a second
  // pass after stems): its spans sum to one per-check sample.
  struct StageTotal {
    double seconds = 0.0;
    std::vector<double> samples;  // per-check durations, for exact quantiles
  };
  std::vector<std::pair<std::string, StageTotal>> stage_order;
  for (const CheckTree& c : a.checks) {
    std::vector<std::pair<std::string_view, double>> per_check;
    for (const StageSpan& s : c.stages) {
      auto it = std::find_if(per_check.begin(), per_check.end(),
                             [&](const auto& p) { return p.first == s.stage; });
      if (it == per_check.end()) {
        per_check.emplace_back(s.stage, s.seconds());
      } else {
        it->second += s.seconds();
      }
    }
    for (const auto& [stage, seconds] : per_check) {
      auto it = std::find_if(stage_order.begin(), stage_order.end(),
                             [&](const auto& p) { return p.first == stage; });
      if (it == stage_order.end()) {
        stage_order.push_back({std::string(stage), {}});
        it = std::prev(stage_order.end());
      }
      it->second.seconds += seconds;
      it->second.samples.push_back(seconds);
    }
  }
  // Exact order-statistic quantile over the collected durations (sorted,
  // linearly interpolated between ranks) -- unlike the registry histograms
  // there is no bucketing error here, the full sample list is in memory.
  const auto quantile = [](const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
  };
  if (!stage_order.empty()) {
    out << "stage waterfall (summed over checks):\n";
    out << "  " << std::left << std::setw(18) << "STAGE" << std::right
        << std::setw(11) << "TOTAL" << std::setw(7) << "COUNT"
        << std::setw(11) << "P50" << std::setw(11) << "P90"
        << std::setw(11) << "P99" << "\n";
    for (auto& [stage, tot] : stage_order) {
      std::sort(tot.samples.begin(), tot.samples.end());
      out << "  " << std::left << std::setw(18) << stage << std::right
          << std::setw(10) << std::fixed << std::setprecision(6)
          << tot.seconds << "s" << std::setw(7) << tot.samples.size()
          << std::setw(11) << quantile(tot.samples, 0.50) << std::setw(11)
          << quantile(tot.samples, 0.90) << std::setw(11)
          << quantile(tot.samples, 0.99) << "\n";
    }
    out << "\n";
  }

  // ---- hot nets -----------------------------------------------------------
  const auto net_table = [&](const char* title,
                             std::uint64_t NetStat::* member) {
    const auto rows = a.top_nets(member, opt.top);
    if (rows.empty()) return;
    out << title << "\n";
    out << "  " << std::left << std::setw(18) << "NET" << std::right
        << std::setw(10) << "EVALS" << std::setw(10) << "NARROW"
        << std::setw(7) << "DECS" << std::setw(7) << "BTRK" << "\n";
    for (const NetStat* ns : rows) {
      out << "  " << std::left << std::setw(18) << ns->net << std::right
          << std::setw(10) << ns->gate_evals << std::setw(10)
          << ns->narrowings << std::setw(7) << ns->decisions << std::setw(7)
          << ns->backtracks << "\n";
    }
    out << "\n";
  };
  net_table("hot nets by attributed gate evals:", &NetStat::gate_evals);
  net_table("backtrack hotspots (by decision net):", &NetStat::backtracks);

  // ---- cache + waste ------------------------------------------------------
  std::uint64_t hits = 0, misses = 0, rebuilds = 0;
  if (!a.cache_timeline.empty()) {
    hits = a.cache_timeline.back().hits;
    misses = a.cache_timeline.back().misses;
    rebuilds = a.cache_timeline.back().dom_rebuilds;
  }
  if (hits + misses > 0) {
    out << "carrier cache: " << hits << " hits, " << misses << " misses ("
        << pct(static_cast<double>(hits) /
               static_cast<double>(hits + misses))
        << " hit rate), " << rebuilds << " dominator rebuilds\n";
  }
  std::uint64_t total = 0, wasted = 0;
  for (const CheckTree& c : a.checks) {
    total += c.total_gate_evals();
    wasted += c.wasted_gate_evals();
  }
  out << "search work: " << total << " gate evals, " << wasted
      << " under failed branches ("
      << pct(total == 0 ? 0.0
                        : static_cast<double>(wasted) /
                              static_cast<double>(total))
      << " wasted)\n";

  // ---- optional decision tree --------------------------------------------
  if (opt.tree_chk >= 0) {
    const auto it =
        std::find_if(a.checks.begin(), a.checks.end(),
                     [&](const CheckTree& c) { return c.chk == opt.tree_chk; });
    if (it == a.checks.end()) {
      out << "\n(no check with id " << opt.tree_chk << " in this trace)\n";
    } else {
      out << "\ndecision tree of check " << it->chk << " (" << it->output
          << ", delta " << it->delta << ", " << it->n_decisions
          << " decisions):\n";
      for (const std::int64_t root : it->roots) {
        render_tree(out, *it, root, "  ");
      }
      if (!it->witness.empty()) out << "  witness: " << it->witness << "\n";
    }
  }
}

void json_report(const TraceAnalysis& a, std::ostream& out) {
  out << "{\"events\":" << a.events << ",\"t_span_ns\":"
      << (a.t_first >= 0 && a.t_last >= a.t_first ? a.t_last - a.t_first : 0);
  if (!a.dump_reason.empty()) {
    out << ",\"dump_reason\":\"" << telemetry::json_escape(a.dump_reason)
        << "\"";
  }
  out << ",\"workers\":[";
  for (std::size_t i = 0; i < a.workers.size(); ++i) {
    out << (i ? "," : "") << a.workers[i];
  }
  out << "],\"checks\":[";
  bool first = true;
  for (const CheckTree& c : a.checks) {
    if (!first) out << ",";
    first = false;
    out << "{\"chk\":" << c.chk << ",\"output\":\""
        << telemetry::json_escape(c.output) << "\",\"delta\":" << c.delta
        << ",\"worker\":" << c.worker << ",\"conclusion\":\""
        << telemetry::json_escape(c.conclusion) << "\",\"seconds\":"
        << c.seconds << ",\"decisions\":" << c.n_decisions
        << ",\"backtracks\":" << c.n_backtracks << ",\"conflicts\":"
        << c.n_conflicts << ",\"spurious\":" << c.n_spurious
        << ",\"gitd_rounds\":" << c.n_gitd_rounds << ",\"stems\":"
        << c.n_stems << ",\"gate_evals\":" << c.total_gate_evals()
        << ",\"wasted_gate_evals\":" << c.wasted_gate_evals()
        << ",\"wasted_ratio\":" << c.wasted_ratio() << ",\"cache\":{\"hits\":"
        << c.cache_hits << ",\"misses\":" << c.cache_misses
        << ",\"dom_rebuilds\":" << c.cache_dom_rebuilds << "},\"stages\":[";
    for (std::size_t i = 0; i < c.stages.size(); ++i) {
      const StageSpan& s = c.stages[i];
      out << (i ? "," : "") << "{\"stage\":\""
          << telemetry::json_escape(s.stage) << "\",\"status\":\""
          << telemetry::json_escape(s.status) << "\",\"seconds\":"
          << s.seconds() << "}";
    }
    out << "]";
    if (!c.witness.empty()) {
      out << ",\"witness\":\"" << telemetry::json_escape(c.witness) << "\"";
    }
    out << "}";
  }
  out << "],\"net_stats\":[";
  first = true;
  for (const NetStat* ns : a.top_nets(&NetStat::gate_evals, 50)) {
    if (!first) out << ",";
    first = false;
    out << "{\"net\":\"" << telemetry::json_escape(ns->net)
        << "\",\"gate_evals\":" << ns->gate_evals << ",\"narrowings\":"
        << ns->narrowings << ",\"decisions\":" << ns->decisions
        << ",\"backtracks\":" << ns->backtracks << "}";
  }
  out << "],\"cache_samples\":" << a.cache_timeline.size()
      << ",\"n_warnings\":" << a.n_warnings << ",\"warnings\":[";
  for (std::size_t i = 0; i < a.warnings.size(); ++i) {
    out << (i ? "," : "") << "\"" << telemetry::json_escape(a.warnings[i])
        << "\"";
  }
  out << "]}\n";
}

std::string sanitize(const std::string& s) {
  std::string out;
  for (const char c : s) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_');
  }
  return out;
}

int write_dots(const TraceAnalysis& a, const Options& opt, std::ostream& out,
               std::ostream& err) {
  Circuit c;
  try {
    c = load_circuit(opt.circuit_path, opt.delays_path);
  } catch (const std::exception& e) {
    err << "error: cannot load --circuit: " << e.what() << "\n";
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.dot_dir, ec);
  if (ec) {
    err << "error: cannot create " << opt.dot_dir << ": " << ec.message()
        << "\n";
    return 2;
  }
  std::size_t written = 0;
  for (const CheckTree& chk : a.checks) {
    if (chk.conclusion != "V") continue;  // carrier DOTs: violating checks
    DotOptions dopt;
    if (!chk.witness.empty()) dopt.witness = parse_vector(chk.witness);
    try {
      const DotResult res = carrier_dot(c, chk.output, Time{chk.delta}, dopt);
      const std::string path = opt.dot_dir + "/chk" +
                               std::to_string(chk.chk) + "_" +
                               sanitize(chk.output) + ".dot";
      std::ofstream os(path);
      if (!os) {
        err << "error: cannot write " << path << "\n";
        return 2;
      }
      os << res.dot;
      ++written;
      out << "dot: " << path << " (" << res.carrier_nets << " carriers, "
          << res.dominators << " dominators"
          << (res.path_nets > 0
                  ? ", witness path " + std::to_string(res.path_nets) + " nets"
                  : std::string())
          << ")\n";
    } catch (const std::exception& e) {
      err << "error: dot export for check " << chk.chk << ": " << e.what()
          << "\n";
      return 2;
    }
  }
  if (written == 0) {
    out << "dot: no violating checks in trace, nothing to render\n";
  }
  return 0;
}

}  // namespace

int explain_cli_main(const std::vector<std::string>& args, std::ostream& out,
                     std::ostream& err) {
  Options opt;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto value = [&](const char* flag) -> const std::string* {
      if (i + 1 >= args.size()) {
        err << "error: " << flag << " needs an argument\n";
        return nullptr;
      }
      return &args[++i];
    };
    if (a == "--json") opt.json = true;
    else if (a == "--canon") opt.canon = true;
    else if (a == "--chrome") {
      const std::string* v = value("--chrome");
      if (v == nullptr) return usage(err);
      opt.chrome_path = *v;
    } else if (a == "--dot") {
      const std::string* v = value("--dot");
      if (v == nullptr) return usage(err);
      opt.dot_dir = *v;
    } else if (a == "--circuit") {
      const std::string* v = value("--circuit");
      if (v == nullptr) return usage(err);
      opt.circuit_path = *v;
    } else if (a == "--delays") {
      const std::string* v = value("--delays");
      if (v == nullptr) return usage(err);
      opt.delays_path = *v;
    } else if (a == "--tree") {
      const std::string* v = value("--tree");
      if (v == nullptr) return usage(err);
      try {
        opt.tree_chk = std::stoll(*v);
      } catch (const std::exception&) {
        err << "error: --tree needs a check id, got " << *v << "\n";
        return usage(err);
      }
    } else if (a == "--top") {
      const std::string* v = value("--top");
      if (v == nullptr) return usage(err);
      try {
        opt.top = std::stoull(*v);
      } catch (const std::exception&) {
        err << "error: --top needs a number, got " << *v << "\n";
        return usage(err);
      }
    } else if (!a.empty() && a[0] == '-') {
      err << "error: unknown flag " << a << "\n";
      return usage(err);
    } else if (opt.trace_path.empty()) {
      opt.trace_path = a;
    } else {
      err << "error: more than one trace file given\n";
      return usage(err);
    }
  }
  if (opt.trace_path.empty()) return usage(err);
  if (!opt.dot_dir.empty() && opt.circuit_path.empty()) {
    err << "error: --dot needs --circuit FILE\n";
    return usage(err);
  }

  if (opt.canon) return run_canon(opt, out, err);

  std::ifstream in(opt.trace_path);
  if (!in) {
    err << "error: cannot open " << opt.trace_path << "\n";
    return 2;
  }
  const TraceAnalysis analysis = analyze_trace(in);

  if (!opt.chrome_path.empty()) {
    std::ifstream cin2(opt.trace_path);
    std::ofstream cout2(opt.chrome_path);
    if (!cout2) {
      err << "error: cannot write " << opt.chrome_path << "\n";
      return 2;
    }
    try {
      const ChromeExportStats stats = write_chrome_trace(cin2, cout2);
      out << "chrome: " << opt.chrome_path << " (" << stats.events_out
          << " events, " << stats.workers << " track(s))\n";
    } catch (const std::exception& e) {
      err << "error: chrome export: " << e.what() << "\n";
      return 2;
    }
  }
  if (!opt.dot_dir.empty()) {
    const int rc = write_dots(analysis, opt, out, err);
    if (rc != 0) return rc;
  }

  if (opt.json) {
    json_report(analysis, out);
  } else {
    text_report(analysis, opt, out);
  }

  if (analysis.n_warnings > 0) {
    err << "trace is structurally damaged: " << analysis.n_warnings
        << " warning(s)\n";
    for (const std::string& w : analysis.warnings) err << "  " << w << "\n";
    return 1;
  }
  return 0;
}

}  // namespace waveck::explain
