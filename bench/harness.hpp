// Shared helpers for the experiment harnesses: fixed-width table printing
// and the per-circuit "Table 1 row" runner.
#pragma once

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/telemetry.hpp"
#include "verify/report_io.hpp"
#include "verify/verifier.hpp"

#ifndef WAVECK_SOURCE_ID
#define WAVECK_SOURCE_ID "unknown"  // set per target by bench/CMakeLists.txt
#endif

namespace waveck::bench {

inline void print_row(const std::vector<std::string>& cells,
                      const std::vector<int>& widths) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::cout << std::left << std::setw(widths[i]) << cells[i];
  }
  std::cout << "\n";
}

inline std::string fmt_time(Time t) { return t.str(); }

inline std::string fmt_secs(double s) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << s;
  return os.str();
}

/// One Table-1 style record: the two deltas (exact and exact+1), per-stage
/// statuses, backtracks, final result, CPU.
struct Table1Row {
  std::string circuit;
  Time top{};
  Time delta{};
  std::string delta_kind;  // "E" exact, "U" upper bound
  StageStatus before_gitd = StageStatus::kNotRun;
  StageStatus after_gitd = StageStatus::kNotRun;
  StageStatus after_stem = StageStatus::kNotRun;
  std::string backtracks;  // number or "-" / "A"
  std::string result;      // V / N / A
  double seconds = 0.0;
  std::size_t backtracks_n = 0;  // numeric form for JSON output
  /// Wall-clock of the same suite check re-run through the parallel
  /// CheckScheduler (bench_table1 --jobs); < 0 = parallel pass not run.
  double seconds_parallel = -1.0;
  /// Violating input vector "bits@output" when the row finds one ("" = no
  /// witness). Part of the CI bench-regression key: the *same* vector must
  /// keep reproducing, not just some vector.
  std::string witness;
  /// Trace events captured for this row's extra traced run (bench_table1
  /// --trace); < 0 = tracing off. Never set on the timed runs, so wall
  /// clocks stay comparable with untraced benches.
  std::int64_t trace_lines = -1;
  /// Per-stage wall time, plus hardware counters under bench_table1
  /// --counters.
  StagePerf stage_perf;
};

inline void print_table1_header() {
  print_row({"CIRCUIT", "MAX.TOP", "DELTA", "BEFORE", "AFTER", "AFTER",
             "C.A.", "C.A.", "CPU"},
            {14, 9, 9, 8, 8, 8, 8, 8, 8});
  print_row({"", "", "", "G.I.T.D.", "G.I.T.D.", "STEM C.", "#BTRCK",
             "RESULT", "(s)"},
            {14, 9, 9, 8, 8, 8, 8, 8, 8});
  std::cout << std::string(80, '-') << "\n";
}

inline void print_table1_row(const Table1Row& r) {
  print_row({r.circuit, fmt_time(r.top), fmt_time(r.delta) + r.delta_kind,
             to_string(r.before_gitd), to_string(r.after_gitd),
             to_string(r.after_stem), r.backtracks, r.result,
             fmt_secs(r.seconds)},
            {14, 9, 9, 8, 8, 8, 8, 8, 8});
}

inline Table1Row row_from_suite(const std::string& name, Time top,
                                Time delta, const std::string& kind,
                                const SuiteReport& rep) {
  Table1Row r;
  r.circuit = name;
  r.top = top;
  r.delta = delta;
  r.delta_kind = kind;
  r.before_gitd = rep.before_gitd;
  r.after_gitd = rep.after_gitd;
  r.after_stem = rep.after_stem;
  r.seconds = rep.seconds;
  r.backtracks_n = rep.backtracks;
  r.stage_perf = rep.stage_perf;
  if (rep.vector) {
    r.witness = format_vector(*rep.vector);
    if (rep.violating_output) {
      r.witness += "@" + std::to_string(rep.violating_output->index());
    }
  }
  switch (rep.conclusion) {
    case CheckConclusion::kViolation:
      r.backtracks = std::to_string(rep.backtracks);
      r.result = "V";
      break;
    case CheckConclusion::kNoViolation:
      r.backtracks = rep.backtracks > 0 ? std::to_string(rep.backtracks) : "-";
      r.result = "N";
      break;
    case CheckConclusion::kAbandoned:
      r.backtracks = "A";
      r.result = "A";
      break;
    case CheckConclusion::kPossible:
      r.backtracks = "-";
      r.result = "P";
      break;
  }
  return r;
}

/// Writes the collected rows as one JSON document (BENCH_table1.json): each
/// row carries the Table 1 columns plus report_io's per-stage cost members.
/// `jobs` > 0 records the worker count of the parallel pass; rows then also
/// carry "seconds_parallel" (serial-vs-parallel comparison).
inline void write_table1_json(const std::string& path,
                              const std::vector<Table1Row>& rows,
                              std::size_t jobs = 0) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path);
  const auto esc = [](const std::string& s) {
    return telemetry::json_escape(s);
  };
  os << "{\"bench\":\"table1\"";
  if (jobs > 0) os << ",\"jobs\":" << jobs;
  os << ",\"rows\":[";
  bool first = true;
  for (const auto& r : rows) {
    if (!first) os << ",";
    first = false;
    os << "{\"circuit\":\"" << esc(r.circuit) << "\""
       << ",\"top\":\"" << esc(r.top.str()) << "\""
       << ",\"delta\":\"" << esc(r.delta.str()) << "\""
       << ",\"delta_kind\":\"" << esc(r.delta_kind) << "\""
       << ",\"before_gitd\":\"" << to_string(r.before_gitd) << "\""
       << ",\"after_gitd\":\"" << to_string(r.after_gitd) << "\""
       << ",\"after_stem\":\"" << to_string(r.after_stem) << "\""
       << ",\"backtracks\":" << r.backtracks_n
       << ",\"result\":\"" << esc(r.result) << "\""
       << ",\"seconds\":" << r.seconds;
    if (r.seconds_parallel >= 0) {
      os << ",\"seconds_parallel\":" << r.seconds_parallel;
    }
    if (r.trace_lines >= 0) os << ",\"trace_lines\":" << r.trace_lines;
    os << ",\"witness\":\"" << esc(r.witness) << "\"";
    os << "," << stage_costs_json(r.stage_perf) << "}";
  }
  os << "]}\n";
}

/// Appends one JSONL entry to the bench history file and prints the
/// total-seconds delta against the previous entry (trend at a glance; the
/// committed file accumulates one line per recorded run).
inline void append_history(const std::string& path,
                           const std::vector<Table1Row>& rows, bool quick) {
  // Previous entry's total_seconds, scraped from the last non-empty line.
  double prev_total = -1.0;
  {
    std::ifstream in(path);
    std::string line, last;
    while (std::getline(in, line)) {
      if (!line.empty()) last = line;
    }
    const std::string key = "\"total_seconds\":";
    if (const auto pos = last.find(key); pos != std::string::npos) {
      prev_total = std::strtod(last.c_str() + pos + key.size(), nullptr);
    }
  }

  double total_seconds = 0.0;
  std::size_t total_backtracks = 0;
  StagePerf perf;
  for (const auto& r : rows) {
    total_seconds += r.seconds;
    total_backtracks += r.backtracks_n;
    perf.add(r.stage_perf);
  }

  char ts[32] = "";
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm_utc{};
  if (gmtime_r(&now, &tm_utc) != nullptr) {
    std::strftime(ts, sizeof ts, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  }

  std::ofstream os(path, std::ios::app);
  if (!os) throw std::runtime_error("cannot open " + path);
  os << "{\"bench\":\"table1\",\"ts\":\"" << ts << "\",\"commit\":\""
     << WAVECK_SOURCE_ID << "\",\"quick\":"
     << (quick ? "true" : "false") << ",\"rows\":" << rows.size()
     << ",\"total_seconds\":" << total_seconds
     << ",\"total_backtracks\":" << total_backtracks;
  os << "," << stage_costs_json(perf);
  os << ",\"rows_summary\":[";
  bool first = true;
  for (const auto& r : rows) {
    if (!first) os << ",";
    first = false;
    os << "{\"circuit\":\"" << telemetry::json_escape(r.circuit)
       << "\",\"delta\":\"" << telemetry::json_escape(r.delta.str())
       << "\",\"result\":\"" << telemetry::json_escape(r.result)
       << "\",\"seconds\":" << r.seconds << "}";
  }
  os << "]}\n";

  std::cout << "history: appended to " << path << " (total "
            << fmt_secs(total_seconds) << "s";
  if (prev_total >= 0.0) {
    const double d = total_seconds - prev_total;
    std::cout << ", " << (d >= 0 ? "+" : "") << fmt_secs(d)
              << "s vs previous";
    if (prev_total > 0.0) {
      std::cout << " [" << std::showpos << std::fixed << std::setprecision(1)
                << 100.0 * d / prev_total << "%" << std::noshowpos << "]";
    }
  }
  std::cout << ")\n";
}

}  // namespace waveck::bench
