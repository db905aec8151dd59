// E3 -- Table 1: the full ISCAS'85-class suite.
//
// For every circuit (NOR implementation, 10 units per gate) this harness
// finds the exact floating-mode delay delta_E (adaptive binary search with
// per-probe simulation jumps), then reports the paper's two rows:
//   * delta = delta_E + 1 : which stage proves N (or how many backtracks);
//   * delta = delta_E     : the case analysis finds a test vector (V).
// Circuits whose search is abandoned (the paper's c6288) report an upper
// bound (U) and 'A', exactly like Table 1.
//
// Absolute top/delta values differ from the paper (generated analogue
// netlists; see DESIGN.md); the reproduced signal is the *stage profile*:
// which machinery closes each circuit and that vectors need few backtracks.
#include <cstdlib>
#include <iostream>
#include <memory>
#include <vector>

#include "gen/iscas_suite.hpp"
#include "harness.hpp"
#include "netlist/topo_delay.hpp"
#include "sched/check_scheduler.hpp"
#include "sim/floating_sim.hpp"

int main(int argc, char** argv) {
  using namespace waveck;
  using namespace waveck::bench;
  bool quick = false;
  bool json = false;
  std::size_t jobs = 0;    // 0 = serial only, no parallel pass
  std::string upto;        // stop after the first entry matching this prefix
  std::string json_path;    // --json FILE; default depends on --quick
  std::string trace_path;  // --trace: JSONL capture of one extra run per row
  bool history = false;    // --append-history: one JSONL entry per run
  std::string history_path = "BENCH_history.jsonl";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json") {
      json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    } else if (arg == "--counters") {
      prof::set_counters_enabled(true);
    } else if (arg == "--append-history") {
      history = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') history_path = argv[++i];
    } else if (arg == "--jobs") {
      jobs = sched::ThreadPool::hardware_workers();
      if (i + 1 < argc && argv[i + 1][0] != '-') jobs = std::stoull(argv[++i]);
      if (jobs == 0) jobs = sched::ThreadPool::hardware_workers();
    } else if (arg == "--upto" && i + 1 < argc) {
      upto = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::cerr << "usage: bench_table1 [--quick] [--json [FILE]] "
                   "[--jobs [N]] [--upto NAME] "
                   "[--trace FILE.jsonl] [--counters] "
                   "[--append-history [FILE]]\n";
      return 2;
    }
  }

  // A --quick run must not overwrite the committed full-suite baseline.
  if (json_path.empty()) {
    json_path = quick ? "BENCH_table1.quick.json" : "BENCH_table1.json";
  }

  // --trace: every row gets one *extra* run with the sink installed (the
  // timed runs stay untraced so wall clocks match untraced benches); the
  // row's trace_lines is the event count of its capture, which `waveck
  // explain` cross-checks against the row's backtrack/decision tallies.
  std::unique_ptr<telemetry::JsonlTraceSink> trace_sink;
  if (!trace_path.empty()) {
    trace_sink = std::make_unique<telemetry::JsonlTraceSink>(trace_path);
  }

  std::cout << "E3: Table 1 -- ISCAS'85-class suite, NOR implementation, "
               "delay 10/gate\n";
  std::cout << std::string(80, '=') << "\n";
  print_table1_header();
  std::vector<Table1Row> rows;
  double serial_total = 0.0;
  double parallel_total = 0.0;
  bool matched = true;

  const auto suite = gen::table1_suite(quick);
  for (const auto& entry : suite) {
    const Circuit& c = entry.circuit;
    const Time top = topological_delay(c);

    VerifyOptions opt;
    opt.case_analysis.max_backtracks = entry.max_backtracks;
    opt.max_stems = 512;
    Verifier v(c, opt);

    const auto exact = v.exact_floating_delay();
    const std::string kind = exact.exact ? "E" : "U";

    const auto traced_check = [&](Time delta) -> std::int64_t {
      if (!trace_sink) return -1;
      const std::uint64_t before = trace_sink->events_written();
      telemetry::set_trace_sink(trace_sink.get());
      (void)v.check_circuit(delta);
      telemetry::set_trace_sink(nullptr);
      return static_cast<std::int64_t>(trace_sink->events_written() - before);
    };

    // Row 1: delta_E + 1 (the proof row; printed second in the paper's
    // order, which lists the just-failing delta first for some circuits --
    // we keep proof-then-witness order).
    const auto above = v.check_circuit(exact.delay + 1);
    auto row_above = row_from_suite(entry.name, top, exact.delay + 1, "",
                                    above);
    row_above.trace_lines = traced_check(exact.delay + 1);

    // Row 2: delta_E (witness row).
    const auto at = v.check_circuit(exact.delay);
    auto row_at = row_from_suite(entry.name, top, exact.delay, kind, at);
    row_at.trace_lines = traced_check(exact.delay);

    if (jobs > 0) {
      // Parallel pass: the same two suite checks through the scheduler.
      // The deterministic merge must reproduce the serial conclusions and
      // stage statuses exactly; only wall-clock may differ.
      sched::CheckScheduler s(v, {.jobs = jobs});
      const auto p_above = s.check_circuit(exact.delay + 1);
      const auto p_at = s.check_circuit(exact.delay);
      const auto same = [](const SuiteReport& a, const SuiteReport& b) {
        return a.conclusion == b.conclusion && a.before_gitd == b.before_gitd &&
               a.after_gitd == b.after_gitd && a.after_stem == b.after_stem &&
               a.backtracks == b.backtracks;
      };
      if (!same(above, p_above) || !same(at, p_at)) {
        std::cerr << entry.name
                  << ": parallel result diverges from serial -- bug\n";
        matched = false;
      }
      row_above.seconds_parallel = p_above.seconds;
      row_at.seconds_parallel = p_at.seconds;
      serial_total += row_above.seconds + row_at.seconds;
      parallel_total += p_above.seconds + p_at.seconds;
    }

    print_table1_row(row_above);
    rows.push_back(row_above);
    print_table1_row(row_at);
    rows.push_back(row_at);

    // --upto NAME: run the suite prefix ending at the first entry whose
    // label starts with NAME (CI benches up to c1908 to bound job time).
    if (!upto.empty() && entry.name.rfind(upto, 0) == 0) break;
  }

  std::cout << "\nLegend: P possible violation, N no violation, V vector "
               "found,\n        A abandoned (backtrack budget), - not "
               "needed, E exact delay, U upper bound\n";
  if (jobs > 0) {
    std::cout << "\nparallel pass (" << jobs << " jobs): serial "
              << fmt_secs(serial_total) << "s vs parallel "
              << fmt_secs(parallel_total) << "s";
    if (parallel_total > 0) {
      std::cout << "  (" << std::fixed << std::setprecision(2)
                << serial_total / parallel_total << "x)";
    }
    std::cout << "\n"
              << (matched ? "parallel results match serial on every row\n"
                          : "PARALLEL/SERIAL MISMATCH -- see above\n");
  }
  if (json) {
    write_table1_json(json_path, rows, jobs);
    std::cout << "wrote " << json_path << "\n";
  }
  if (history) append_history(history_path, rows, quick);
  return matched ? 0 : 1;
}
