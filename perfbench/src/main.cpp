// waveck_perfbench: the repository's end-to-end benchmark.
//
//   waveck_perfbench --workload table1_suite|c6288_delay|serve_mix
//                    --seed N --seconds S --trace 0|1
//                    [--smoke] [--work-dir DIR] [--source-id ID]
//
// Prints the run stamp, the workload's fingerprint and, as the last line of
// stdout, one JSON object {"correct","attempted","failed","metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1
// (whose spans are also written to DIR/trace-<workload>-<seed>.jsonl).
// Exit code 0 when every verdict checked out, 1 otherwise, 2 on usage.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common/flight_recorder.hpp"
#include "common/telemetry.hpp"
#include "constraints/level_kernel.hpp"
#include "prof/perf_counters.hpp"
#include "workload.hpp"

namespace {

using perfbench::Metrics;

int usage() {
  std::cerr << "usage: waveck_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--work-dir DIR] [--source-id ID]\n";
  return 2;
}

std::string esc(const std::string& s) { return waveck::telemetry::json_escape(s); }

/// Where the numbers were taken: perfbench/run.py flags results whose
/// stamps differ instead of comparing them.
std::string run_stamp(const std::string& source_id) {
  auto& group = waveck::prof::thread_counter_group();
  const bool perf = group.available();
  std::string s = "{\"source\":\"" + esc(source_id) + "\"";
  s += ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  s += ",\"avx2\":";
  s += __builtin_cpu_supports("avx2") ? "true" : "false";
  s += ",\"simd_enabled\":";
  s += waveck::simd_enabled() ? "true" : "false";
  s += ",\"perf_counters\":";
  s += perf ? "true" : "false";
  s += ",\"perf_reason\":\"" + esc(perf ? "" : waveck::prof::unavailable_reason()) + "\"";
  s += ",\"flight\":";
  s += waveck::flight::enabled() ? "true" : "false";
  s += ",\"build_type\":\"" WAVECK_PERFBENCH_BUILD_TYPE "\"";
  s += ",\"compiler\":\"" WAVECK_PERFBENCH_COMPILER "\"}";
  return s;
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string source_id = "unknown";
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      cfg.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      cfg.trace = std::string(argv[++i]) == "1";
      have_trace = true;
    } else if (a == "--smoke") {
      cfg.smoke = true;
    } else if (a == "--work-dir" && has_value) {
      cfg.work_dir = argv[++i];
    } else if (a == "--source-id" && has_value) {
      source_id = argv[++i];
    } else {
      return usage();
    }
  }
  if (cfg.workload.empty() || !have_trace || cfg.seconds <= 0) return usage();
  if (cfg.work_dir.empty()) cfg.work_dir = ".";

  const std::string stamp = run_stamp(source_id);
  std::cout << "stamp " << stamp << "\n";

  perfbench::Outcome out;
  try {
    if (cfg.workload == "table1_suite") {
      out = perfbench::run_table1_suite(cfg);
    } else if (cfg.workload == "c6288_delay") {
      out = perfbench::run_c6288_delay(cfg);
    } else if (cfg.workload == "serve_mix") {
      out = perfbench::run_serve_mix(cfg);
    } else {
      std::cerr << "unknown workload: " << cfg.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "waveck_perfbench: " << e.what() << "\n";
    return 1;
  }

  for (const std::string& f : out.failures) std::cout << "FAILED " << f << "\n";
  std::cout << "fingerprint " << cfg.workload << " " << out.fingerprint << "\n";
  std::cout << "fingerprint_detail " << out.fingerprint_detail << "\n";
  if (cfg.trace) {
    const std::string path = cfg.work_dir + "/trace-" + cfg.workload + "-" +
                             std::to_string(cfg.seed) + ".jsonl";
    const std::string header = "{\"trace\":\"perfbench\",\"workload\":\"" +
                               esc(cfg.workload) + "\",\"seed\":" +
                               std::to_string(cfg.seed) + ",\"stamp\":" + stamp + "}";
    if (perfbench::Recorder::write_jsonl(path, header)) {
      std::cout << "spans written to " << path << "\n";
    } else {
      std::cout << "could not write " << path << "\n";
    }
  }
  Metrics& m = out.metrics;
  if (!cfg.trace) {
    // Wrong verdicts, failed witness replays and protocol errors, as the
    // share of checked outcomes that came out right.
    m["correct_share"] = {
        out.attempted > 0 ? 1.0 - static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted)
                          : 0.0,
        "ratio"};
  }
  for (const auto& [name, metric] : m) {
    std::cout << "metric " << name << " = " << fmt(metric.value) << " "
              << metric.unit << "\n";
  }
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::string line = "{\"correct\":";
  line += correct ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(out.attempted);
  line += ",\"failed\":" + std::to_string(out.failed);
  line += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) line += ",";
    first = false;
    line += "\"" + name + "\":{\"value\":" + fmt(metric.value) +
            ",\"unit\":\"" + metric.unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return correct ? 0 : 1;
}
