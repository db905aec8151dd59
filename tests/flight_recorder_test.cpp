// Flight recorder (doc/OBSERVABILITY.md): ring overwrite semantics, merged
// chronological dumps, blackbox dumps on deadline expiry and fatal signals,
// and the explain-compatibility contract — every dump the sanitizing writer
// produces must load into explain::analyze_trace() with zero warnings.
#include "common/flight_recorder.hpp"

#include <algorithm>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <latch>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/telemetry.hpp"
#include "explain/analyzer.hpp"
#include "explain/trace_reader.hpp"
#include "gen/generators.hpp"
#include "gen/iscas_suite.hpp"
#include "netlist/circuit.hpp"
#include "prof/perf_counters.hpp"
#include "prof/span.hpp"
#include "verify/verifier.hpp"

namespace waveck {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory under /tmp, removed on destruction.
struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/waveck_flight_XXXXXX";
    const char* p = ::mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    path = p != nullptr ? p : "";
  }
  ~TempDir() {
    std::error_code ec;
    if (!path.empty()) fs::remove_all(path, ec);
  }
  std::string path;
};

/// Leaves the recorder in its default state even when a test fails midway.
struct RecorderGuard {
  ~RecorderGuard() {
    flight::set_blackbox_dir("");
    flight::set_enabled(true);
    flight::reset_for_test();
  }
};

std::vector<std::string> blackbox_files(const std::string& dir,
                                        const std::string& reason) {
  std::vector<std::string> out;
  const std::string prefix = "flight-" + reason + "-";
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind(prefix, 0) == 0) out.push_back(e.path().string());
  }
  return out;
}

TEST(FlightRecorder, RingKeepsOnlyLastCapacityRecords) {
  auto ring = std::make_unique<flight::Ring>();  // 256 KiB: keep off stack
  constexpr std::uint64_t kExtra = 100;
  constexpr std::uint64_t kTotal = flight::Ring::kCapacity + kExtra;

  flight::Record r{};
  r.kind = static_cast<std::uint8_t>(flight::Kind::kMark);
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    r.t_ns = i;
    ring->push(r);
  }

  EXPECT_EQ(ring->head(), kTotal);
  // The readable window is the last kCapacity pushes; the first kExtra
  // records were overwritten in place.
  for (std::uint64_t i = kTotal - flight::Ring::kCapacity; i < kTotal; ++i) {
    ASSERT_EQ(ring->slot(i).t_ns, i) << "slot " << i;
  }
  // The slot that held record 0 now holds record kCapacity.
  EXPECT_EQ(ring->slot(0).t_ns, flight::Ring::kCapacity);
}

TEST(FlightRecorder, DumpMergesThreadsInChronologicalOrder) {
  RecorderGuard guard;
  flight::reset_for_test();
  flight::set_enabled(true);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  // The threads stay alive together (a thread that exits returns its slot
  // to the next one), so each records into a ring of its own.
  std::latch all_done(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &all_done] {
      for (int i = 0; i < kPerThread; ++i) {
        flight::record(flight::Kind::kMark,
                       "t" + std::to_string(t) + "_" + std::to_string(i));
      }
      all_done.arrive_and_wait();
    });
  }
  for (auto& th : threads) th.join();

  std::stringstream ss;
  flight::dump(ss, "merge_test");

  explain::TraceReader reader(ss);
  explain::TraceEvent ev;
  ASSERT_TRUE(reader.next(ev)) << reader.error();
  EXPECT_EQ(ev.ev, "fr_dump");
  EXPECT_EQ(ev.str("reason"), "merge_test");
  EXPECT_GE(ev.num("rings", 0), kThreads);

  std::int64_t prev_t = -1;
  std::size_t marks = 0;
  while (reader.next(ev)) {
    ASSERT_GE(ev.t, prev_t) << "dump not chronological at line "
                            << reader.line_number();
    prev_t = ev.t;
    if (ev.ev == "mark") ++marks;
  }
  EXPECT_TRUE(reader.error().empty()) << reader.error();
  EXPECT_GE(marks, static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(FlightRecorder, DeadlineExpiryWritesBlackboxDump) {
  RecorderGuard guard;
  TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  flight::reset_for_test();
  flight::set_enabled(true);
  flight::set_blackbox_dir(dir.path);

  // 300 ms of FAN search on the multiplier is far more than the 4096-slot
  // ring holds, so the abandoned check's check_begin is long evicted when
  // the dump is written: the dump must still explain that check.
  Circuit c = gen::build_raw("c6288");
  c.set_uniform_delay(DelaySpec::fixed(10));
  Verifier v(c);
  v.prepare_shared();  // static learning stays out of the 300 ms
  v.set_deadline_ns(telemetry::monotonic_ns() + 300'000'000ull);
  const SuiteReport rep = v.check_circuit(Time(500));
  ASSERT_EQ(rep.conclusion, CheckConclusion::kAbandoned);

  const auto dumps = blackbox_files(dir.path, "deadline_expired");
  ASSERT_FALSE(dumps.empty())
      << "abandoned deadline left no blackbox dump in " << dir.path;
  std::ifstream in(dumps.front());
  ASSERT_TRUE(in.good());
  const explain::TraceAnalysis an = explain::analyze_trace(in);
  EXPECT_TRUE(an.well_formed())
      << (an.warnings.empty() ? std::string() : an.warnings.front());
  EXPECT_EQ(an.dump_reason, "deadline_expired");
  ASSERT_FALSE(an.checks.empty()) << "the dump explains no check";
  const explain::CheckTree& abandoned = an.checks.back();
  EXPECT_EQ(abandoned.conclusion, "A");
  const auto first_a = std::find_if(
      rep.per_output.begin(), rep.per_output.end(), [](const CheckReport& r) {
        return r.conclusion == CheckConclusion::kAbandoned;
      });
  ASSERT_NE(first_a, rep.per_output.end());
  EXPECT_EQ(abandoned.output, c.net(first_a->check.output).name);
  EXPECT_EQ(abandoned.delta, 500);
  bool case_analysis_abandoned = false;
  for (const explain::StageSpan& st : abandoned.stages) {
    case_analysis_abandoned |= st.stage == "case_analysis" && st.status == "A";
  }
  EXPECT_TRUE(case_analysis_abandoned);
  EXPECT_GT(abandoned.n_decisions + abandoned.n_conflicts, 0u);
}

TEST(FlightRecorder, FatalSignalDumpSurvivesTheCrash) {
  RecorderGuard guard;
  TempDir dir;
  ASSERT_FALSE(dir.path.empty());

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: arm the blackbox, record something, then die by SIGSEGV. The
    // handler must write the dump before the default disposition re-raises.
    flight::set_blackbox_dir(dir.path);
    flight::install_fatal_handlers();
    flight::record(flight::Kind::kMark, "about_to_crash");
    std::raise(SIGSEGV);
    ::_exit(0);  // unreachable
  }

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  const std::string path =
      dir.path + "/flight-fatal-" + std::to_string(pid) + ".jsonl";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "no fatal dump at " << path;
  const explain::TraceAnalysis an = explain::analyze_trace(in);
  // The signal-safe writer does not sanitize, so warnings are tolerated —
  // but the header and the child's mark must have survived the crash.
  EXPECT_EQ(an.dump_reason, "fatal_signal");
  EXPECT_GT(an.events, 0u);
  EXPECT_GE(an.event_counts.count("mark"), 1u);
}

TEST(FlightRecorder, ExplainLoadsRealCheckDumpWithZeroWarnings) {
  RecorderGuard guard;
  flight::reset_for_test();
  flight::set_enabled(true);

  // A real multi-check run so the rings hold genuine check/stage/decision
  // spans, not synthetic marks.
  Circuit c = gen::carry_skip_adder(8, 2);
  c.set_uniform_delay(DelaySpec::fixed(10));
  Verifier v(c);
  const SuiteReport rep = v.check_circuit(Time(40));
  ASSERT_FALSE(rep.per_output.empty());

  std::stringstream ss;
  flight::dump(ss, "test");
  const explain::TraceAnalysis an = explain::analyze_trace(ss);
  EXPECT_TRUE(an.well_formed())
      << an.n_warnings << " warnings, first: "
      << (an.warnings.empty() ? std::string() : an.warnings.front());
  EXPECT_EQ(an.dump_reason, "test");
  EXPECT_GT(an.dump_records, 0);
  EXPECT_FALSE(an.checks.empty());
  EXPECT_GT(an.event_counts.count("check_begin"), 0u);
}

/// c17 with names the escaper has work on: a quote and a backslash in a
/// reconvergent stem's name, and an output name longer than a record keeps.
Circuit c17_with_awkward_names() {
  Circuit c("c17");
  const auto net = [&c](const char* name) {
    return c.net_by_name_or_add(name);
  };
  const char* stem = "st\"em\\11";
  const char* out = "output_22_with_a_name_longer_than_the_ring_keeps";
  for (const char* in : {"1", "2", "3", "6", "7"}) c.declare_input(net(in));
  c.add_gate(GateType::kNand, net("10"), {net("1"), net("3")});
  c.add_gate(GateType::kNand, net(stem), {net("3"), net("6")});
  c.add_gate(GateType::kNand, net("16"), {net("2"), net(stem)});
  c.add_gate(GateType::kNand, net("19"), {net(stem), net("7")});
  c.add_gate(GateType::kNand, net(out), {net("10"), net("16")});
  c.add_gate(GateType::kNand, net("23"), {net("16"), net("19")});
  c.declare_output(net(out));
  c.declare_output(net("23"));
  c.finalize();
  return c;
}

/// The `explain --canon` form of each event of a trace or dump, minus what
/// only one of them can carry: the dump's fr_dump header, the part of a
/// name beyond what a record keeps, and check_end's witness vector.
std::vector<std::string> comparable_lines(std::istream& in) {
  std::vector<std::string> out;
  explain::TraceReader reader(in);
  explain::TraceEvent ev;
  while (reader.next(ev)) {
    if (ev.ev == "fr_dump") continue;
    std::string line = "{";
    for (const auto& [k, v] : ev.fields) {
      if (k == "t" || k == "seq" || (ev.ev == "check_end" && k == "vector")) {
        continue;
      }
      line += k + "=";
      line += v.kind == explain::TraceValue::Kind::kString &&
                      v.str.size() >= flight::kNameCap
                  ? "\"" + v.str.substr(0, flight::kNameCap) + "...\""
                  : v.raw;
      line += ";";
    }
    out.push_back(line + "}");
  }
  EXPECT_TRUE(reader.error().empty()) << reader.error();
  return out;
}

TEST(FlightRecorder, TraceAndDumpCarryTheSameEvents) {
  RecorderGuard guard;
  flight::reset_for_test();
  flight::set_enabled(true);

  // At delta* c17 runs every event kind. With case analysis off it runs
  // stems (one reconvergent stem carries the awkward name); with it on,
  // propagations and a FAN search ending V. That search finds its witness
  // without a conflict, so it runs no stems.
  Circuit c = c17_with_awkward_names();
  c.set_uniform_delay(DelaySpec::fixed(10));
  VerifyOptions no_search;
  no_search.use_case_analysis = false;
  Verifier stems_only(c, no_search);
  Verifier v(c);
  std::stringstream trace;
  {
    telemetry::JsonlTraceSink sink(trace);
    telemetry::set_trace_sink(&sink);
    const SuiteReport stemmed = stems_only.check_circuit(Time(30));
    const SuiteReport rep = v.check_circuit(Time(30));
    telemetry::set_trace_sink(nullptr);
    ASSERT_EQ(stemmed.conclusion, CheckConclusion::kPossible);
    ASSERT_EQ(rep.conclusion, CheckConclusion::kViolation);
  }
  std::stringstream dump;
  flight::dump(dump, "parity");

  const std::string raw = trace.str();
  EXPECT_NE(raw.find("\"net\":\"st\\\"em\\\\11\""), std::string::npos)
      << "the trace must carry the stem's name json-escaped";
  EXPECT_NE(raw.find("\"output\":\"output_22_with_a_name_longer_than_the_ring"
                     "_keeps\""),
            std::string::npos)
      << "the trace must carry the full-length output name";
  const std::vector<std::string> from_trace = comparable_lines(trace);
  const std::vector<std::string> from_dump = comparable_lines(dump);
  ASSERT_FALSE(from_trace.empty());
  for (const char* ev : {"stage_end", "stem", "propagate", "decision"}) {
    EXPECT_NE(raw.find(std::string("{\"ev\":\"") + ev + "\""),
              std::string::npos)
        << "the run records no " << ev;
  }
  ASSERT_EQ(from_trace.size(), from_dump.size());
  for (std::size_t i = 0; i < from_trace.size(); ++i) {
    EXPECT_EQ(from_trace[i], from_dump[i]) << "event " << i;
  }
}

TEST(FlightRecorder, LongTraceLinesStayWhole) {
  RecorderGuard guard;
  flight::reset_for_test();
  const std::string name(300, 'n');
  const std::string vector(2000, '1');
  std::stringstream trace;
  {
    telemetry::JsonlTraceSink sink(trace);
    telemetry::set_trace_sink(&sink);
    flight::record(flight::Kind::kCheckEnd, name, 1'500'000'000, 7, 'V', 0,
                   vector);
    telemetry::set_trace_sink(nullptr);
  }
  explain::TraceReader reader(trace);
  explain::TraceEvent ev;
  ASSERT_TRUE(reader.next(ev)) << reader.error();
  EXPECT_EQ(ev.ev, "check_end");
  EXPECT_EQ(ev.str("output"), name);
  EXPECT_EQ(ev.str("conclusion"), "V");
  EXPECT_EQ(ev.find("seconds")->raw, "1.500000000");
  EXPECT_EQ(ev.str("vector"), vector);
  EXPECT_FALSE(reader.next(ev));
}

TEST(FlightRecorder, DisabledRecorderRecordsNothing) {
  RecorderGuard guard;
  flight::reset_for_test();
  flight::set_enabled(false);
  flight::record(flight::Kind::kMark, "should_not_appear");
  EXPECT_EQ(flight::stats().records, 0u);

  flight::set_enabled(true);
  flight::record(flight::Kind::kMark, "appears");
  EXPECT_GE(flight::stats().records, 1u);
}

TEST(FlightRecorder, ShortLivedThreadsRecycleTheirSlots) {
  // Three tables' worth of threads, one after another: each returns its
  // slot when it exits, so the last one still records, and the table never
  // grows past its 64 slots.
  RecorderGuard guard;
  flight::set_enabled(true);
  constexpr int kThreads = 3 * 64;
  for (int t = 0; t < kThreads; ++t) {
    std::thread([t] {
      flight::record(flight::Kind::kMark, "thread_" + std::to_string(t));
    }).join();
  }
  EXPECT_LE(flight::stats().rings, 64);
  std::stringstream ss;
  flight::dump(ss, "recycle_test");
  const std::string last =
      "\"name\":\"thread_" + std::to_string(kThreads - 1) + "\"";
  EXPECT_NE(ss.str().find(last), std::string::npos) << ss.str().substr(0, 400);
}

TEST(FlightRecorder, DumpNamesTheCheckStillRunning) {
  // A check that outlives its ring has lost its check_begin, and a dump
  // written while it runs has no check_end to take the output from: the
  // synthesized check_begin names it from the running thread's slot.
  RecorderGuard guard;
  flight::reset_for_test();
  flight::set_enabled(true);
  std::mutex mu;
  std::condition_variable cv;
  bool recorded = false, dumped = false;
  std::thread runner([&] {
    const std::string output = "p31";
    prof::CheckSpan span(output, 500);
    for (std::size_t i = 0; i < flight::Ring::kCapacity + 100; ++i) {
      flight::record(flight::Kind::kConflict, {}, 0, 1);
    }
    std::unique_lock lock(mu);
    recorded = true;
    cv.notify_all();
    cv.wait(lock, [&] { return dumped; });
    (void)span.close('A', {});
  });
  std::stringstream ss;
  {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return recorded; });
    flight::dump(ss, "still_running");
    dumped = true;
    cv.notify_all();
  }
  runner.join();

  // The check is the one its surviving conflicts belong to.
  explain::TraceReader reader(ss);
  explain::TraceEvent ev, begin;
  std::int64_t chk = -1;
  while (reader.next(ev)) {
    if (ev.ev == "check_begin") begin = ev;
    if (ev.ev == "conflict") {
      chk = ev.chk;
      break;
    }
  }
  ASSERT_GE(chk, 0) << ss.str().substr(0, 400);
  EXPECT_EQ(begin.chk, chk);
  EXPECT_EQ(begin.str("output"), "p31");
  EXPECT_EQ(begin.num("delta"), 500);
}

TEST(FlightRecorder, BlackboxCooldownRateLimitsPerReason) {
  RecorderGuard guard;
  TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  flight::reset_for_test();
  flight::set_enabled(true);
  flight::set_blackbox_dir(dir.path);
  flight::record(flight::Kind::kMark, "cooldown_probe");

  const std::string first = flight::dump_blackbox("cooldown_test");
  EXPECT_FALSE(first.empty());
  // Within the cooldown window the same reason is rate-limited...
  EXPECT_TRUE(flight::dump_blackbox("cooldown_test").empty());
  // ...but cooldown 0 forces a write, and a different reason is unaffected.
  EXPECT_FALSE(flight::dump_blackbox("cooldown_test", 0).empty());
  EXPECT_FALSE(flight::dump_blackbox("other_reason").empty());
  EXPECT_EQ(blackbox_files(dir.path, "cooldown_test").size(), 2u);
}

}  // namespace
}  // namespace waveck
