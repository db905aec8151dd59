// Tests for src/explain: trace reader raw-token fidelity, analyzer search-
// tree reconstruction + warnings, chrome/DOT exporters, the CLI driver, and
// the trace-well-formedness fuzz property.
#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/telemetry.hpp"
#include "explain/analyzer.hpp"
#include "explain/chrome_export.hpp"
#include "explain/dot_export.hpp"
#include "explain/explain_cli.hpp"
#include "explain/trace_reader.hpp"
#include "fuzz/differential.hpp"
#include "gen/generators.hpp"
#include "gen/iscas_suite.hpp"
#include "verify/verifier.hpp"

namespace waveck::explain {
namespace {

// ---------------------------------------------------------------------------
// TraceReader
// ---------------------------------------------------------------------------

TEST(TraceReader, ParsesAllValueKindsAndKeepsRawTokens) {
  TraceEvent e;
  std::string err;
  ASSERT_TRUE(parse_trace_line(
      R"({"ev":"check_begin","seq":3,"t":120,"w":1,"chk":7,"dec":2,)"
      R"("output":"n\"x","delta":-40,"ratio":0.250,"flag":true,"none":null})",
      e, err))
      << err;
  EXPECT_EQ(e.ev, "check_begin");
  EXPECT_EQ(e.seq, 3);
  EXPECT_EQ(e.t, 120);
  EXPECT_EQ(e.w, 1);
  EXPECT_EQ(e.chk, 7);
  EXPECT_EQ(e.dec, 2);
  EXPECT_EQ(e.str("output"), "n\"x");
  EXPECT_EQ(e.num("delta"), -40);
  ASSERT_NE(e.find("ratio"), nullptr);
  EXPECT_DOUBLE_EQ(e.find("ratio")->d, 0.25);
  EXPECT_EQ(e.find("ratio")->raw, "0.250");  // raw token verbatim
  EXPECT_TRUE(e.find("flag")->b);
  EXPECT_EQ(e.find("none")->kind, TraceValue::Kind::kNull);
  EXPECT_EQ(e.fields.size(), 11u);
}

TEST(TraceReader, RejectsMalformedLines) {
  TraceEvent e;
  std::string err;
  EXPECT_FALSE(parse_trace_line("not json", e, err));
  EXPECT_FALSE(parse_trace_line(R"({"ev":"x")", e, err));       // truncated
  EXPECT_FALSE(parse_trace_line(R"({"seq":1})", e, err));       // no ev
  EXPECT_FALSE(parse_trace_line(R"({"ev":"x"} tail)", e, err)); // trailing
}

TEST(TraceReader, CanonicalLineStripsOnlyRequestedKeys) {
  const std::string line =
      R"({"ev":"propagate","seq":9,"t":512,"w":0,"chk":1,"applications":3,"ratio":1.50})";
  TraceEvent e;
  std::string err;
  ASSERT_TRUE(parse_trace_line(line, e, err)) << err;
  // No strip: byte-identical round-trip (raw tokens, "1.50" included).
  EXPECT_EQ(canonical_line(e, {}), line);
  static constexpr std::array<std::string_view, 2> kStrip = {"t", "seq"};
  EXPECT_EQ(canonical_line(e, kStrip),
            R"({"ev":"propagate","w":0,"chk":1,"applications":3,"ratio":1.50})");
}

TEST(TraceReader, StreamsAndReportsLineNumbers) {
  std::istringstream in(
      "{\"ev\":\"a\",\"seq\":1}\n\n{\"ev\":\"b\",\"seq\":2}\nbroken\n");
  TraceReader r(in);
  TraceEvent e;
  ASSERT_TRUE(r.next(e));
  EXPECT_EQ(e.ev, "a");
  ASSERT_TRUE(r.next(e));
  EXPECT_EQ(e.ev, "b");
  EXPECT_FALSE(r.next(e));
  EXPECT_NE(r.error().find("line 4"), std::string::npos) << r.error();
}

// ---------------------------------------------------------------------------
// Analyzer on synthetic traces
// ---------------------------------------------------------------------------

/// A minimal well-formed check: two decisions (child backtracked then
/// exhausted), work attributed at root, decision 1, and decision 2.
const char* kSyntheticTrace =
    R"({"ev":"check_begin","seq":1,"t":0,"w":0,"chk":1,"output":"y","delta":30}
{"ev":"stage_begin","seq":2,"t":1,"w":0,"chk":1,"stage":"narrowing"}
{"ev":"propagate","seq":3,"t":2,"w":0,"chk":1,"queue":4,"applications":10,"revisions":2,"status":"P"}
{"ev":"stage_end","seq":4,"t":3,"w":0,"chk":1,"stage":"narrowing","status":"P"}
{"ev":"decision","seq":5,"t":4,"w":0,"chk":1,"dec":1,"parent":-1,"net":"a","cls":true,"depth":1}
{"ev":"propagate","seq":6,"t":5,"w":0,"chk":1,"dec":1,"queue":2,"applications":7,"revisions":1,"status":"P"}
{"ev":"decision","seq":7,"t":6,"w":0,"chk":1,"dec":2,"parent":1,"net":"b","cls":false,"depth":2}
{"ev":"propagate","seq":8,"t":7,"w":0,"chk":1,"dec":2,"queue":2,"applications":5,"revisions":1,"status":"N"}
{"ev":"conflict","seq":9,"t":8,"w":0,"chk":1,"dec":2,"depth":2}
{"ev":"backtrack","seq":10,"t":9,"w":0,"chk":1,"dec":2,"net":"b","cls":false,"depth":2}
{"ev":"propagate","seq":11,"t":10,"w":0,"chk":1,"dec":2,"queue":2,"applications":4,"revisions":0,"status":"N"}
{"ev":"conflict","seq":12,"t":11,"w":0,"chk":1,"dec":2,"depth":2}
{"ev":"decision_close","seq":13,"t":12,"w":0,"chk":1,"dec":2,"outcome":"exhausted"}
{"ev":"decision_close","seq":14,"t":13,"w":0,"chk":1,"dec":1,"outcome":"witness"}
{"ev":"check_end","seq":15,"t":14,"w":0,"chk":1,"output":"y","conclusion":"V","seconds":0.001,"vector":"101"}
)";

TEST(Analyzer, ReconstructsDecisionTreeWithAttribution) {
  std::istringstream in(kSyntheticTrace);
  const TraceAnalysis a = analyze_trace(in);
  EXPECT_TRUE(a.well_formed())
      << (a.warnings.empty() ? "" : a.warnings.front());
  ASSERT_EQ(a.checks.size(), 1u);
  const CheckTree& c = a.checks.front();
  EXPECT_EQ(c.output, "y");
  EXPECT_EQ(c.delta, 30);
  EXPECT_TRUE(c.closed);
  EXPECT_EQ(c.conclusion, "V");
  EXPECT_EQ(c.witness, "101");
  EXPECT_EQ(c.n_decisions, 2u);
  EXPECT_EQ(c.n_backtracks, 1u);
  EXPECT_EQ(c.n_conflicts, 2u);

  // Tree shape: decision 1 is a root, decision 2 its child.
  ASSERT_EQ(c.roots.size(), 1u);
  EXPECT_EQ(c.roots.front(), 1);
  const DecisionNode& d1 = c.decisions.at(1);
  const DecisionNode& d2 = c.decisions.at(2);
  ASSERT_EQ(d1.children.size(), 1u);
  EXPECT_EQ(d1.children.front(), 2);
  EXPECT_EQ(d1.close, "witness");
  EXPECT_EQ(d2.close, "exhausted");
  EXPECT_TRUE(d2.backtracked);
  EXPECT_FALSE(d1.backtracked);

  // Work attribution: root 10, d1 7, d2 5+4; d2's work is fully wasted
  // (first branch backtracked, second exhausted), d1's is not.
  EXPECT_EQ(c.root_gate_evals, 10u);
  EXPECT_EQ(d1.gate_evals, 7u);
  EXPECT_EQ(d2.gate_evals, 9u);
  EXPECT_EQ(d2.wasted_gate_evals, 9u);
  EXPECT_EQ(d1.wasted_gate_evals, 0u);
  EXPECT_EQ(c.total_gate_evals(), 26u);
  EXPECT_EQ(c.wasted_gate_evals(), 9u);
  EXPECT_NEAR(c.wasted_ratio(), 9.0 / 26.0, 1e-12);

  // Stage waterfall and per-net aggregation.
  ASSERT_EQ(c.stages.size(), 1u);
  EXPECT_EQ(c.stages.front().stage, "narrowing");
  EXPECT_EQ(c.stages.front().status, "P");
  EXPECT_EQ(a.net_stats.at("b").backtracks, 1u);
  EXPECT_EQ(a.net_stats.at("b").gate_evals, 9u);
  const auto top = a.top_nets(&NetStat::gate_evals, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top.front()->net, "b");
}

/// A check whose first search pass conflicts: decision 1 closes with
/// "restart", stems run, and a second case_analysis span continues the
/// decision ids with decision 2, which ends at the witness.
const char* kRestartTrace =
    R"({"ev":"check_begin","seq":1,"t":0,"w":0,"chk":1,"output":"y","delta":30}
{"ev":"stage_begin","seq":2,"t":1000,"w":0,"chk":1,"stage":"case_analysis"}
{"ev":"decision","seq":3,"t":2000,"w":0,"chk":1,"dec":1,"parent":-1,"net":"a","cls":true,"depth":1}
{"ev":"propagate","seq":4,"t":3000,"w":0,"chk":1,"dec":1,"queue":2,"applications":6,"revisions":1,"status":"N"}
{"ev":"conflict","seq":5,"t":4000,"w":0,"chk":1,"dec":1,"depth":1}
{"ev":"decision_close","seq":6,"t":5000,"w":0,"chk":1,"dec":1,"outcome":"restart"}
{"ev":"stage_end","seq":7,"t":6000,"w":0,"chk":1,"stage":"case_analysis","status":"P"}
{"ev":"stage_begin","seq":8,"t":6000,"w":0,"chk":1,"stage":"stem"}
{"ev":"stem","seq":9,"t":7000,"w":0,"chk":1,"net":"s","outcome":"both","narrowed":0}
{"ev":"stage_end","seq":10,"t":8000,"w":0,"chk":1,"stage":"stem","status":"P"}
{"ev":"stage_begin","seq":11,"t":8000,"w":0,"chk":1,"stage":"case_analysis"}
{"ev":"decision","seq":12,"t":9000,"w":0,"chk":1,"dec":2,"parent":-1,"net":"b","cls":false,"depth":1}
{"ev":"propagate","seq":13,"t":10000,"w":0,"chk":1,"dec":2,"queue":2,"applications":4,"revisions":1,"status":"P"}
{"ev":"decision_close","seq":14,"t":11000,"w":0,"chk":1,"dec":2,"outcome":"witness"}
{"ev":"stage_end","seq":15,"t":12000,"w":0,"chk":1,"stage":"case_analysis","status":"V"}
{"ev":"check_end","seq":16,"t":13000,"w":0,"chk":1,"output":"y","conclusion":"V","seconds":0.000013,"vector":"01"}
)";

TEST(Analyzer, RestartedSearchKeepsBothCaseAnalysisSpans) {
  std::istringstream in(kRestartTrace);
  const TraceAnalysis a = analyze_trace(in);
  EXPECT_TRUE(a.well_formed())
      << (a.warnings.empty() ? "" : a.warnings.front());
  ASSERT_EQ(a.checks.size(), 1u);
  const CheckTree& c = a.checks.front();
  ASSERT_EQ(c.stages.size(), 3u);
  EXPECT_EQ(c.stages[0].stage, "case_analysis");
  EXPECT_EQ(c.stages[0].status, "P");
  EXPECT_EQ(c.stages[1].stage, "stem");
  EXPECT_EQ(c.stages[2].stage, "case_analysis");
  EXPECT_EQ(c.stages[2].status, "V");
  EXPECT_EQ(c.n_decisions, 2u);
  EXPECT_EQ(c.n_backtracks, 0u);
  EXPECT_EQ(c.n_stems, 1u);
  // The first pass's work was thrown away with it; the second pass's was
  // not.
  EXPECT_EQ(c.decisions.at(1).close, "restart");
  EXPECT_EQ(c.decisions.at(1).wasted_gate_evals, 6u);
  EXPECT_EQ(c.decisions.at(2).wasted_gate_evals, 0u);
}

TEST(Cli, WaterfallSumsAStageThatRunsTwiceInOneCheck) {
  const std::string path = "explain_test_restart.trace.jsonl";
  {
    std::ofstream os(path);
    os << kRestartTrace;
  }
  std::ostringstream out, err;
  EXPECT_EQ(explain_cli_main({path}, out, err), 0) << err.str();
  std::remove(path.c_str());
  // One per-check sample of 5 us + 4 us, not two samples.
  std::istringstream report(out.str());
  std::string line;
  bool found = false;
  while (std::getline(report, line)) {
    std::istringstream words(line);
    std::string stage, total, count;
    words >> stage >> total >> count;
    if (stage != "case_analysis") continue;
    found = true;
    EXPECT_EQ(total, "0.000009s") << line;
    EXPECT_EQ(count, "1") << line;
  }
  EXPECT_TRUE(found) << out.str();
}

TEST(Analyzer, FlagsOrphansAndUnclosedSpans) {
  // Event for a check that never began; decision_close for an unknown
  // decision; an unclosed check at EOF.
  std::istringstream in(
      R"({"ev":"propagate","seq":1,"t":0,"w":0,"chk":9,"applications":1,"revisions":0}
{"ev":"check_begin","seq":2,"t":1,"w":0,"chk":1,"output":"y","delta":5}
{"ev":"decision_close","seq":3,"t":2,"w":0,"chk":1,"dec":42,"outcome":"witness"}
)");
  const TraceAnalysis a = analyze_trace(in);
  EXPECT_FALSE(a.well_formed());
  EXPECT_EQ(a.n_warnings, 3u);  // orphan chk, unknown dec, unclosed check
  ASSERT_EQ(a.checks.size(), 1u);
  EXPECT_FALSE(a.checks.front().closed);
}

TEST(Analyzer, DoubleFlipAndDuplicateDecisionAreWarnings) {
  std::istringstream in(
      R"({"ev":"check_begin","seq":1,"t":0,"w":0,"chk":1,"output":"y","delta":5}
{"ev":"decision","seq":2,"t":1,"w":0,"chk":1,"dec":1,"parent":-1,"net":"a","cls":true,"depth":1}
{"ev":"decision","seq":3,"t":2,"w":0,"chk":1,"dec":1,"parent":-1,"net":"a","cls":true,"depth":1}
{"ev":"backtrack","seq":4,"t":3,"w":0,"chk":1,"dec":1,"net":"a","cls":true,"depth":1}
{"ev":"backtrack","seq":5,"t":4,"w":0,"chk":1,"dec":1,"net":"a","cls":true,"depth":1}
{"ev":"decision_close","seq":6,"t":5,"w":0,"chk":1,"dec":1,"outcome":"exhausted"}
{"ev":"check_end","seq":7,"t":6,"w":0,"chk":1,"output":"y","conclusion":"N","seconds":0.0}
)");
  const TraceAnalysis a = analyze_trace(in);
  EXPECT_EQ(a.n_warnings, 2u);  // duplicate decision id + double flip
  EXPECT_EQ(a.checks.front().n_backtracks, 2u);
}

// ---------------------------------------------------------------------------
// Real traces: a verified circuit round-trips through the analyzer
// ---------------------------------------------------------------------------

/// Traces one check per output of `v`'s circuit at `delta`; the analyzer's
/// trees must match the reports tally for tally. Returns how many checks
/// searched twice (case_analysis, stem, case_analysis).
std::size_t expect_trace_matches_reports(Verifier& v, Time delta) {
  const Circuit& c = v.circuit();
  std::ostringstream trace;
  telemetry::JsonlTraceSink sink(trace);
  telemetry::set_trace_sink(&sink);
  std::vector<CheckReport> reports;
  for (const NetId o : c.outputs()) {
    reports.push_back(v.check_output(o, delta));
  }
  telemetry::set_trace_sink(nullptr);

  std::istringstream in(trace.str());
  const TraceAnalysis a = analyze_trace(in);
  EXPECT_TRUE(a.well_formed())
      << (a.warnings.empty() ? "" : a.warnings.front());
  EXPECT_EQ(a.checks.size(), reports.size());
  std::size_t restarted = 0;
  for (std::size_t i = 0; i < std::min(reports.size(), a.checks.size());
       ++i) {
    const CheckTree& ct = a.checks[i];
    const CheckReport& r = reports[i];
    EXPECT_EQ(ct.output, c.net(r.check.output).name);
    EXPECT_TRUE(ct.closed);
    EXPECT_EQ(ct.conclusion, to_string(r.conclusion));
    EXPECT_EQ(ct.n_decisions, r.decisions);
    EXPECT_EQ(ct.n_backtracks, r.backtracks);
    EXPECT_EQ(ct.n_gitd_rounds, r.gitd_rounds);
    EXPECT_EQ(ct.n_stems, r.stems_processed);
    // Decision spans nest: every non-root parent must exist in the tree.
    for (const auto& [id, d] : ct.decisions) {
      if (d.parent >= 0) EXPECT_TRUE(ct.decisions.contains(d.parent));
      EXPECT_FALSE(d.close.empty());
    }
    std::vector<std::string> order;
    for (const StageSpan& s : ct.stages) {
      if (s.stage == "case_analysis" || s.stage == "stem") {
        order.push_back(s.stage);
      }
    }
    if (order.size() == 3) {
      ++restarted;
      EXPECT_EQ(order, (std::vector<std::string>{"case_analysis", "stem",
                                                 "case_analysis"}));
    } else if (r.conclusion == CheckConclusion::kViolation) {
      // A witness without a conflict: one pass, no stems.
      EXPECT_EQ(order, std::vector<std::string>{"case_analysis"});
      EXPECT_EQ(r.stems_processed, 0u);
      EXPECT_EQ(r.after_stem, StageStatus::kPossible);
    }
  }
  return restarted;
}

TEST(Analyzer, RealTraceMatchesCheckReports) {
  Circuit c = gen::carry_skip_adder(8, 4);
  c.set_uniform_delay(DelaySpec::fixed(10));
  Verifier v(c);
  (void)expect_trace_matches_reports(v, v.exact_floating_delay().delay);

  // c499 at its exact delay: some output's first search pass conflicts.
  const Circuit ecc = gen::prepare_for_experiment(gen::build_raw("c499"));
  Verifier w(ecc);
  EXPECT_GT(expect_trace_matches_reports(w, w.exact_floating_delay().delay),
            0u);
}

TEST(Cli, TextReportCarriesStageQuantiles) {
  // The stage waterfall now reports exact p50/p90/p99 over per-check stage
  // durations (order statistics over the real samples, not histogram
  // buckets).
  Circuit c = gen::carry_skip_adder(8, 4);
  c.set_uniform_delay(DelaySpec::fixed(10));
  Verifier v(c);
  const auto exact = v.exact_floating_delay();

  const std::string path = "explain_test_quantiles.trace.jsonl";
  {
    std::ofstream os(path);
    telemetry::JsonlTraceSink sink(os);
    telemetry::set_trace_sink(&sink);
    for (const NetId o : c.outputs()) (void)v.check_output(o, exact.delay);
    telemetry::set_trace_sink(nullptr);
  }

  std::ostringstream out, err;
  const int rc = explain_cli_main({path}, out, err);
  EXPECT_EQ(rc, 0) << err.str();
  const std::string report = out.str();
  EXPECT_NE(report.find("stage waterfall"), std::string::npos);
  EXPECT_NE(report.find("P50"), std::string::npos);
  EXPECT_NE(report.find("P90"), std::string::npos);
  EXPECT_NE(report.find("P99"), std::string::npos);
  EXPECT_NE(report.find("narrowing"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FuzzIntegration, TraceWellFormedPropertyPasses) {
  Circuit c = gen::carry_skip_adder(8, 4);
  c.set_uniform_delay(DelaySpec::fixed(10));
  const auto res =
      fuzz::check_property(c, fuzz::Property::kTraceWellFormed, {});
  EXPECT_TRUE(res.ok) << res.details;
  EXPECT_FALSE(res.skipped);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(ChromeExport, BalancedDurationsAndWorkerTracks) {
  std::istringstream in(kSyntheticTrace);
  std::ostringstream out;
  const ChromeExportStats stats = write_chrome_trace(in, out);
  EXPECT_EQ(stats.events_in, 15u);
  EXPECT_EQ(stats.workers, 1u);
  const std::string json = out.str();
  // B/E balance: check + stage + 2 decisions open and close.
  const auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t p = json.find(needle); p != std::string::npos;
         p = json.find(needle, p + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"ph\":\"B\""), 4u);
  EXPECT_EQ(count("\"ph\":\"E\""), 4u);
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("decide a=1"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // counters
  // ns -> us conversion: t=4 becomes ts 0.004.
  EXPECT_NE(json.find("\"ts\":0.004"), std::string::npos);
}

TEST(ChromeExport, PredeclaresTracksFromBatchBegin) {
  std::istringstream in(
      R"({"ev":"batch_begin","seq":1,"t":0,"w":0,"delta":5,"jobs":2,"checks":3}
{"ev":"batch_end","seq":2,"t":9,"w":0,"delta":5,"checks_skipped":0}
)");
  std::ostringstream out;
  const ChromeExportStats stats = write_chrome_trace(in, out);
  const std::string json = out.str();
  // Tracks 0 (emitter), 1 and 2 (from jobs) all get thread names.
  EXPECT_EQ(stats.workers, 1u);  // only w=0 actually emitted
  EXPECT_NE(json.find("\"name\":\"main\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker 1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker 2\""), std::string::npos);
}

TEST(DotExport, CarrierGraphHighlightsDominatorsAndWitness) {
  Circuit c = gen::carry_skip_adder(8, 4);
  c.set_uniform_delay(DelaySpec::fixed(10));
  Verifier v(c);
  const auto exact = v.exact_floating_delay();
  ASSERT_TRUE(exact.witness.has_value());

  DotOptions opt;
  opt.witness = *exact.witness;
  const std::string out_name = c.net(*exact.witness_output).name;
  const DotResult res = carrier_dot(c, out_name, exact.delay, opt);
  EXPECT_GT(res.carrier_nets, 0u);
  EXPECT_GE(res.dominators, 1u);  // the output itself always dominates
  EXPECT_GT(res.path_nets, 1u);
  EXPECT_NE(res.dot.find("digraph carriers"), std::string::npos);
  EXPECT_NE(res.dot.find("doublecircle"), std::string::npos);
  EXPECT_NE(res.dot.find("color=red"), std::string::npos);
  EXPECT_NE(res.dot.find("fillcolor"), std::string::npos);
}

TEST(DotExport, UnknownNetThrowsAndVectorParses) {
  const Circuit c = gen::hrapcenko();
  EXPECT_THROW((void)carrier_dot(c, "no_such_net", Time{1}, {}),
               std::runtime_error);
  EXPECT_EQ(parse_vector("0110"),
            (std::vector<bool>{false, true, true, false}));
  EXPECT_FALSE(parse_vector("01x1").has_value());
}

// ---------------------------------------------------------------------------
// CLI driver
// ---------------------------------------------------------------------------

class CliFile : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "explain_cli_trace.jsonl";
    std::ofstream os(path_);
    os << kSyntheticTrace;
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(CliFile, TextReportExitsCleanOnWellFormedTrace) {
  std::ostringstream out, err;
  EXPECT_EQ(explain_cli_main({path_}, out, err), 0);
  EXPECT_NE(out.str().find("1 check(s)"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("wasted"), std::string::npos);
  EXPECT_TRUE(err.str().empty()) << err.str();
}

TEST_F(CliFile, JsonReportIsParseableShape) {
  std::ostringstream out, err;
  EXPECT_EQ(explain_cli_main({path_, "--json"}, out, err), 0);
  const std::string s = out.str();
  EXPECT_EQ(s.front(), '{');
  EXPECT_NE(s.find("\"checks\":[{\"chk\":1"), std::string::npos) << s;
  EXPECT_NE(s.find("\"n_warnings\":0"), std::string::npos);
  EXPECT_NE(s.find("\"witness\":\"101\""), std::string::npos);
}

TEST_F(CliFile, CanonStripsTimestampAndSeq) {
  std::ostringstream out, err;
  EXPECT_EQ(explain_cli_main({path_, "--canon"}, out, err), 0);
  const std::string s = out.str();
  EXPECT_EQ(s.find("\"seq\""), std::string::npos);
  EXPECT_EQ(s.find("\"t\""), std::string::npos);
  EXPECT_NE(s.find("{\"ev\":\"check_begin\",\"w\":0,\"chk\":1"),
            std::string::npos)
      << s;
  // Canon is idempotent byte-for-byte: strip of a stripped stream.
  const std::string canon2_path = ::testing::TempDir() + "canon2.jsonl";
  {
    std::ofstream os(canon2_path);
    os << s;
  }
  std::ostringstream out2, err2;
  EXPECT_EQ(explain_cli_main({canon2_path, "--canon"}, out2, err2), 0);
  EXPECT_EQ(out2.str(), s);
  std::remove(canon2_path.c_str());
}

TEST_F(CliFile, DamagedTraceExitsOneMissingFileExitsTwo) {
  {
    std::ofstream os(path_, std::ios::app);  // orphan event for chk 99
    os << R"({"ev":"conflict","seq":99,"t":99,"w":0,"chk":99,"depth":1})"
       << "\n";
  }
  std::ostringstream out, err;
  EXPECT_EQ(explain_cli_main({path_}, out, err), 1);
  EXPECT_NE(err.str().find("orphan"), std::string::npos) << err.str();

  std::ostringstream out2, err2;
  EXPECT_EQ(explain_cli_main({"/nonexistent/trace.jsonl"}, out2, err2), 2);
  EXPECT_EQ(explain_cli_main({}, out2, err2), 2);           // no trace arg
  EXPECT_EQ(explain_cli_main({path_, "--bogus"}, out2, err2), 2);
  EXPECT_EQ(explain_cli_main({path_, "--dot", "/tmp"}, out2, err2), 2);
}

}  // namespace
}  // namespace waveck::explain
