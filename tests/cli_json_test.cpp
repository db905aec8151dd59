// End-to-end stdout hygiene for the CLI's machine-readable modes: with
// --json (and the observability flags on) stdout must be exactly one JSON
// document -- every diagnostic, warning, heartbeat line, and profiler
// summary goes to stderr. Guards the pipe contract `waveck check --json |
// jq`, which a missing comma or a stray stderr-on-stdout line silently
// breaks (the Json writer's object-close bug shipped precisely because
// nothing parsed the output).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "json_checker.hpp"

namespace waveck {
namespace {

using testjson::valid_json;

/// Runs `WAVECK_CLI_PATH <args>` with stderr dropped (or merged into
/// stdout); returns stdout.
std::string run_cli(const std::string& args, int* exit_code = nullptr,
                    bool merge_stderr = false) {
  const std::string cmd = std::string(WAVECK_CLI_PATH) + " " + args +
                          (merge_stderr ? " 2>&1" : " 2>/dev/null");
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "";
  std::string out;
  std::array<char, 4096> buf;
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    out.append(buf.data(), n);
  }
  const int rc = pclose(pipe);
  if (exit_code != nullptr) *exit_code = rc;
  return out;
}

/// The c17 fixture, generated by the CLI itself into the test's cwd.
/// ctest runs each test in its own process, in parallel and in the same
/// cwd, so the file is written under a per-process name and renamed into
/// place: a CLI run in another process never reads it half written.
std::string c17_path() {
  static const std::string path = [] {
    const std::string p = "cli_json_test_c17.bench";
    const std::string tmp = p + "." + std::to_string(getpid());
    {
      std::ofstream os(tmp);
      os << run_cli("gen c17");
    }
    std::rename(tmp.c_str(), p.c_str());
    return p;
  }();
  return path;
}

/// A .bench whose one gate is one input wider than kMaxGateFanin; the gate
/// sits on line 35.
const std::string& wide_gate_bench() {
  static const std::string text = [] {
    std::string t, args;
    for (int i = 0; i < 33; ++i) {
      const std::string a = "a" + std::to_string(i);
      t += "INPUT(" + a + ")\n";
      args += (i ? ", " : "") + a;
    }
    return t + "OUTPUT(z)\nz = AND(" + args + ")\n";
  }();
  return text;
}

TEST(CliJson, MalformedNetlistsFailWithUsageCode) {
  // Rejected netlists answer rc 2 and a file:line diagnostic, never a
  // vacuous verdict.
  const struct {
    const char* file;
    const char* text;
    const char* diagnostic;
  } cases[] = {
      {"cli_json_test_empty.bench", "", "cli_json_test_empty.bench:0: no "
                                        "OUTPUT declared"},
      {"cli_json_test_dup.bench", "INPUT(a)\nINPUT(a)\nOUTPUT(z)\nz = NOT(a)\n",
       "cli_json_test_dup.bench:2: duplicate INPUT(a)"},
      {"cli_json_test_drivers.bench",
       "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\nz = BUF(a)\n",
       "cli_json_test_drivers.bench:4: net z has multiple drivers"},
      {"cli_json_test_dup_in.v",
       "module m (a, z);\ninput a;\ninput a;\noutput z;\nnot (z, a);\n"
       "endmodule\n",
       "cli_json_test_dup_in.v:3: duplicate INPUT(a)"},
      {"cli_json_test_dup_out.v",
       "module m (a, z);\ninput a;\noutput z;\noutput z;\nnot (z, a);\n"
       "endmodule\n",
       "cli_json_test_dup_out.v:4: duplicate OUTPUT(z)"},
      {"cli_json_test_wide.bench", wide_gate_bench().c_str(),
       "cli_json_test_wide.bench:35: gate driving z has 33 inputs (at most "
       "32)"},
      {"cli_json_test_no_out.v",
       "module m (a, z);\ninput a;\nwire z;\nnot (z, a);\nendmodule\n",
       "cli_json_test_no_out.v:5: no output declared"},
  };
  for (const auto& tc : cases) {
    std::ofstream(tc.file) << tc.text;
    int rc = -1;
    const std::string out =
        run_cli(std::string("check ") + tc.file + " 5", &rc, true);
    EXPECT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) == 2) << tc.file << " " << rc;
    EXPECT_NE(out.find(tc.diagnostic), std::string::npos) << out;
  }
}

TEST(CliJson, CheckJsonIsOneParseableDocument) {
  const std::string out =
      run_cli("check " + c17_path() + " 1 --json --counters");
  ASSERT_FALSE(out.empty());
  // Exactly one line: the document plus its trailing newline.
  EXPECT_EQ(out.find('\n'), out.size() - 1) << out.substr(0, 200);
  EXPECT_EQ(out.front(), '{');
  std::string err;
  EXPECT_TRUE(valid_json(out, &err)) << err << "\n" << out.substr(0, 400);
  EXPECT_NE(out.find("\"perf\":"), std::string::npos);
  EXPECT_NE(out.find("\"counters\":"), std::string::npos);
  EXPECT_NE(out.find("\"outputs\":"), std::string::npos);
}

TEST(CliJson, ProgressAndWarningsStayOffStdout) {
  // Heartbeats every 0.05s plus the counter-fallback warning: all stderr.
  const std::string out = run_cli("--progress 0.05 --counters check " +
                                  c17_path() + " 1 --json");
  ASSERT_FALSE(out.empty());
  std::string err;
  EXPECT_TRUE(valid_json(out, &err)) << err << "\n" << out.substr(0, 400);
  EXPECT_EQ(out.find("waveck hb#"), std::string::npos);
  EXPECT_EQ(out.find("hardware counters unavailable"), std::string::npos);
}

TEST(CliJson, SingleOutputCheckJson) {
  // Find an output name from the full-suite document, then re-check it.
  const std::string suite = run_cli("check " + c17_path() + " 1 --json");
  const std::string key = "\"violating_output\":\"";
  std::string out_name;
  if (const auto pos = suite.find(key); pos != std::string::npos) {
    const auto end = suite.find('"', pos + key.size());
    out_name = suite.substr(pos + key.size(), end - pos - key.size());
  }
  if (out_name.empty()) GTEST_SKIP() << "no violating output at delta 1";
  const std::string out = run_cli("check " + c17_path() + " 1 " + out_name +
                                  " --json --counters");
  std::string err;
  EXPECT_TRUE(valid_json(out, &err)) << err << "\n" << out.substr(0, 400);
  EXPECT_NE(out.find("\"output\":\"" + out_name + "\""), std::string::npos);
}

TEST(CliJson, DelayJsonStillParses) {
  const std::string out = run_cli("json " + c17_path());
  std::string err;
  EXPECT_TRUE(valid_json(out, &err)) << err << "\n" << out.substr(0, 400);
  EXPECT_NE(out.find("\"floating_delay\":"), std::string::npos);
}

TEST(CliJson, MetricsSnapshotParsesAndCarriesQuantiles) {
  const std::string metrics = "cli_json_test_metrics.json";
  (void)run_cli("--metrics " + metrics + " check " + c17_path() + " 1");
  std::ifstream is(metrics);
  ASSERT_TRUE(is.good());
  std::string js((std::istreambuf_iterator<char>(is)),
                 std::istreambuf_iterator<char>());
  std::string err;
  EXPECT_TRUE(valid_json(js, &err)) << err;
  // Histogram snapshots now carry interpolated quantiles.
  EXPECT_NE(js.find("\"p50\":"), std::string::npos);
  EXPECT_NE(js.find("\"p99\":"), std::string::npos);
}

}  // namespace
}  // namespace waveck
