// In-process protocol tests for the serve daemon (doc/SERVE.md): a real
// Server on a temp Unix socket, driven by the blocking serve::Client. The
// contract under test is the wire behaviour — error codes for malformed
// and unknown requests, load/hash namespace rules, admission control
// (`overloaded`), queue deadlines (`deadline_expired`), watchdog output on
// a wedged worker, resident-state reuse, and byte-identity of a served
// report with the offline canonical JSON.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "common/flight_recorder.hpp"
#include "explain/trace_reader.hpp"
#include "gen/generators.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/circuit.hpp"
#include "netlist/content_hash.hpp"
#include "netlist/transforms.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "verify/report_io.hpp"
#include "verify/verifier.hpp"

namespace waveck {
namespace {

std::string unique_path(const std::string& tag, const std::string& ext) {
  static std::atomic<int> n{0};
  return "/tmp/waveck_serve_test_" + std::to_string(::getpid()) + "_" + tag +
         "_" + std::to_string(n.fetch_add(1)) + ext;
}

/// Writes `c` as a .bench file the daemon's `load` op can read back.
std::string write_temp_bench(const Circuit& c, const std::string& tag) {
  const std::string path = unique_path(tag, ".bench");
  std::ofstream out(path);
  write_bench(out, c);
  return path;
}

/// Mirrors the daemon's (and offline CLI's) load path: bench reader,
/// uniform delay 10, solver decomposition.
Circuit offline_load(const std::string& path) {
  Circuit c = read_bench_file(path);
  c.set_uniform_delay(DelaySpec::fixed(10));
  return decompose_for_solver(c);
}

/// For responses that embed nested JSON (check reports, list arrays) the
/// flat parser is the wrong tool; successful-response detection falls back
/// to the same substring probe the CLI client uses.
bool line_ok(const std::string& line) {
  return line.find("\"ok\":true") != std::string::npos;
}

/// Parses one flat JSONL response line; fails the test on malformed output.
explain::TraceEvent parse(const std::string& line) {
  explain::TraceEvent ev;
  std::string err;
  EXPECT_TRUE(explain::parse_flat_object(line, ev, err))
      << err << " in: " << line;
  return ev;
}

bool ok_of(const explain::TraceEvent& ev) {
  const explain::TraceValue* v = ev.find("ok");
  return v != nullptr && v->kind == explain::TraceValue::Kind::kBool && v->b;
}

/// Slices the raw "report" object out of a check response: it is the last
/// key by protocol design, so its bytes run to the final closing brace.
std::string report_of(const std::string& line) {
  const std::size_t pos = line.rfind(",\"report\":");
  if (pos == std::string::npos) return "";
  const std::size_t start = pos + 10;
  return line.substr(start, line.size() - 1 - start);
}

/// A live Server on a fresh temp socket plus the IO thread running it.
class TestServer {
 public:
  explicit TestServer(serve::ServeOptions opt) : opt_(std::move(opt)) {
    if (opt_.socket_path.empty()) {
      opt_.socket_path = unique_path("srv", ".sock");
    }
    server_ = std::make_unique<serve::Server>(opt_);
    std::string err;
    started_ = server_->start(&err);
    EXPECT_TRUE(started_) << err;
    if (started_) io_ = std::thread([this] { server_->run(); });
  }

  ~TestServer() { stop(); }

  void stop() {
    if (io_.joinable()) {
      server_->request_shutdown();
      io_.join();
    }
  }

  [[nodiscard]] serve::Client client() {
    serve::Client c;
    std::string err;
    EXPECT_TRUE(c.connect_unix(opt_.socket_path, &err)) << err;
    return c;
  }

  [[nodiscard]] serve::Server& server() { return *server_; }

 private:
  serve::ServeOptions opt_;
  std::unique_ptr<serve::Server> server_;
  std::thread io_;
  bool started_ = false;
};

TEST(ServeProtocol, MalformedAndUnknownRequests) {
  TestServer ts({});
  serve::Client c = ts.client();

  auto r = c.round_trip(R"(not json)");
  ASSERT_TRUE(r.has_value());
  explain::TraceEvent ev = parse(*r);
  EXPECT_FALSE(ok_of(ev));
  EXPECT_EQ(ev.str("error"), "parse_error");
  EXPECT_EQ(ev.str("op"), "error");

  r = c.round_trip(R"({"op":7})");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(parse(*r).str("error"), "missing_field");

  r = c.round_trip(R"({"id":"q1","op":"frobnicate"})");
  ASSERT_TRUE(r.has_value());
  ev = parse(*r);
  EXPECT_EQ(ev.str("error"), "unknown_op");
  EXPECT_EQ(ev.str("id"), "q1");  // the id echoes even on errors

  // debug_stall is a debug op: without --enable-debug-ops the daemon does
  // not even admit it exists.
  r = c.round_trip(R"({"op":"debug_stall","ms":1})");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(parse(*r).str("error"), "unknown_op");

  r = c.round_trip(R"({"op":"check","circuit":"x"})");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(parse(*r).str("error"), "missing_field");

  // Unknown circuits are resolved by the worker, after admission.
  r = c.round_trip(R"({"op":"check","circuit":"nope","delta":100})");
  ASSERT_TRUE(r.has_value());
  ev = parse(*r);
  EXPECT_FALSE(ok_of(ev));
  EXPECT_EQ(ev.str("error"), "unknown_circuit");

  r = c.round_trip(R"({"op":"unload","name":"nope"})");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(parse(*r).str("error"), "unknown_circuit");

  r = c.round_trip(R"({"op":"load","name":"x","file":"/nonexistent.bench"})");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(parse(*r).str("error"), "load_failed");

  r = c.round_trip(R"({"op":"ping"})");
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(ok_of(parse(*r)));
}

TEST(ServeProtocol, LoadNamespacesAndContentHash) {
  Circuit csa = gen::carry_skip_adder(8, 2);
  Circuit c17 = gen::c17();
  const std::string csa_path = write_temp_bench(csa, "csa8");
  const std::string c17_path = write_temp_bench(c17, "c17");
  // The hash the daemon must report: computed offline over the decomposed,
  // delay-annotated circuit — the structure checks actually run on.
  const std::string csa_hash = content_hash_hex(offline_load(csa_path));

  TestServer ts({});
  serve::Client c = ts.client();

  auto r = c.round_trip(R"({"op":"load","name":"a","file":")" + csa_path +
                        R"("})");
  ASSERT_TRUE(r.has_value());
  explain::TraceEvent ev = parse(*r);
  ASSERT_TRUE(ok_of(ev)) << *r;
  EXPECT_EQ(ev.str("hash"), csa_hash);
  ASSERT_NE(ev.find("already_loaded"), nullptr);
  EXPECT_FALSE(ev.find("already_loaded")->b);

  // Same name + same structure: idempotent no-op.
  r = c.round_trip(R"({"op":"load","name":"a","file":")" + csa_path +
                   R"("})");
  ASSERT_TRUE(r.has_value());
  ev = parse(*r);
  ASSERT_TRUE(ok_of(ev));
  ASSERT_NE(ev.find("already_loaded"), nullptr);
  EXPECT_TRUE(ev.find("already_loaded")->b);

  // Same name, different structure: refused, never a silent swap.
  r = c.round_trip(R"({"op":"load","name":"a","file":")" + c17_path +
                   R"("})");
  ASSERT_TRUE(r.has_value());
  ev = parse(*r);
  EXPECT_FALSE(ok_of(ev));
  EXPECT_EQ(ev.str("error"), "hash_mismatch");

  // Client-side pin: a stated hash that disagrees with the file is refused
  // before the registry is touched.
  r = c.round_trip(R"({"op":"load","name":"b","file":")" + csa_path +
                   R"(","hash":"deadbeefdeadbeef"})");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(parse(*r).str("error"), "hash_mismatch");

  // A correct pin loads fine; the two namespaces are independent tenants.
  r = c.round_trip(R"({"op":"load","name":"b","file":")" + csa_path +
                   R"(","hash":")" + csa_hash + R"("})");
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(ok_of(parse(*r)));

  // The list payload nests an array, so it is probed as raw bytes.
  r = c.round_trip(R"({"op":"list"})");
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(line_ok(*r)) << *r;
  EXPECT_NE(r->find("\"resident\":2"), std::string::npos) << *r;
  EXPECT_NE(r->find("\"name\":\"a\""), std::string::npos) << *r;
  EXPECT_NE(r->find("\"name\":\"b\""), std::string::npos) << *r;

  r = c.round_trip(R"({"op":"unload","name":"b"})");
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(ok_of(parse(*r)));
  r = c.round_trip(R"({"op":"ping"})");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(parse(*r).num("resident"), 1);
}

TEST(ServeProtocol, ServedReportIsByteIdenticalToOfflineCanonical) {
  Circuit csa = gen::carry_skip_adder(8, 2);
  const std::string path = write_temp_bench(csa, "ident");
  Circuit c = offline_load(path);

  Verifier probe(c);
  const auto exact = probe.exact_floating_delay();
  ASSERT_TRUE(exact.exact);
  const std::int64_t delta = exact.delay.value();

  TestServer ts({});
  serve::Client cl = ts.client();
  auto r = cl.round_trip(R"({"op":"load","name":"csa8","file":")" + path +
                         R"("})");
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(ok_of(parse(*r))) << *r;

  // Single-output row first: fresh resident verifier, like the offline one.
  const std::string out_name = c.net(c.outputs().front()).name;
  Verifier vout(c);
  const std::string want_out =
      canonical_json(c, vout.check_output(c.outputs().front(), Time(delta)));
  r = cl.round_trip(R"({"op":"check","circuit":"csa8","delta":)" +
                    std::to_string(delta) + R"(,"output":")" + out_name +
                    R"("})");
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(line_ok(*r)) << *r;
  EXPECT_EQ(report_of(*r), want_out);

  // Whole-circuit suite: serial offline check vs the daemon's resident
  // scheduler — byte-identical canonical JSON (the determinism contract
  // doubling as the wire format).
  Verifier vsuite(c);
  const std::string want_suite =
      canonical_json(c, vsuite.check_circuit(Time(delta)));
  const std::string check_line =
      R"({"op":"check","circuit":"csa8","delta":)" + std::to_string(delta) +
      "}";
  r = cl.round_trip(check_line);
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(line_ok(*r)) << *r;
  EXPECT_NE(r->find("\"deadline_expired\":false"), std::string::npos);
  EXPECT_EQ(report_of(*r), want_suite);

  // Repeat: the answer must not drift as resident state warms up, and the
  // shared precompute must not rerun (that is the point of residency).
  r = cl.round_trip(check_line);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(report_of(*r), want_suite);

  // Unknown output on a loaded circuit is its own error, not a crash.
  r = cl.round_trip(
      R"({"op":"check","circuit":"csa8","delta":10,"output":"no_such_net"})");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(parse(*r).str("error"), "unknown_output");

  const serve::ResidentPtr res = ts.server().registry().get("csa8");
  ASSERT_NE(res, nullptr);
  EXPECT_EQ(res->stats().prepare_runs.load(), 1u);
  EXPECT_EQ(res->stats().checks.load(), 3u);
}

TEST(ServeProtocol, DeltaOutsideTheFiniteRangeIsOutOfRange) {
  // A check delta whose magnitude plus the longest delay path reaches
  // Time::kMaxFinite answers out_of_range, as `waveck check` refuses it,
  // instead of a verdict the engine's saturated arithmetic got wrong.
  Circuit csa = gen::carry_skip_adder(8, 2);
  const std::string path = write_temp_bench(csa, "range");
  const Circuit c = offline_load(path);
  const std::int64_t longest = c.longest_path();
  ASSERT_GT(longest, 0);
  const std::string out_name = c.net(c.outputs().front()).name;

  TestServer ts({});
  serve::Client cl = ts.client();
  auto r = cl.round_trip(R"({"op":"load","name":"r","file":")" + path +
                         R"("})");
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(ok_of(parse(*r))) << *r;

  const std::int64_t edge = Time::kMaxFinite - longest;
  for (const std::int64_t delta :
       {std::int64_t{3'000'000'000'000'000'000},
        std::int64_t{-3'000'000'000'000'000'000}, edge, -edge}) {
    for (const std::string& output : {std::string(), out_name}) {
      r = cl.round_trip(
          R"({"id":"x","op":"check","circuit":"r","delta":)" +
          std::to_string(delta) +
          (output.empty() ? "" : R"(,"output":")" + output + "\"") + "}");
      ASSERT_TRUE(r.has_value());
      const explain::TraceEvent ev = parse(*r);
      EXPECT_FALSE(ok_of(ev)) << *r;
      EXPECT_EQ(ev.str("error"), "out_of_range") << *r;
      EXPECT_EQ(ev.str("id"), "x");
    }
  }
  // One step inside the range the check runs: N above every path, V below.
  r = cl.round_trip(R"({"op":"check","circuit":"r","delta":)" +
                    std::to_string(edge - 1) + "}");
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(line_ok(*r)) << *r;
  EXPECT_NE(r->find(R"("conclusion":"N")"), std::string::npos) << *r;
  r = cl.round_trip(R"({"op":"check","circuit":"r","delta":)" +
                    std::to_string(1 - edge) + "}");
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(line_ok(*r)) << *r;
  EXPECT_NE(r->find(R"("conclusion":"V")"), std::string::npos) << *r;
}

TEST(ServeProtocol, QueueExpiredDeadlineIsRejectedWithoutRunning) {
  Circuit csa = gen::carry_skip_adder(8, 2);
  const std::string path = write_temp_bench(csa, "ddl");

  serve::ServeOptions opt;
  opt.enable_debug_ops = true;
  TestServer ts(std::move(opt));
  serve::Client c = ts.client();

  auto r = c.round_trip(R"({"op":"load","name":"q","file":")" + path +
                        R"("})");
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(ok_of(parse(*r))) << *r;

  // Wedge the worker for 250ms, then queue a check that only has 50ms to
  // live: by the time the worker reaches it the deadline has passed, so it
  // is answered deadline_expired without touching the engine.
  ASSERT_TRUE(c.send_line(R"({"id":"s","op":"debug_stall","ms":250})"));
  ASSERT_TRUE(c.send_line(
      R"({"id":"late","op":"check","circuit":"q","delta":100,"timeout_ms":50})"));

  std::string line;
  ASSERT_TRUE(c.recv_line(&line));
  explain::TraceEvent ev = parse(line);
  EXPECT_EQ(ev.str("id"), "s");
  EXPECT_TRUE(ok_of(ev));

  ASSERT_TRUE(c.recv_line(&line));
  ev = parse(line);
  EXPECT_EQ(ev.str("id"), "late");
  EXPECT_FALSE(ok_of(ev));
  EXPECT_EQ(ev.str("error"), "deadline_expired");

  // The worker survives its expired request: the next check runs normally.
  r = c.round_trip(R"({"op":"check","circuit":"q","delta":100})");
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(line_ok(*r)) << *r;
}

TEST(ServeProtocol, QueueCapRejectsWithOverloaded) {
  serve::ServeOptions opt;
  opt.queue_cap = 1;
  opt.enable_debug_ops = true;
  TestServer ts(std::move(opt));

  // Occupy the worker on one connection, then give it time to pop the
  // stall so the queue itself is empty again.
  serve::Client staller = ts.client();
  ASSERT_TRUE(staller.send_line(R"({"id":"s","op":"debug_stall","ms":400})"));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  serve::Client c = ts.client();
  ASSERT_TRUE(
      c.send_line(R"({"id":"c1","op":"check","circuit":"x","delta":1})"));
  ASSERT_TRUE(
      c.send_line(R"({"id":"c2","op":"check","circuit":"x","delta":2})"));

  // c1 fills the queue (cap 1); c2 is rejected immediately by the IO
  // thread, so its error overtakes c1's answer on the wire.
  std::string line;
  ASSERT_TRUE(c.recv_line(&line));
  explain::TraceEvent ev = parse(line);
  EXPECT_EQ(ev.str("id"), "c2");
  EXPECT_FALSE(ok_of(ev));
  EXPECT_EQ(ev.str("error"), "overloaded");

  ASSERT_TRUE(c.recv_line(&line));
  ev = parse(line);
  EXPECT_EQ(ev.str("id"), "c1");
  EXPECT_EQ(ev.str("error"), "unknown_circuit");  // admitted, ran, resolved

  ASSERT_TRUE(staller.recv_line(&line));
  EXPECT_TRUE(ok_of(parse(line)));
}

TEST(ServeProtocol, WatchdogReportsStalledWorker) {
  serve::ServeOptions opt;
  opt.enable_debug_ops = true;
  opt.heartbeat_s = 0.02;
  opt.stall_s = 0.06;

  ::testing::internal::CaptureStderr();
  {
    TestServer ts(std::move(opt));
    serve::Client c = ts.client();
    // 400ms with no progress ticks: several heartbeat intervals and at
    // least one full stall window pass while the worker is wedged.
    auto r = c.round_trip(R"({"id":"w","op":"debug_stall","ms":400})");
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(ok_of(parse(*r)));
    // The daemon is healthy again after the stall.
    r = c.round_trip(R"({"op":"ping"})");
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(ok_of(parse(*r)));
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("[waveck hb#"), std::string::npos) << err;
  EXPECT_NE(err.find("[waveck watchdog]"), std::string::npos) << err;
  EXPECT_NE(err.find("debug_stall"), std::string::npos) << err;
  // The stall line and the exit line both carry the structured stats JSON.
  EXPECT_NE(err.find("waveck-serve: stalled {\"requests\":"), std::string::npos)
      << err;
  EXPECT_NE(err.find("waveck-serve: exiting {\"requests\":"), std::string::npos)
      << err;
}

TEST(ServeProtocol, RecorderOutlivesManyResidentPools) {
  // Every resident brings its own pool threads (jobs = 2), and unloading it
  // ends them. Past 32 load/check/unload cycles more threads have come and
  // gone than the recorder's 64-slot table holds; the last cycle's checks
  // must still be in the rings.
  const std::string path = write_temp_bench(gen::c17(), "cycles");
  serve::ServeOptions opt;
  opt.jobs = 2;
  TestServer ts(std::move(opt));
  serve::Client c = ts.client();
  constexpr int kCycles = 40;
  for (int i = 0; i < kCycles; ++i) {
    const std::string name = "s" + std::to_string(i);
    if (i == kCycles - 1) flight::record(flight::Kind::kMark, "last_cycle");
    auto r = c.round_trip(R"({"op":"load","name":")" + name +
                          R"(","file":")" + path + R"("})");
    ASSERT_TRUE(r.has_value());
    ASSERT_TRUE(ok_of(parse(*r))) << *r;
    r = c.round_trip(R"({"op":"check","circuit":")" + name +
                     R"(","delta":30})");
    ASSERT_TRUE(r.has_value());
    ASSERT_TRUE(line_ok(*r)) << *r;
    r = c.round_trip(R"({"op":"unload","name":")" + name + R"("})");
    ASSERT_TRUE(r.has_value());
    ASSERT_TRUE(ok_of(parse(*r))) << *r;
  }
  std::stringstream ss;
  flight::dump(ss, "cycles");
  const std::string dump = ss.str();
  const std::size_t mark = dump.find("\"name\":\"last_cycle\"");
  ASSERT_NE(mark, std::string::npos);
  EXPECT_NE(dump.find("\"ev\":\"check_begin\"", mark), std::string::npos)
      << dump.substr(mark, 400);
}

TEST(ServeProtocol, LiveSocketIsNotStolenByASecondServer) {
  serve::ServeOptions opt;
  opt.socket_path = unique_path("dup", ".sock");
  TestServer ts(opt);

  // A second server on the same path must refuse to start, not silently
  // unlink the live daemon's socket out from under it.
  serve::ServeOptions opt2;
  opt2.socket_path = opt.socket_path;
  serve::Server second(opt2);
  std::string err;
  EXPECT_FALSE(second.start(&err));
  EXPECT_NE(err.find("live server"), std::string::npos) << err;

  // The original daemon is untouched and still reachable at its path.
  serve::Client c = ts.client();
  auto r = c.round_trip(R"({"op":"ping"})");
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(ok_of(parse(*r)));
}

TEST(ServeProtocol, StaleSocketFileIsReplaced) {
  const std::string path = unique_path("stale", ".sock");
  {
    // A dead server's leftovers: the file exists but nothing accepts on it
    // (bound, never listened, fd closed → probe gets ECONNREFUSED).
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    ASSERT_LT(path.size(), sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    ::close(fd);
  }
  serve::ServeOptions opt;
  opt.socket_path = path;
  TestServer ts(opt);
  serve::Client c = ts.client();
  auto r = c.round_trip(R"({"op":"ping"})");
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(ok_of(parse(*r)));
}

TEST(ServeProtocol, LoadRunsOnTheWorkerNotTheIOThread) {
  Circuit csa = gen::carry_skip_adder(8, 2);
  const std::string path = write_temp_bench(csa, "ioload");
  serve::ServeOptions opt;
  opt.enable_debug_ops = true;
  TestServer ts(std::move(opt));

  // Wedge the worker, then queue a load behind the wedge: the IO thread
  // must keep answering pings while the load waits its turn on the worker.
  serve::Client loader = ts.client();
  ASSERT_TRUE(loader.send_line(R"({"id":"s","op":"debug_stall","ms":300})"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(loader.send_line(
      R"({"id":"l","op":"load","name":"io","file":")" + path + R"("})"));

  serve::Client c = ts.client();
  auto r = c.round_trip(R"({"op":"ping"})");
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(ok_of(parse(*r)));

  std::string line;
  ASSERT_TRUE(loader.recv_line(&line));
  EXPECT_EQ(parse(line).str("id"), "s");
  ASSERT_TRUE(loader.recv_line(&line));
  explain::TraceEvent ev = parse(line);
  EXPECT_EQ(ev.str("id"), "l");
  EXPECT_TRUE(ok_of(ev)) << line;

  // The queued load took effect: the circuit is resident and checkable.
  r = c.round_trip(R"({"op":"check","circuit":"io","delta":100})");
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(line_ok(*r)) << *r;
}

TEST(ServeProtocol, ShutdownDrainsQueuedRequestsAsErrors) {
  serve::ServeOptions opt;
  opt.enable_debug_ops = true;
  TestServer ts(std::move(opt));
  serve::Client c = ts.client();

  ASSERT_TRUE(c.send_line(R"({"id":"s","op":"debug_stall","ms":300})"));
  // Let the worker pop the stall so it is mid-run (not still queued, which
  // would drain it as shutting_down too) when the shutdown arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_TRUE(
      c.send_line(R"({"id":"c1","op":"check","circuit":"x","delta":1})"));
  ASSERT_TRUE(c.send_line(R"({"id":"bye","op":"shutdown"})"));

  // The shutdown ack is inline; the stall finishes; the queued check is
  // answered shutting_down during the drain — nothing ever hangs.
  std::string line;
  ASSERT_TRUE(c.recv_line(&line));
  explain::TraceEvent ev = parse(line);
  EXPECT_EQ(ev.str("id"), "bye") << line;
  EXPECT_TRUE(ok_of(ev)) << line;

  ASSERT_TRUE(c.recv_line(&line));
  ev = parse(line);
  EXPECT_EQ(ev.str("id"), "s") << line;
  EXPECT_TRUE(ok_of(ev)) << line;

  ASSERT_TRUE(c.recv_line(&line));
  ev = parse(line);
  EXPECT_EQ(ev.str("id"), "c1");
  EXPECT_FALSE(ok_of(ev));
  EXPECT_EQ(ev.str("error"), "shutting_down");

  ts.stop();
}

TEST(ServeIntrospection, StatsReportsCountersAndPerCircuitTable) {
  Circuit csa = gen::carry_skip_adder(8, 2);
  const std::string path = write_temp_bench(csa, "stats");

  TestServer ts({});
  serve::Client c = ts.client();
  auto r = c.round_trip(R"({"op":"load","name":"m1","file":")" + path +
                        R"("})");
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(ok_of(parse(*r))) << *r;
  r = c.round_trip(R"({"op":"check","circuit":"m1","delta":100})");
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(line_ok(*r)) << *r;

  // The circuits array nests, so the envelope is probed by substring like
  // the nested check/list responses above.
  r = c.round_trip(R"({"id":"st","op":"stats"})");
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(line_ok(*r)) << *r;
  const std::string& line = *r;
  EXPECT_NE(line.find("\"resident\":1"), std::string::npos) << line;
  EXPECT_NE(line.find("\"uptime_s\":"), std::string::npos);
  EXPECT_NE(line.find("\"requests\":"), std::string::npos);
  EXPECT_NE(line.find("\"queue_depth\":"), std::string::npos);
  EXPECT_NE(line.find("\"queue_depth_hw\":"), std::string::npos);
  EXPECT_NE(line.find("\"queue_cap\":"), std::string::npos);
  EXPECT_NE(line.find("\"avg_batch\":"), std::string::npos);
  EXPECT_NE(line.find("\"dedup_ratio\":"), std::string::npos);
  // Per-namespace table with the request count and both latency legs.
  EXPECT_NE(line.find("\"circuits\":[{\"name\":\"m1\",\"hash\":\""),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"queued_p50_us\":"), std::string::npos);
  EXPECT_NE(line.find("\"queued_p99_us\":"), std::string::npos);
  EXPECT_NE(line.find("\"engine_p50_us\":"), std::string::npos);
  EXPECT_NE(line.find("\"engine_p99_us\":"), std::string::npos);
}

TEST(ServeIntrospection, MetricsJsonCarriesRegistryAndNamespaces) {
  Circuit csa = gen::carry_skip_adder(8, 2);
  const std::string path = write_temp_bench(csa, "mjson");

  TestServer ts({});
  serve::Client c = ts.client();
  auto r = c.round_trip(R"({"op":"load","name":"mj","file":")" + path +
                        R"("})");
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(ok_of(parse(*r))) << *r;
  r = c.round_trip(R"({"op":"check","circuit":"mj","delta":100})");
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(line_ok(*r)) << *r;

  r = c.round_trip(R"({"op":"metrics"})");
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(line_ok(*r)) << *r;
  const std::string& line = *r;
  EXPECT_NE(line.find("\"format\":\"json\""), std::string::npos);
  EXPECT_NE(line.find("\"registry\":{"), std::string::npos);
  // The registry snapshot includes the global latency split histograms...
  EXPECT_NE(line.find("\"serve.latency.queued_us\""), std::string::npos)
      << line;
  EXPECT_NE(line.find("\"serve.latency.engine_us\""), std::string::npos);
  // ...and the per-namespace block repeats the split per resident circuit.
  EXPECT_NE(line.find("\"namespaces\":[{\"name\":\"mj\""), std::string::npos)
      << line;
  EXPECT_NE(line.find("\"queued_us\":{\"count\":"), std::string::npos);
  EXPECT_NE(line.find("\"engine_us\":{\"count\":"), std::string::npos);
  EXPECT_NE(line.find("\"p99_us\":"), std::string::npos);
}

TEST(ServeIntrospection, MetricsPrometheusBodyIsExpositionText) {
  Circuit csa = gen::carry_skip_adder(8, 2);
  const std::string path = write_temp_bench(csa, "mprom");

  TestServer ts({});
  serve::Client c = ts.client();
  auto r = c.round_trip(R"({"op":"load","name":"mp","file":")" + path +
                        R"("})");
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(ok_of(parse(*r))) << *r;
  r = c.round_trip(R"({"op":"check","circuit":"mp","delta":100})");
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(line_ok(*r)) << *r;

  // The prometheus envelope is flat (the exposition text rides inside one
  // escaped string field), so the flat parser both validates it and
  // unescapes the body — the same path `waveck client metrics prometheus`
  // uses.
  r = c.round_trip(R"({"op":"metrics","format":"prometheus"})");
  ASSERT_TRUE(r.has_value());
  explain::TraceEvent ev = parse(*r);
  EXPECT_TRUE(ok_of(ev)) << *r;
  EXPECT_EQ(ev.str("format"), "prometheus");
  const std::string body{ev.str("body")};
  ASSERT_FALSE(body.empty());
  EXPECT_NE(body.find("# TYPE waveck_serve_requests_total counter"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("waveck_serve_latency_queued_us_bucket{le=\"50\"}"),
            std::string::npos)
      << body;
  EXPECT_NE(
      body.find("waveck_serve_namespace_requests_total{circuit=\"mp\"}"),
      std::string::npos)
      << body;
  EXPECT_NE(body.find("waveck_serve_namespace_latency_us_bucket{circuit="
                      "\"mp\",leg=\"queued\",le=\"50\"}"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("waveck_serve_namespace_latency_us_count{circuit="
                      "\"mp\",leg=\"engine\"}"),
            std::string::npos)
      << body;

  // An unknown format is a stable protocol error, not a crash or silence.
  r = c.round_trip(R"({"op":"metrics","format":"xml"})");
  ASSERT_TRUE(r.has_value());
  ev = parse(*r);
  EXPECT_FALSE(ok_of(ev));
  EXPECT_EQ(ev.str("error"), "missing_field");
}

TEST(ServeIntrospection, StatsAndMetricsAnswerWhileWorkerIsBusy) {
  serve::ServeOptions opt;
  opt.enable_debug_ops = true;
  TestServer ts(std::move(opt));

  // Wedge the worker, then demand introspection on a second connection:
  // stats/metrics are served inline by the IO thread, so both must answer
  // well before the stall clears.
  serve::Client staller = ts.client();
  ASSERT_TRUE(
      staller.send_line(R"({"id":"s","op":"debug_stall","ms":1500})"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  serve::Client c = ts.client();
  const auto t0 = std::chrono::steady_clock::now();
  auto r = c.round_trip(R"({"op":"stats"})");
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(line_ok(*r)) << *r;
  r = c.round_trip(R"({"op":"metrics","format":"prometheus"})");
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(line_ok(*r)) << *r;
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::milliseconds(1000))
      << "introspection blocked behind the wedged worker";

  std::string line;
  ASSERT_TRUE(staller.recv_line(&line));
  EXPECT_TRUE(ok_of(parse(line)));
}

}  // namespace
}  // namespace waveck
