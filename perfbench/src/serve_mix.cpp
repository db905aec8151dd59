// `serve_mix`: an in-process `waveck serve` daemon (jobs=2) with the
// Table-1 circuits resident, driven closed-loop by two client connections.
//
// One iteration is one pass of a seeded script both clients pull from in
// order: single-output and whole-circuit checks at δ drawn around each δ*,
// twins (one check sent twice on a connection before either answer is
// read, so the daemon can dedup them when both wait in its queue), `stats`
// polls, and scratch cycles. A scratch cycle loads a
// circuit under a fresh name (a prepare that blocks the checks queued
// behind it), finds its δ* by bisection over check requests, and unloads
// it: the serve user's `.bench`-to-δ* latency (`delay_s`).
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/telemetry.hpp"
#include "gen/iscas_suite.hpp"
#include "gen/rng.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/topo_delay.hpp"
#include "netlist/transforms.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "verify/report_io.hpp"
#include "verify/verifier.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using waveck::Circuit;
using waveck::Time;

/// One distinct check request of the pool.
struct CheckKey {
  std::string circuit;
  std::int64_t delta = 0;
  std::string output;  // "" = whole-circuit check
  std::string expected;  // offline canonical report; "" = not sampled
};

struct Item {
  enum Kind { kCheck, kStats, kScratch } kind = kCheck;
  std::size_t key = 0;  // pool index, for kCheck
  bool twin = false;    // kCheck sent twice, pipelined
};

/// A resident circuit as the daemon loads it, and what the mix needs.
struct Resident {
  std::string name;
  std::string file;
  std::int64_t delay = 0;  // δ*
  std::int64_t top = 0;    // topological delay (bisection upper bound)
  std::vector<std::string> outputs;  // worst-arrival first
};

/// The circuit exactly as the daemon builds it from `file` (same reader,
/// default delay and decomposition), for offline reference reports.
Circuit load_like_daemon(const std::string& file) {
  Circuit c = waveck::read_bench_file(file);
  c.set_uniform_delay(waveck::DelaySpec::fixed(10));
  return waveck::decompose_for_solver(c);
}

/// Value of a top-level `"key":` in a response line ("" when absent).
std::string field(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const std::size_t k = line.find(pat);
  if (k == std::string::npos) return "";
  std::size_t b = k + pat.size();
  if (b < line.size() && line[b] == '"') {
    const std::size_t e = line.find('"', b + 1);
    return line.substr(b + 1, e - b - 1);
  }
  std::size_t e = b;
  while (e < line.size() && line[e] != ',' && line[e] != '}') ++e;
  return line.substr(b, e - b);
}

/// The canonical report of a check response: the raw bytes of its last key.
std::string report_of(const std::string& line) {
  const std::size_t k = line.rfind("\"report\":");
  if (k == std::string::npos || line.empty()) return "";
  return line.substr(k + 9, line.size() - k - 9 - 1);
}

/// One pass of the script, by both clients.
struct ScriptTally {
  std::vector<double> req_ms;
  std::vector<double> check_ms;
  /// The same latencies by distinct request: "c<pool index>" for a pool
  /// check, "p<δ>" for a scratch probe, "stats", "load" and "unload".
  std::map<std::string, std::vector<double>> by_request, by_check;
  std::vector<double> load_ms;
  std::vector<double> delay_s;  // scratch cycles: load + δ* bisection
  std::size_t checks = 0;
  std::size_t decided = 0;
  std::size_t probes = 0;
  std::vector<std::string> reports;  // by pool key
  std::vector<std::string> scratch;  // per cycle: δ* and probe verdicts
  std::string last_stats;

  void add_request(const std::string& key, double ms, bool check) {
    req_ms.push_back(ms);
    by_request[key].push_back(ms);
    if (!check) return;
    check_ms.push_back(ms);
    by_check[key].push_back(ms);
  }
};

/// Median over the distinct requests of each one's median latency.
double median_of_medians(const std::vector<const ScriptTally*>& tallies,
                         std::map<std::string, std::vector<double>> ScriptTally::*by) {
  std::map<std::string, std::vector<double>> all;
  for (const ScriptTally* t : tallies) {
    for (const auto& [key, ms] : t->*by) {
      all[key].insert(all[key].end(), ms.begin(), ms.end());
    }
  }
  std::vector<double> medians;
  for (const auto& [key, ms] : all) medians.push_back(median(ms));
  return median(medians);
}

/// Adds the timed end-to-end metrics to `m`. Every pass sends the same
/// requests, and on a shared host the noise only ever slows a pass down, by
/// up to 1.6x for stretches of seconds to minutes. Wall, CPU and the rates
/// are therefore taken from the best pass. A single pass's latency
/// quantiles also move with the order in which the two clients' requests
/// happen to meet in the queue, so the latencies come from the faster half
/// of the passes. The tails pool those passes' samples. The medians are
/// taken per distinct request first: request sizes are spread in clusters
/// (c17 to c7552), so a pooled median can sit in a gap between two
/// clusters and jump with a few samples. A scratch cycle takes 30 to 200
/// ms depending on what it queues behind; `delay_s` is its floor, the
/// median over those passes of each pass's fastest cycle.
void add_timed(const std::vector<Iteration>& its,
               const std::vector<ScriptTally>& tallies, Metrics& m) {
  std::vector<std::size_t> order(its.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return its[a].wall_s() < its[b].wall_s();
  });
  const ScriptTally& best = tallies[order.front()];
  const double wall = its[order.front()].wall_s();
  m["wall_s"] = {wall, "s"};
  double cpu = its.front().cpu_s;
  for (const Iteration& it : its) cpu = std::min(cpu, it.cpu_s);
  m["cpu_s"] = {cpu, "s"};
  m["checks_per_s"] = {static_cast<double>(best.checks) / wall, "1/s"};
  m["req_per_s"] = {static_cast<double>(best.req_ms.size()) / wall, "1/s"};

  std::vector<const ScriptTally*> faster;
  std::vector<double> check_ms, req_ms, delay_s;
  for (std::size_t k = 0; k < (order.size() + 1) / 2; ++k) {
    const ScriptTally& t = tallies[order[k]];
    faster.push_back(&t);
    check_ms.insert(check_ms.end(), t.check_ms.begin(), t.check_ms.end());
    req_ms.insert(req_ms.end(), t.req_ms.begin(), t.req_ms.end());
    if (!t.delay_s.empty()) {
      delay_s.push_back(*std::min_element(t.delay_s.begin(), t.delay_s.end()));
    }
  }
  m["delay_s"] = {median(delay_s), "s"};
  m["check_p50_ms"] = {median_of_medians(faster, &ScriptTally::by_check), "ms"};
  m["check_p90_ms"] = {quantile(check_ms, 0.90), "ms"};
  m["req_p50_ms"] = {median_of_medians(faster, &ScriptTally::by_request), "ms"};
  m["req_p99_ms"] = {quantile(req_ms, 0.99), "ms"};
}

class Mix {
 public:
  Mix(const RunConfig& cfg, Outcome& out) : cfg_(cfg), out_(out) {}
  ~Mix() { teardown(); }
  Mix(const Mix&) = delete;
  Mix& operator=(const Mix&) = delete;

  void generate();
  void make_script(std::size_t pass);
  void setup();
  void teardown();
  ScriptTally run_script(std::size_t iteration);
  [[nodiscard]] std::size_t resident_gates() const { return gates_; }
  [[nodiscard]] const std::vector<CheckKey>& pool() const { return pool_; }

 private:
  std::optional<std::string> request(waveck::serve::Client& c, Op op,
                                     const std::string& line,
                                     std::int64_t job, double* ms);
  std::vector<std::string> request_twice(waveck::serve::Client& c,
                                         const std::string& line,
                                         std::int64_t job, double ms[2]);
  void client_loop(int who, std::size_t iteration, ScriptTally& t,
                   std::mutex& mu);
  void scratch_cycle(waveck::serve::Client& c, int who, std::size_t pos,
                     std::int64_t job, ScriptTally& t, std::mutex& mu);

  const RunConfig& cfg_;
  Outcome& out_;
  std::string dir_;
  std::vector<Resident> residents_;
  Resident scratch_;
  std::vector<CheckKey> pool_;
  std::vector<Item> script_;
  std::unique_ptr<waveck::serve::Server> server_;
  std::thread io_;
  int port_ = 0;
  std::size_t gates_ = 0;
  std::atomic<std::size_t> next_{0};
  std::mutex fail_mu_;
};

void Mix::generate() {
  static const char* kFull[] = {"c17",   "c432",  "c499",  "c880",  "c1355",
                                "c1908", "c2670", "c3540", "c5315", "c7552"};
  static const char* kSmoke[] = {"c17", "c432", "c880"};
  dir_ = cfg_.work_dir + "/serve_mix";
  std::filesystem::create_directories(dir_);
  const auto names = cfg_.smoke
                         ? std::vector<std::string>(std::begin(kSmoke), std::end(kSmoke))
                         : std::vector<std::string>(std::begin(kFull), std::end(kFull));
  // NOR-mapped netlists the daemon loads, their δ* (offline, once) and
  // worst-arrival outputs. The scratch circuit is c880 under fresh names.
  for (const std::string& name : names) {
    Resident r;
    r.name = name;
    r.file = dir_ + "/" + name + ".bench";
    std::ofstream(r.file) << waveck::write_bench_string(
        waveck::gen::prepare_for_experiment(waveck::gen::build_raw(name)));
    const Circuit c = load_like_daemon(r.file);
    waveck::Verifier v(c);
    r.delay = v.exact_floating_delay().delay.value();
    r.top = waveck::topological_delay(c).value();
    for (waveck::NetId o : waveck::plan_suite_checks(c, Time(0)).order) {
      r.outputs.push_back(c.net(o).name);
    }
    if (name == "c880") {
      scratch_ = r;
      scratch_.name = "scratch";
    }
    residents_.push_back(std::move(r));
  }

  // Pool: per circuit, whole-circuit checks at six offsets around δ* and
  // single-output checks on the three slowest outputs at δ* and δ*+1. The
  // pool is the same for every seed, so every script does the same work.
  static const std::int64_t kOffsets[] = {-30, -10, 0, 1, 10, 40};
  for (const Resident& r : residents_) {
    for (const std::int64_t off : kOffsets) {
      pool_.push_back({r.name, std::max<std::int64_t>(1, r.delay + off), "", ""});
    }
    for (std::size_t o = 0; o < std::min<std::size_t>(3, r.outputs.size()); ++o) {
      for (const std::int64_t off : {0, 1}) {
        pool_.push_back({r.name, r.delay + off, r.outputs[o], ""});
      }
    }
  }
  // Offline references for a seeded half of the pool (one verifier per
  // circuit, daemon options).
  waveck::gen::Rng rng(waveck::gen::mix_seed(cfg_.seed, 7));
  for (const Resident& r : residents_) {
    const Circuit c = load_like_daemon(r.file);
    waveck::Verifier v(c);
    for (CheckKey& k : pool_) {
      if (k.circuit != r.name || !rng.chance(50)) continue;
      if (k.output.empty()) {
        k.expected = waveck::canonical_json(c, v.check_circuit(Time(k.delta)));
      } else {
        k.expected = waveck::canonical_json(
            c, v.check_output(*c.find_net(k.output), Time(k.delta)));
      }
    }
  }
}

void Mix::make_script(std::size_t pass) {
  // Rounds of the whole pool in seeded order, fresh for every pass. In
  // each round a tenth of the checks is sent as a twin, and stats polls
  // (one per 25 checks) and two scratch cycles sit at seeded positions.
  // These shares are assumptions, not taken from recorded traffic; they
  // are sized so that dedup, stats and loads each show in the serve
  // counters. The seed moves requests around, not how many of each there
  // are.
  waveck::gen::Rng rng(waveck::gen::mix_seed(cfg_.seed, 1000 + pass));
  script_.clear();
  const int rounds = cfg_.smoke ? 1 : 3;
  for (int round = 0; round < rounds; ++round) {
    std::vector<Item> items;
    for (std::size_t k = 0; k < pool_.size(); ++k) items.push_back({Item::kCheck, k});
    for (std::size_t k = 0; k < pool_.size() / 25; ++k) items.push_back({Item::kStats, 0});
    for (int k = 0; k < 2; ++k) items.push_back({Item::kScratch, 0});
    for (std::size_t i = items.size(); i > 1; --i) {  // Fisher-Yates
      std::swap(items[i - 1], items[rng.below(i)]);
    }
    for (Item& it : items) {
      it.twin = it.kind == Item::kCheck && it.key % 10 == 0;
      script_.push_back(it);
    }
  }
}

std::optional<std::string> Mix::request(waveck::serve::Client& c, Op op,
                                        const std::string& line,
                                        std::int64_t job, double* ms) {
  Span s(op, job);
  auto resp = c.round_trip(line);
  *ms = s.stop() * 1e3;
  const bool ok = resp && field(*resp, "ok") == "true";
  {
    std::lock_guard<std::mutex> lock(fail_mu_);
    ++out_.attempted;
    if (!ok) fail(out_, "protocol: " + line + " -> " + (resp ? *resp : "<eof>"));
  }
  if (!ok) return std::nullopt;
  return resp;
}

std::vector<std::string> Mix::request_twice(waveck::serve::Client& c,
                                            const std::string& line,
                                            std::int64_t job, double ms[2]) {
  // Both copies go out in one write, before either answer is read (two
  // writes would let Nagle's algorithm hold the second until the first is
  // answered). The daemon's IO thread then queues both from one read, so
  // its worker nearly always takes them in one batch and runs them once.
  // Each is timed send -> its own response.
  Span s(Op::kServeCheck, job);
  const std::uint64_t sent = wall_ns();
  bool ok = c.send_line(line + "\n" + line);
  std::vector<std::string> resps;
  for (int k = 0; k < 2 && ok; ++k) {
    std::string resp;
    ok = c.recv_line(&resp) && field(resp, "ok") == "true";
    ms[k] = static_cast<double>(wall_ns() - sent) * 1e-6;
    if (ok) resps.push_back(std::move(resp));
  }
  s.stop();
  std::lock_guard<std::mutex> lock(fail_mu_);
  out_.attempted += 2;
  if (!ok) fail(out_, "protocol: twin " + line);
  if (!ok) resps.clear();
  return resps;
}

void Mix::setup() {
  // Re-written each set-up: NOR mapping is part of getting the netlists
  // the daemon serves.
  for (const Resident& r : residents_) {
    const Circuit raw = waveck::gen::build_raw(r.name);
    Span s(Op::kNorMap, -1);
    const Circuit mapped = waveck::gen::prepare_for_experiment(raw);
    s.stop();
    std::ofstream(r.file) << waveck::write_bench_string(mapped);
  }
  waveck::serve::ServeOptions opt;
  opt.tcp_port = -1;  // ephemeral loopback port
  opt.jobs = 2;
  server_ = std::make_unique<waveck::serve::Server>(opt);
  std::string err;
  if (!server_->start(&err)) throw std::runtime_error("serve start: " + err);
  port_ = server_->tcp_port();
  io_ = std::thread([this] { server_->run(); });
  waveck::serve::Client c;
  if (!c.connect_tcp(port_, &err)) throw std::runtime_error("connect: " + err);
  gates_ = 0;
  for (const Resident& r : residents_) {
    double ms = 0;
    const auto resp = request(
        c, Op::kServeLoad,
        "{\"op\":\"load\",\"name\":\"" + r.name + "\",\"file\":\"" +
            waveck::telemetry::json_escape(r.file) + "\"}",
        -1, &ms);
    if (!resp) throw std::runtime_error("load of " + r.name + " failed");
    gates_ += std::strtoull(field(*resp, "gates").c_str(), nullptr, 10);
  }
  // The daemon prepares a circuit (learning, SCOAP, stems) on its first
  // check: do that here, so set-up and not the measured requests pays it.
  for (const Resident& r : residents_) {
    double ms = 0;
    if (!request(c, Op::kServeCheck,
                 "{\"op\":\"check\",\"circuit\":\"" + r.name +
                     "\",\"delta\":" + std::to_string(r.delay) + "}",
                 -1, &ms)) {
      throw std::runtime_error("first check of " + r.name + " failed");
    }
  }
}

void Mix::teardown() {
  if (!server_) return;
  server_->request_shutdown();
  if (io_.joinable()) io_.join();
  server_.reset();
}

void Mix::scratch_cycle(waveck::serve::Client& c, int who, std::size_t pos,
                        std::int64_t job, ScriptTally& t, std::mutex& mu) {
  const std::string name =
      "scratch-" + std::to_string(who) + "-" + std::to_string(pos % 4);
  const std::uint64_t t0 = wall_ns();
  double load_ms = 0;
  std::vector<std::pair<std::string, double>> reqs;  // key, ms; check if 'p'
  if (!request(c, Op::kServeLoad,
               "{\"op\":\"load\",\"name\":\"" + name + "\",\"file\":\"" +
                   waveck::telemetry::json_escape(scratch_.file) + "\"}",
               job, &load_ms)) {
    return;
  }
  reqs.emplace_back("load", load_ms);
  // Bisection for the largest δ with a violation, as Verifier's search
  // does (without its simulation jumps: the client only sees verdicts).
  std::int64_t lo = 0, hi = scratch_.top;
  std::string trail;
  std::size_t probes = 0, decided = 0;
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo + 1) / 2;
    double ms = 0;
    const auto resp = request(c, Op::kServeCheck,
                              "{\"op\":\"check\",\"circuit\":\"" + name +
                                  "\",\"delta\":" + std::to_string(mid) + "}",
                              job, &ms);
    if (!resp) return;
    ++probes;
    reqs.emplace_back("p" + std::to_string(mid), ms);
    const std::string concl = field(*resp, "conclusion");
    trail += std::to_string(mid) + concl + "/";
    if (concl == "V" || concl == "N") ++decided;
    // At or below δ* a vector exists, so anything but V is wrong there.
    const bool expect_v = mid <= scratch_.delay;
    if (expect_v ? concl != "V" : concl == "V") {
      std::lock_guard<std::mutex> lock(fail_mu_);
      fail(out_, name + " @" + std::to_string(mid) + " is " + concl +
                     " but delta* is " + std::to_string(scratch_.delay));
    }
    if (concl == "V") lo = mid; else hi = mid - 1;
  }
  const double delay_s = static_cast<double>(wall_ns() - t0) * 1e-9;
  if (lo != scratch_.delay) {
    std::lock_guard<std::mutex> lock(fail_mu_);
    fail(out_, name + " bisection found delta* " + std::to_string(lo) +
                   ", offline delta* is " + std::to_string(scratch_.delay));
  }
  double ms = 0;
  if (!request(c, Op::kServeUnload,
               "{\"op\":\"unload\",\"name\":\"" + name + "\"}", job, &ms)) {
    return;
  }
  reqs.emplace_back("unload", ms);
  std::lock_guard<std::mutex> lock(mu);
  for (const auto& [key, req_ms] : reqs) {
    t.add_request(key, req_ms, key[0] == 'p');
  }
  t.load_ms.push_back(load_ms);
  t.delay_s.push_back(delay_s);
  t.checks += probes;
  t.decided += decided;
  t.probes += probes;
  t.scratch.push_back(std::to_string(lo) + ":" + trail);
}

void Mix::client_loop(int who, std::size_t iteration, ScriptTally& t,
                      std::mutex& mu) {
  waveck::serve::Client c;
  std::string err;
  if (!c.connect_tcp(port_, &err)) {
    std::lock_guard<std::mutex> lock(fail_mu_);
    fail(out_, "client connect: " + err);
    return;
  }
  for (;;) {
    const std::size_t pos = next_.fetch_add(1);
    if (pos >= script_.size()) break;
    const Item& item = script_[pos];
    const auto job = static_cast<std::int64_t>(iteration * 100000 + pos);
    if (item.kind == Item::kScratch) {
      scratch_cycle(c, who, pos, job, t, mu);
      continue;
    }
    double ms = 0;
    if (item.kind == Item::kStats) {
      const auto resp = request(c, Op::kServeStats, "{\"op\":\"stats\"}", job, &ms);
      std::lock_guard<std::mutex> lock(mu);
      t.add_request("stats", ms, false);
      if (resp) t.last_stats = *resp;
      continue;
    }
    const CheckKey& k = pool_[item.key];
    std::string line = "{\"op\":\"check\",\"circuit\":\"" + k.circuit +
                       "\",\"delta\":" + std::to_string(k.delta);
    if (!k.output.empty()) line += ",\"output\":\"" + k.output + "\"";
    line += "}";
    std::vector<std::string> resps;
    double twin_ms[2] = {0, 0};
    if (item.twin) {
      resps = request_twice(c, line, job, twin_ms);
    } else if (auto resp = request(c, Op::kServeCheck, line, job, &twin_ms[0])) {
      resps.push_back(std::move(*resp));
    }
    for (std::size_t r = 0; r < resps.size(); ++r) {
      const std::string concl = field(resps[r], "conclusion");
      std::string report = report_of(resps[r]);
      if (!k.expected.empty() && report != k.expected) {
        std::lock_guard<std::mutex> lock(fail_mu_);
        fail(out_, "served report differs from offline canonical_json for " +
                       k.circuit + " @" + std::to_string(k.delta) + " " + k.output);
      }
      std::lock_guard<std::mutex> lock(mu);
      t.add_request("c" + std::to_string(item.key), twin_ms[r], true);
      ++t.checks;
      if (concl == "V" || concl == "N") ++t.decided;
      std::string& first = t.reports[item.key];
      if (first.empty()) {
        first = std::move(report);
      } else if (first != report) {
        std::lock_guard<std::mutex> flock(fail_mu_);
        fail(out_, "two served reports differ for " + k.circuit + " @" +
                       std::to_string(k.delta) + " " + k.output);
      }
    }
  }
}

ScriptTally Mix::run_script(std::size_t iteration) {
  make_script(iteration);
  ScriptTally t;
  t.reports.resize(pool_.size());
  std::mutex mu;
  next_.store(0);
  std::thread a([&] { client_loop(0, iteration, t, mu); });
  std::thread b([&] { client_loop(1, iteration, t, mu); });
  a.join();
  b.join();
  return t;
}

}  // namespace

Outcome run_serve_mix(const RunConfig& cfg) {
  Outcome out;
  Mix mix(cfg, out);
  {
    const std::uint64_t t0 = wall_ns();
    mix.generate();
    std::cout << "mix generated in " << static_cast<double>(wall_ns() - t0) * 1e-9
              << " s (offline δ* and reference reports)\n";
  }
  const double setup_s = timed_setups(5, [&] {
    mix.teardown();
    mix.setup();
  });
  // Count only the measured window in the daemon's counters and latency
  // histograms (the stats op and the per-layer serve numbers read them).
  waveck::telemetry::Registry::global().reset();

  std::vector<ScriptTally> tallies;
  const std::size_t count =
      iteration_count(cfg.seconds, cfg.smoke ? 0.06 : 2.2);
  const auto its = run_iterations(
      count, cfg.trace, kDeadlineShare * cfg.seconds,
      [&](std::size_t i) { tallies.push_back(mix.run_script(i)); });
  mix.teardown();

  // Determinism: every pass serves every pool key (its twins included)
  // the same report bytes, and every scratch cycle finds the same δ* by
  // the same probe verdicts, whatever the request order.
  std::vector<std::string> digests;
  for (const ScriptTally& t : tallies) {
    Fingerprint fp;
    for (const std::string& r : t.reports) fp.add(r);
    for (const std::string& sc : t.scratch) {
      if (sc != t.scratch.front()) fail(out, "scratch cycles differ: " + sc);
    }
    fp.add(t.scratch.empty() ? "" : t.scratch.front());
    digests.push_back(fp.hex());
  }
  for (std::size_t i = 1; i < digests.size(); ++i) {
    if (digests[i] != digests[0]) {
      fail(out, "script pass " + std::to_string(i) + " fingerprint " +
                    digests[i] + " != " + digests[0]);
    }
  }
  out.fingerprint = digests.front();
  out.fingerprint_detail = "pool=" + std::to_string(mix.pool().size()) +
                           " resident_gates=" + std::to_string(mix.resident_gates());

  if (cfg.trace) {
    out.metrics = layer_metrics(its);
    auto& reg = waveck::telemetry::Registry::global();
    const auto& queued = reg.time_histogram("serve.latency.queued_us");
    const auto& engine = reg.time_histogram("serve.latency.engine_us");
    out.metrics["serve.queued_p50_us"] = {queued.quantile_us(0.50), "us"};
    out.metrics["serve.queued_p99_us"] = {queued.quantile_us(0.99), "us"};
    out.metrics["serve.engine_p50_us"] = {engine.quantile_us(0.50), "us"};
    out.metrics["serve.engine_p99_us"] = {engine.quantile_us(0.99), "us"};
    std::vector<double> loads, probes;
    for (std::size_t i = 0; i < tallies.size(); ++i) {
      if (!its[i].traced) continue;
      loads.insert(loads.end(), tallies[i].load_ms.begin(), tallies[i].load_ms.end());
      probes.push_back(static_cast<double>(tallies[i].probes));
    }
    const std::string& stats = tallies.back().last_stats;
    out.metrics["serve.avg_batch"] = {std::strtod(field(stats, "avg_batch").c_str(), nullptr),
                                      "count"};
    out.metrics["serve.dedup_ratio"] = {
        std::strtod(field(stats, "dedup_ratio").c_str(), nullptr), "ratio"};
    out.metrics["serve.load_p50_ms"] = {median(loads), "ms"};
    out.metrics["netlist.gates"] = {static_cast<double>(mix.resident_gates()), "count"};
    out.metrics["search.probes"] = {median(probes), "count"};
    out.metrics["sim.oracle_s"] = {0.0, "s"};
    return out;
  }

  std::size_t checks = 0, decided = 0;
  for (const ScriptTally& t : tallies) {
    checks += t.checks;
    decided += t.decided;
  }
  std::cout << "samples: passes=" << tallies.size() << ", per pass requests="
            << tallies.front().req_ms.size()
            << " checks=" << tallies.front().check_ms.size()
            << " scratch_cycles=" << tallies.front().delay_s.size() << "\n";
  Metrics& m = out.metrics;
  add_timed(its, tallies, m);
  m["setup_s"] = {setup_s, "s"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
  m["decided_share"] = {
      checks > 0 ? static_cast<double>(decided) / static_cast<double>(checks) : 0.0,
      "ratio"};
  return out;
}

}  // namespace perfbench
