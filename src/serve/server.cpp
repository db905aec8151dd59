#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <thread>
#include <utility>

#include "common/flight_recorder.hpp"
#include "common/telemetry.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/content_hash.hpp"
#include "netlist/delay_annotation.hpp"
#include "netlist/transforms.hpp"
#include "netlist/verilog_io.hpp"
#include "prof/heartbeat.hpp"
#include "verify/report_io.hpp"

namespace waveck::serve {
namespace {

/// A request line longer than this without a newline is a protocol abuse;
/// the connection is answered with parse_error and closed.
constexpr std::size_t kMaxLineBytes = 1u << 20;

/// How long one response write may wait for a slow reader to drain the
/// socket buffer before the connection is declared broken: up to
/// kMaxWriteStalls polls of kWriteStallPollMs each (~10 s total).
constexpr int kWriteStallPollMs = 100;
constexpr int kMaxWriteStalls = 100;

telemetry::Counter& counter(const char* name) {
  return telemetry::Registry::global().counter(name);
}

/// Self-pipe write end for the signal handler (async-signal-safe: only
/// write() touches it).
std::atomic<int> g_signal_wake_fd{-1};

void on_shutdown_signal(int /*sig*/) {
  const int fd = g_signal_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char b = 's';
    [[maybe_unused]] const ssize_t n = ::write(fd, &b, 1);
  }
}

/// Mirrors the offline CLI's netlist loading exactly (tools/waveck_cli.cpp
/// `load`): same readers, same default uniform delay of 10, same solver
/// decomposition — a prerequisite for served reports being byte-identical
/// to offline ones.
Circuit load_circuit(const std::string& path, const std::string& delays) {
  const bool verilog =
      path.size() > 2 && path.compare(path.size() - 2, 2, ".v") == 0;
  Circuit c = verilog ? read_verilog_file(path) : read_bench_file(path);
  if (!delays.empty()) {
    read_delays_file(delays, c);
  } else {
    c.set_uniform_delay(DelaySpec::fixed(10));
  }
  return decompose_for_solver(c);
}

}  // namespace

struct Server::Connection {
  int fd = -1;
  std::string inbuf;
  std::mutex write_mu;  // serialises worker/IO writes; guards fd teardown
  bool closed = false;  // IO thread only
  /// Set (any thread) when a write could not be completed: the outbound
  /// stream may end mid-line, so nothing more is ever written to it and
  /// the IO thread reaps the connection instead of serving it further.
  std::atomic<bool> broken{false};

  void write_line(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mu);
    if (fd < 0 || broken.load(std::memory_order_relaxed)) return;
    const char* p = line.data();
    std::size_t n = line.size();
    int stalls = 0;
    while (n > 0) {
      const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
      if (w > 0) {
        p += w;
        n -= static_cast<std::size_t>(w);
        stalls = 0;
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        // The fd is O_NONBLOCK and the send buffer is full (a report
        // larger than SO_SNDBUF, or a reader that stopped draining).
        // Returning here would truncate the JSONL line and corrupt every
        // later response on this stream, so wait — bounded — for POLLOUT.
        if (++stalls > kMaxWriteStalls) break;
        pollfd pfd{fd, POLLOUT, 0};
        const int rc = ::poll(&pfd, 1, kWriteStallPollMs);
        if (rc < 0 && errno != EINTR) break;
        continue;
      }
      break;  // peer gone or hard error
    }
    if (n > 0) broken.store(true, std::memory_order_relaxed);
  }

  void close_fd() {
    std::lock_guard<std::mutex> lock(write_mu);
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
};

struct Server::Pending {
  std::shared_ptr<Connection> conn;
  Request req;
  std::uint64_t expiry_ns = 0;    // absolute monotonic deadline; 0 = none
  std::uint64_t enqueued_ns = 0;  // monotonic_ns at admission (latency base)
};

Server::Server(ServeOptions opt)
    // Taking &stopping_ before its initializer runs is fine: the registry
    // only stores the pointer, and no circuit loads before start().
    : opt_(std::move(opt)),
      registry_(opt_.jobs == 0 ? 1 : opt_.jobs, &stopping_) {}

Server::~Server() {
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_worker_ = true;
  }
  queue_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  monitor_.reset();
  for (const auto& conn : conns_) conn->close_fd();
  if (unix_fd_ >= 0) ::close(unix_fd_);
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
  if (!opt_.socket_path.empty() && started_) {
    ::unlink(opt_.socket_path.c_str());
  }
  g_signal_wake_fd.store(-1, std::memory_order_relaxed);
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

bool Server::bind_unix(std::string* err) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opt_.socket_path.size() >= sizeof(addr.sun_path)) {
    *err = "socket path too long: " + opt_.socket_path;
    return false;
  }
  std::memcpy(addr.sun_path, opt_.socket_path.c_str(),
              opt_.socket_path.size() + 1);
  unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (unix_fd_ < 0) {
    *err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  // Never steal a live daemon's socket: probe the path first and only
  // unlink when nothing answers (ECONNREFUSED = socket file left behind by
  // a dead server). If the connect succeeds a server is accepting there —
  // refuse to start rather than silently orphan it.
  const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (probe >= 0) {
    if (::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      ::close(probe);
      *err = "a live server is already accepting on " + opt_.socket_path +
             " (use a different --socket, or shut it down first)";
      return false;
    }
    const bool stale = errno == ECONNREFUSED;
    ::close(probe);
    if (stale) ::unlink(opt_.socket_path.c_str());
    // ENOENT: nothing at the path. Anything else: leave the path alone and
    // let bind() report the conflict.
  }
  if (::bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(unix_fd_, 64) < 0) {
    *err = "bind " + opt_.socket_path + ": " + std::strerror(errno);
    return false;
  }
  return true;
}

bool Server::bind_tcp(std::string* err) {
  tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (tcp_fd_ < 0) {
    *err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only: no
  // authentication story, so never listen on a routable interface.
  addr.sin_port =
      htons(opt_.tcp_port > 0 ? static_cast<std::uint16_t>(opt_.tcp_port)
                              : 0);
  if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(tcp_fd_, 64) < 0) {
    *err = "bind tcp port " + std::to_string(opt_.tcp_port) + ": " +
           std::strerror(errno);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    tcp_port_ = ntohs(bound.sin_port);
  }
  return true;
}

bool Server::start(std::string* err) {
  if (opt_.socket_path.empty() && opt_.tcp_port == 0) {
    *err = "serve needs a --socket path or a --tcp port";
    return false;
  }
  if (::pipe(wake_pipe_) < 0) {
    *err = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  if (!opt_.socket_path.empty() && !bind_unix(err)) return false;
  if (opt_.tcp_port != 0 && !bind_tcp(err)) return false;
  if (opt_.handle_signals) {
    g_signal_wake_fd.store(wake_pipe_[1], std::memory_order_relaxed);
    struct sigaction sa{};
    sa.sa_handler = on_shutdown_signal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
  }
  if (!opt_.blackbox_dir.empty()) {
    flight::set_blackbox_dir(opt_.blackbox_dir);
    flight::install_fatal_handlers();
  }
  if (opt_.heartbeat_s > 0.0) {
    monitor_ = std::make_unique<prof::ProgressMonitor>(
        prof::HeartbeatOptions{
            .interval_s = opt_.heartbeat_s,
            .stall_s = opt_.stall_s,
            // The monitor already dumped the thread snapshot and blackbox;
            // this appends the daemon-level view in the same structured
            // shape the exit line uses, so a stalled daemon's last stderr
            // lines are machine-readable.
            .on_stall =
                [this] {
                  std::cerr << "waveck-serve: stalled " << stats_json()
                            << "\n" << std::flush;
                }},
        std::cerr);
  }
  start_ns_ = telemetry::monotonic_ns();
  worker_ = std::thread([this] { worker_loop(); });
  started_ = true;
  return true;
}

void Server::request_shutdown() {
  const char b = 's';
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &b, 1);
}

void Server::run() {
  if (!started_) return;
  std::vector<pollfd> pfds;
  bool shutdown = false;
  while (!shutdown) {
    pfds.clear();
    pfds.push_back({wake_pipe_[0], POLLIN, 0});
    int unix_idx = -1;
    int tcp_idx = -1;
    if (unix_fd_ >= 0) {
      unix_idx = static_cast<int>(pfds.size());
      pfds.push_back({unix_fd_, POLLIN, 0});
    }
    if (tcp_fd_ >= 0) {
      tcp_idx = static_cast<int>(pfds.size());
      pfds.push_back({tcp_fd_, POLLIN, 0});
    }
    const std::size_t conn_base = pfds.size();
    for (const auto& conn : conns_) {
      pfds.push_back({conn->fd, POLLIN, 0});
    }
    const int rc = ::poll(pfds.data(), pfds.size(), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((pfds[0].revents & POLLIN) != 0) {
      shutdown = true;  // drained by close; no need to read the bytes
      continue;
    }
    const auto accept_on = [this](int listen_fd) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      const int flags = ::fcntl(fd, F_GETFL, 0);
      ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
      auto conn = std::make_shared<Connection>();
      conn->fd = fd;
      conns_.push_back(std::move(conn));
    };
    if (unix_idx >= 0 && (pfds[unix_idx].revents & POLLIN) != 0) {
      accept_on(unix_fd_);
    }
    if (tcp_idx >= 0 && (pfds[tcp_idx].revents & POLLIN) != 0) {
      accept_on(tcp_fd_);
    }
    for (std::size_t i = 0; i < conns_.size() && conn_base + i < pfds.size();
         ++i) {
      const short rev = pfds[conn_base + i].revents;
      if ((rev & (POLLIN | POLLERR | POLLHUP)) != 0) {
        handle_readable(conns_[i]);
      }
    }
    for (const auto& conn : conns_) {
      // A write marked the stream broken (slow reader or hard send error):
      // stop serving the connection rather than read more requests whose
      // responses would land on a corrupted stream.
      if (!conn->closed && conn->broken.load(std::memory_order_relaxed)) {
        conn->close_fd();
        conn->closed = true;
      }
    }
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const std::shared_ptr<Connection>& c) {
                                  return c->closed;
                                }),
                 conns_.end());
  }

  // Teardown: stop accepting, abort the in-flight check (cancel flag),
  // let the worker drain the queue as shutting_down errors, then report.
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    unix_fd_ = -1;
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_worker_ = true;
  }
  queue_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  monitor_.reset();
  for (const auto& conn : conns_) conn->close_fd();
  conns_.clear();
  if (!opt_.socket_path.empty()) ::unlink(opt_.socket_path.c_str());
  final_stats_line();
}

void Server::handle_readable(const std::shared_ptr<Connection>& conn) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->inbuf.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    conn->closed = true;  // EOF or hard error
    break;
  }
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = conn->inbuf.find('\n', start);
    if (nl == std::string::npos) break;
    const std::string line = conn->inbuf.substr(start, nl - start);
    start = nl + 1;
    if (!line.empty()) handle_line(conn, line);
    if (conn->closed) break;
  }
  conn->inbuf.erase(0, start);
  if (conn->inbuf.size() > kMaxLineBytes) {
    counter("serve.errors").inc();
    send(conn, error_response("", "parse_error",
                              "request line exceeds 1 MiB"));
    conn->closed = true;
  }
  if (conn->closed) conn->close_fd();
}

void Server::handle_line(const std::shared_ptr<Connection>& conn,
                         const std::string& line) {
  counter("serve.requests").inc();
  ParseResult parsed = parse_request(line, opt_.enable_debug_ops);
  if (!parsed.ok) {
    counter("serve.errors").inc();
    send(conn, error_response(parsed.id, parsed.error, parsed.message));
    return;
  }
  const Request& req = parsed.req;
  flight::record(
      flight::Kind::kServeRequest, to_string(req.op),
      telemetry::Registry::global().gauge("serve.queue_depth").value());
  switch (req.op) {
    case Op::kPing: {
      ResponseWriter w = ok_response(req.id, Op::kPing);
      w.field("resident", static_cast<std::uint64_t>(registry_.size()));
      send(conn, std::move(w).done());
      return;
    }
    case Op::kList:
      send(conn, list_response(req.id));
      return;
    case Op::kStats:
      send(conn, stats_response(req.id));
      return;
    case Op::kMetrics:
      // Served inline like stats: the IO thread reads only relaxed atomics,
      // so metrics answer even while the worker is wedged mid-check — the
      // moment a scrape matters most.
      send(conn, metrics_response(req.id, req.format));
      return;
    case Op::kLoad:
      // Loading parses, annotates and decomposes a whole netlist — worker
      // work. Done inline it would stall accepts, pings and reads for
      // every client for the duration.
      enqueue(conn, req);
      return;
    case Op::kUnload: {
      if (!registry_.unload(req.name)) {
        counter("serve.errors").inc();
        send(conn, error_response(req.id, Op::kUnload, "unknown_circuit",
                                  "no circuit named \"" + req.name + "\""));
        return;
      }
      ResponseWriter w = ok_response(req.id, Op::kUnload);
      w.field("name", req.name);
      send(conn, std::move(w).done());
      return;
    }
    case Op::kShutdown: {
      ResponseWriter w = ok_response(req.id, Op::kShutdown);
      send(conn, std::move(w).done());
      request_shutdown();
      return;
    }
    case Op::kCheck:
    case Op::kDebugStall:
      enqueue(conn, req);
      return;
  }
}

void Server::handle_load(const std::shared_ptr<Connection>& conn,
                         const Request& req) {
  Circuit c;
  try {
    c = load_circuit(req.file, req.delays);
  } catch (const std::exception& e) {
    counter("serve.errors").inc();
    send(conn, error_response(req.id, Op::kLoad, "load_failed", e.what()));
    return;
  }
  const std::string hash = content_hash_hex(c);
  if (!req.hash.empty() && req.hash != hash) {
    counter("serve.errors").inc();
    send(conn, error_response(req.id, Op::kLoad, "hash_mismatch",
                              "expected hash " + req.hash +
                                  " but \"" + req.file + "\" hashes to " +
                                  hash));
    return;
  }
  LoadOutcome out = registry_.load(req.name, std::move(c));
  if (out.hash_mismatch) {
    counter("serve.errors").inc();
    send(conn, error_response(
                   req.id, Op::kLoad, "hash_mismatch",
                   "name \"" + req.name + "\" is bound to hash " +
                       out.existing_hash + ", refusing to rebind to " + hash +
                       " (unload first)"));
    return;
  }
  ResponseWriter w = ok_response(req.id, Op::kLoad);
  w.field("name", out.resident->name());
  w.field("hash", out.resident->hash());
  w.field("circuit", out.resident->circuit().name());
  w.field("nets",
          static_cast<std::uint64_t>(out.resident->circuit().num_nets()));
  w.field("gates",
          static_cast<std::uint64_t>(out.resident->circuit().num_gates()));
  w.field("inputs", static_cast<std::uint64_t>(
                        out.resident->circuit().inputs().size()));
  w.field("outputs", static_cast<std::uint64_t>(
                         out.resident->circuit().outputs().size()));
  w.field("already_loaded", out.already_loaded);
  send(conn, std::move(w).done());
}

void Server::enqueue(const std::shared_ptr<Connection>& conn,
                     const Request& req) {
  Pending p;
  p.conn = conn;
  p.req = req;
  p.enqueued_ns = telemetry::monotonic_ns();
  const std::uint64_t timeout_ms =
      req.timeout_ms ? *req.timeout_ms : opt_.default_timeout_ms;
  if (req.op == Op::kCheck && timeout_ms > 0) {
    p.expiry_ns = p.enqueued_ns + timeout_ms * 1'000'000ull;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_.size() >= opt_.queue_cap) {
      counter("serve.overloaded").inc();
      counter("serve.errors").inc();
      send(conn, error_response(req.id, req.op, "overloaded",
                                "check queue full (cap " +
                                    std::to_string(opt_.queue_cap) + ")"));
      // Shedding load is an incident worth evidence: what filled the queue
      // is in the rings. Rate-limited inside dump_blackbox, so a rejection
      // storm writes one dump, not thousands.
      flight::dump_blackbox("overloaded");
      return;
    }
    queue_.push_back(std::move(p));
    telemetry::Registry::global()
        .gauge("serve.queue_depth")
        .set(static_cast<std::int64_t>(queue_.size()));
  }
  queue_cv_.notify_one();
}

void Server::worker_loop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return stop_worker_ || !queue_.empty(); });
      if (stop_worker_) break;  // leftovers drain below, as errors
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      if (batch[0].req.op == Op::kCheck) {
        // Coalesce: every queued check for the same circuit joins this
        // batch (order within the batch is queue order; unrelated requests
        // keep their positions).
        for (auto it = queue_.begin();
             it != queue_.end() && batch.size() < opt_.max_batch;) {
          if (it->req.op == Op::kLoad && it->req.name == batch[0].req.circuit) {
            // A pending load for this circuit is a reorder barrier: a check
            // queued behind it must see its effect, not jump the queue.
            break;
          }
          if (it->req.op == Op::kCheck &&
              it->req.circuit == batch[0].req.circuit) {
            batch.push_back(std::move(*it));
            it = queue_.erase(it);
          } else {
            ++it;
          }
        }
      }
      telemetry::Registry::global()
          .gauge("serve.queue_depth")
          .set(static_cast<std::int64_t>(queue_.size()));
    }
    run_batch(std::move(batch));
  }

  std::deque<Pending> rest;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    rest.swap(queue_);
  }
  for (const Pending& p : rest) {
    counter("serve.errors").inc();
    send(p.conn, error_response(p.req.id, p.req.op, "shutting_down",
                                "server is shutting down"));
  }
}

void Server::run_batch(std::vector<Pending> batch) {
  if (batch[0].req.op == Op::kDebugStall) {
    run_stall(batch[0]);
    return;
  }
  if (batch[0].req.op == Op::kLoad) {
    flight::Slot& self = flight::self();
    self.busy("load");
    handle_load(batch[0].conn, batch[0].req);
    self.idle();
    return;
  }
  counter("serve.batches").inc();
  counter("serve.batch.coalesced").add(batch.size() - 1);
  ResidentPtr resident = registry_.get(batch[0].req.circuit);
  if (resident == nullptr) {
    for (const Pending& p : batch) {
      counter("serve.errors").inc();
      send(p.conn,
           error_response(p.req.id, Op::kCheck, "unknown_circuit",
                          "no circuit named \"" + p.req.circuit +
                              "\" (load it first)"));
    }
    return;
  }
  resident->stats().batches.fetch_add(1, std::memory_order_relaxed);
  run_checks(resident, std::move(batch));
}

void Server::run_checks(const ResidentPtr& resident,
                        std::vector<Pending> group) {
  const Circuit& c = resident->circuit();
  Verifier& v = resident->verifier();

  // Requests whose deadline passed while queued: answered without running.
  std::vector<Pending> live;
  live.reserve(group.size());
  const std::uint64_t now = telemetry::monotonic_ns();
  bool queue_expired = false;
  for (Pending& p : group) {
    if (p.expiry_ns != 0 && now >= p.expiry_ns) {
      counter("serve.deadline_expired").inc();
      counter("serve.errors").inc();
      send(p.conn, error_response(p.req.id, Op::kCheck, "deadline_expired",
                                  "deadline passed while queued"));
      queue_expired = true;
    } else if (!Circuit::delta_in_range(p.req.delta,
                                        resident->longest_path())) {
      counter("serve.errors").inc();
      send(p.conn,
           error_response(p.req.id, Op::kCheck, "out_of_range",
                          "delta " + std::to_string(p.req.delta) +
                              " plus the longest delay path of circuit \"" +
                              p.req.circuit +
                              "\" leaves the finite time range"));
    } else {
      live.push_back(std::move(p));
    }
  }
  if (queue_expired) {
    // A request that rotted in the queue means the worker fell behind its
    // clients; the rings say on what.
    flight::dump_blackbox("deadline_expired");
  }
  if (live.empty()) return;
  resident->ensure_prepared();
  ResidentStats& rstats = resident->stats();
  auto& reg = telemetry::Registry::global();

  // Dedup identical work within the batch: one engine run per distinct
  // (delta, output), fanned out to every requester. First-seen order.
  std::map<std::pair<std::int64_t, std::string>, std::size_t> index;
  std::vector<std::vector<Pending>> unique_runs;
  for (Pending& p : live) {
    const auto key = std::make_pair(p.req.delta, p.req.output);
    const auto it = index.find(key);
    if (it == index.end()) {
      index.emplace(key, unique_runs.size());
      unique_runs.push_back({});
      unique_runs.back().push_back(std::move(p));
    } else {
      counter("serve.batch.deduped").inc();
      rstats.deduped.fetch_add(1, std::memory_order_relaxed);
      unique_runs[it->second].push_back(std::move(p));
    }
  }
  flight::record(flight::Kind::kServeBatch, resident->name(),
                 static_cast<std::int64_t>(live.size()),
                 static_cast<std::int64_t>(unique_runs.size()));

  for (std::vector<Pending>& run : unique_runs) {
    // The run's deadline is the loosest among its requesters: a no-deadline
    // requester keeps the run unbounded, otherwise the max expiry wins (a
    // tighter requester may receive its answer late rather than never).
    std::uint64_t expiry = 0;
    bool unbounded = false;
    for (const Pending& p : run) {
      if (p.expiry_ns == 0) unbounded = true;
      expiry = std::max(expiry, p.expiry_ns);
    }
    if (unbounded) expiry = 0;

    const Request& rq = run.front().req;
    const Time delta(rq.delta);
    const std::uint64_t run_start_ns = telemetry::monotonic_ns();
    std::string conclusion;
    std::string report;
    if (rq.output.empty()) {
      counter("serve.checks").inc();
      resident->stats().checks.fetch_add(1, std::memory_order_relaxed);
      sched::CheckScheduler& s = resident->scheduler();
      s.token().arm_deadline(expiry);
      v.set_deadline_ns(expiry);
      const SuiteReport rep = s.check_circuit(delta);
      s.token().arm_deadline(0);
      v.set_deadline_ns(0);
      conclusion = to_string(rep.conclusion);
      report = canonical_json(c, rep);
    } else {
      const auto net = c.find_net(rq.output);
      if (!net) {
        for (const Pending& p : run) {
          counter("serve.errors").inc();
          send(p.conn,
               error_response(p.req.id, Op::kCheck, "unknown_output",
                              "circuit \"" + p.req.circuit +
                                  "\" has no net \"" + rq.output + "\""));
        }
        continue;
      }
      counter("serve.checks").inc();
      resident->stats().checks.fetch_add(1, std::memory_order_relaxed);
      v.set_deadline_ns(expiry);
      const CheckReport rep = v.check_output(*net, delta);
      v.set_deadline_ns(0);
      conclusion = to_string(rep.conclusion);
      report = canonical_json(c, rep);
    }

    const std::uint64_t done_ns = telemetry::monotonic_ns();
    bool run_expired = false;
    for (const Pending& p : run) {
      const bool expired = p.expiry_ns != 0 && done_ns >= p.expiry_ns;
      if (expired) {
        counter("serve.deadline_expired").inc();
        run_expired = true;
      }
      // Latency split at the worker-pickup boundary: `now` (batch pickup)
      // closes the queued leg for every requester; the engine leg is shared
      // by the whole dedup group — a fanned-out requester waited for the
      // same run.
      const std::uint64_t queued_ns = now > p.enqueued_ns
                                          ? now - p.enqueued_ns : 0;
      rstats.requests.fetch_add(1, std::memory_order_relaxed);
      rstats.queued_us.observe_ns(queued_ns);
      rstats.engine_us.observe_ns(done_ns - run_start_ns);
      reg.time_histogram("serve.latency.queued_us").observe_ns(queued_ns);
      reg.time_histogram("serve.latency.engine_us")
          .observe_ns(done_ns - run_start_ns);
      ResponseWriter w = ok_response(p.req.id, Op::kCheck);
      w.field("circuit", p.req.circuit);
      w.field("delta", p.req.delta);
      if (!p.req.output.empty()) w.field("output", p.req.output);
      w.field("conclusion", conclusion);
      w.field("deadline_expired", expired);
      // "report" is deliberately last: its raw bytes run to the final
      // closing brace, so clients can slice them out for byte comparison
      // against `waveck check --json --canon`.
      w.raw("report", report);
      send(p.conn, std::move(w).done());
    }
    if (run_expired) flight::dump_blackbox("deadline_expired");
  }
}

void Server::run_stall(const Pending& p) {
  // Deliberately wedge: occupy the worker without advancing any progress
  // tick, so the supervisor's watchdog has something real to detect.
  flight::record(flight::Kind::kMark, "debug_stall",
                 static_cast<std::int64_t>(p.req.stall_ms));
  flight::Slot& self = flight::self();
  self.busy("debug_stall");
  std::this_thread::sleep_for(std::chrono::milliseconds(p.req.stall_ms));
  self.idle();
  ResponseWriter w = ok_response(p.req.id, Op::kDebugStall);
  w.field("stalled_ms", p.req.stall_ms);
  send(p.conn, std::move(w).done());
}

void Server::send(const std::shared_ptr<Connection>& conn,
                  const std::string& line) {
  counter("serve.responses").inc();
  // Pull "op" and "ok" back out of the rendered envelope — the fixed key
  // order (id, op, ok) makes this two finds near the start, not a parse.
  std::string_view op = "?";
  const std::size_t k = line.find("\"op\":\"");
  if (k != std::string::npos) {
    const std::size_t v = k + 6;
    const std::size_t e = line.find('"', v);
    if (e != std::string::npos) op = std::string_view(line).substr(v, e - v);
  }
  const bool ok = line.find("\"ok\":true") != std::string::npos;
  flight::record(flight::Kind::kServeResponse, op,
                 static_cast<std::int64_t>(line.size()), 0, ok ? 1 : 0);
  conn->write_line(line);
}

std::string Server::list_response(const std::string& id) {
  const std::vector<ResidentInfo> infos = registry_.list();
  std::string arr = "[";
  for (std::size_t i = 0; i < infos.size(); ++i) {
    const ResidentInfo& info = infos[i];
    if (i > 0) arr += ",";
    arr += "{\"name\":\"" + telemetry::json_escape(info.name) +
           "\",\"hash\":\"" + info.hash +
           "\",\"nets\":" + std::to_string(info.nets) +
           ",\"gates\":" + std::to_string(info.gates) +
           ",\"inputs\":" + std::to_string(info.inputs) +
           ",\"outputs\":" + std::to_string(info.outputs) +
           ",\"checks\":" + std::to_string(info.checks) + "}";
  }
  arr += "]";
  ResponseWriter w = ok_response(id, Op::kList);
  w.field("resident", static_cast<std::uint64_t>(infos.size()));
  w.raw("circuits", arr);
  return std::move(w).done();
}

namespace {

/// Counters surfaced by the stats op, the structured exit line and the
/// stall line; "serve.requests" becomes field "requests" (the +6 below).
constexpr const char* kStatKeys[] = {
    "serve.requests",       "serve.responses",
    "serve.errors",         "serve.overloaded",
    "serve.deadline_expired", "serve.checks",
    "serve.batches",        "serve.batch.coalesced",
    "serve.batch.deduped",  "serve.loads",
    "serve.unloads",        "serve.prepare.runs",
};

std::string fmt3(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

/// Prometheus label-value escaping: backslash, quote, newline.
std::string prom_label(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') { out += "\\n"; continue; }
    out += c;
  }
  return out;
}

}  // namespace

double Server::uptime_s() const {
  return static_cast<double>(telemetry::monotonic_ns() - start_ns_) * 1e-9;
}

std::string Server::stats_response(const std::string& id) {
  auto& reg = telemetry::Registry::global();
  ResponseWriter w = ok_response(id, Op::kStats);
  w.field("resident", static_cast<std::uint64_t>(registry_.size()));
  w.field("uptime_s", uptime_s());
  for (const char* key : kStatKeys) {
    w.field(key + 6, reg.counter(key).value());
  }
  w.field("queue_depth",
          static_cast<std::int64_t>(reg.gauge("serve.queue_depth").value()));
  w.field("queue_depth_hw",
          static_cast<std::int64_t>(
              reg.gauge("serve.queue_depth").high_water()));
  w.field("queue_cap", static_cast<std::uint64_t>(opt_.queue_cap));
  // Batching effectiveness as ratios, not just raw counters: avg_batch is
  // check requests per worker wakeup, dedup_ratio the fraction of batched
  // requests that rode a twin's engine run.
  const double batches =
      static_cast<double>(reg.counter("serve.batches").value());
  const double coalesced =
      static_cast<double>(reg.counter("serve.batch.coalesced").value());
  const double deduped =
      static_cast<double>(reg.counter("serve.batch.deduped").value());
  w.field("avg_batch", batches > 0.0 ? (batches + coalesced) / batches : 0.0);
  w.field("dedup_ratio",
          batches + coalesced > 0.0 ? deduped / (batches + coalesced) : 0.0);
  // Resident table: per-namespace request counts and latency quantiles.
  std::string arr = "[";
  bool first = true;
  for (const ResidentPtr& r : registry_.snapshot()) {
    const ResidentStats& s = r->stats();
    if (!first) arr += ",";
    first = false;
    arr += "{\"name\":\"" + telemetry::json_escape(r->name()) +
           "\",\"hash\":\"" + r->hash() +
           "\",\"checks\":" +
           std::to_string(s.checks.load(std::memory_order_relaxed)) +
           ",\"requests\":" +
           std::to_string(s.requests.load(std::memory_order_relaxed)) +
           ",\"deduped\":" +
           std::to_string(s.deduped.load(std::memory_order_relaxed)) +
           ",\"batches\":" +
           std::to_string(s.batches.load(std::memory_order_relaxed)) +
           ",\"queued_p50_us\":" + fmt3(s.queued_us.quantile_us(0.50)) +
           ",\"queued_p99_us\":" + fmt3(s.queued_us.quantile_us(0.99)) +
           ",\"engine_p50_us\":" + fmt3(s.engine_us.quantile_us(0.50)) +
           ",\"engine_p99_us\":" + fmt3(s.engine_us.quantile_us(0.99)) + "}";
  }
  arr += "]";
  w.raw("circuits", arr);
  return std::move(w).done();
}

std::string Server::metrics_response(const std::string& id,
                                     const std::string& format) {
  auto& reg = telemetry::Registry::global();
  const std::vector<ResidentPtr> residents = registry_.snapshot();
  if (format == "prometheus") {
    // Full exposition text, shipped as one escaped string field: clients
    // (`waveck client metrics --format prometheus`, the CI scraper) unwrap
    // "body" and hand it to a Prometheus parser verbatim.
    std::string body = reg.to_prometheus("waveck");
    if (!residents.empty()) {
      body += "# TYPE waveck_serve_namespace_requests_total counter\n";
      for (const ResidentPtr& r : residents) {
        const ResidentStats& s = r->stats();
        const std::string lbl = "circuit=\"" + prom_label(r->name()) + "\"";
        body += "waveck_serve_namespace_requests_total{" + lbl + "} " +
                std::to_string(s.requests.load(std::memory_order_relaxed)) +
                "\n";
      }
      body += "# TYPE waveck_serve_namespace_deduped_total counter\n";
      for (const ResidentPtr& r : residents) {
        const ResidentStats& s = r->stats();
        const std::string lbl = "circuit=\"" + prom_label(r->name()) + "\"";
        body += "waveck_serve_namespace_deduped_total{" + lbl + "} " +
                std::to_string(s.deduped.load(std::memory_order_relaxed)) +
                "\n";
      }
      body += "# TYPE waveck_serve_namespace_latency_us histogram\n";
      for (const ResidentPtr& r : residents) {
        const ResidentStats& s = r->stats();
        const std::string lbl = "circuit=\"" + prom_label(r->name()) + "\"";
        body += telemetry::histogram_prometheus(
            "waveck_serve_namespace_latency_us", lbl + ",leg=\"queued\"",
            s.queued_us);
        body += telemetry::histogram_prometheus(
            "waveck_serve_namespace_latency_us", lbl + ",leg=\"engine\"",
            s.engine_us);
      }
    }
    ResponseWriter w = ok_response(id, Op::kMetrics);
    w.field("format", "prometheus");
    w.field("uptime_s", uptime_s());
    w.field("body", body);
    return std::move(w).done();
  }
  ResponseWriter w = ok_response(id, Op::kMetrics);
  w.field("format", "json");
  w.field("uptime_s", uptime_s());
  w.raw("registry", reg.to_json());
  std::string arr = "[";
  bool first = true;
  for (const ResidentPtr& r : residents) {
    const ResidentStats& s = r->stats();
    if (!first) arr += ",";
    first = false;
    arr += "{\"name\":\"" + telemetry::json_escape(r->name()) +
           "\",\"requests\":" +
           std::to_string(s.requests.load(std::memory_order_relaxed)) +
           ",\"deduped\":" +
           std::to_string(s.deduped.load(std::memory_order_relaxed)) +
           ",\"queued_us\":" + telemetry::histogram_json(s.queued_us) +
           ",\"engine_us\":" + telemetry::histogram_json(s.engine_us) + "}";
  }
  arr += "]";
  w.raw("namespaces", arr);
  return std::move(w).done();
}

std::string Server::stats_json() {
  auto& reg = telemetry::Registry::global();
  std::string out = "{";
  for (const char* key : kStatKeys) {
    out += "\"";
    out += key + 6;
    out += "\":" + std::to_string(reg.counter(key).value()) + ",";
  }
  out += "\"queue_depth_hw\":" +
         std::to_string(reg.gauge("serve.queue_depth").high_water()) +
         ",\"resident\":" + std::to_string(registry_.size()) +
         ",\"uptime_s\":" + fmt3(uptime_s()) + "}";
  return out;
}

void Server::final_stats_line() {
  // Human prefix, machine payload: `grep waveck-serve:` still works, and
  // everything after "exiting " is one parseable JSON object — the same
  // shape the watchdog's "stalled" line carries.
  std::cerr << "waveck-serve: exiting " << stats_json() << "\n";
}

}  // namespace waveck::serve
