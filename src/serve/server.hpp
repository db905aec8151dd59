// waveck serve: a long-lived timing-check daemon (ROADMAP item 1).
//
// One process loads circuits once and answers check requests over a socket,
// so interactive callers (editors, regression drivers, parameter sweeps)
// stop paying the per-invocation cost the offline CLI pays every time:
// netlist parse, decomposition, static learning, SCOAP, stem enumeration,
// carrier-cache warmup. Those all live in the resident Verifier
// (serve/registry.hpp) and are reused across requests.
//
// Architecture (doc/SERVE.md):
//   * IO thread — poll() over the listeners, a self-pipe and every client
//     connection. Parses JSONL requests; answers cheap control ops (ping,
//     list, stats, unload, shutdown) inline; enqueues load and check work
//     (a netlist load parses and decomposes a whole circuit, so it runs on
//     the worker — the poll loop stays responsive throughout).
//   * Bounded queue — admission control. A request that arrives when
//     `queue_cap` checks are already pending is rejected immediately with
//     an `overloaded` error: the daemon never buffers unboundedly and a
//     client never hangs on a silently parked request.
//   * Worker thread — pops a check, coalesces every queued request for the
//     same circuit into one batch (up to `max_batch`), dedups identical
//     (delta, output) pairs within it (one engine run fans out to every
//     requester), and runs them through the resident scheduler/verifier.
//     Per-request deadlines map onto the engine deadline plumbing
//     (sched/cancellation.hpp): a request expired in the queue is answered
//     `deadline_expired` without running; one that expires mid-run comes
//     back conclusion "A" — the worker itself always survives.
//   * Supervisor — with `heartbeat_s > 0` a prof::ProgressMonitor thread
//     watches the threads' flight-recorder slots: periodic status lines to
//     stderr plus a `watchdog_stall` snapshot when the worker stops making
//     progress.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/registry.hpp"

namespace waveck::prof {
class ProgressMonitor;
}  // namespace waveck::prof

namespace waveck::serve {

struct ServeOptions {
  /// Unix-domain socket path ("" = no UDS listener). A stale socket file
  /// at the path (nothing accepting) is replaced; if a live server answers
  /// there, start() refuses rather than steal the path.
  std::string socket_path;
  /// TCP listener on loopback (0 = no TCP listener; -1 = ephemeral port,
  /// readable from Server::tcp_port() after start()).
  int tcp_port = 0;
  /// Admission control: pending checks beyond this are rejected with
  /// `overloaded`.
  std::size_t queue_cap = 64;
  /// Scheduler fan-out inside a whole-circuit check (1 = serial).
  std::size_t jobs = 1;
  /// Deadline applied to check requests that carry no timeout_ms
  /// (0 = none).
  std::uint64_t default_timeout_ms = 0;
  /// Max requests coalesced into one worker batch.
  std::size_t max_batch = 16;
  /// Supervisor heartbeat interval in seconds (0 = no supervisor).
  double heartbeat_s = 0.0;
  /// No-progress window before a watchdog snapshot (0 = monitor default).
  double stall_s = 0.0;
  /// Allow the debug_stall op (tests/CI only: wedges the worker on demand).
  bool enable_debug_ops = false;
  /// Install SIGTERM/SIGINT handlers that trigger a clean shutdown (the
  /// CLI sets this; in-process tests do not).
  bool handle_signals = false;
  /// Flight-recorder blackbox directory ("" = post-mortem dumps disabled).
  /// When set, start() arms flight::set_blackbox_dir and the fatal-signal
  /// handlers, so watchdog stalls, deadline expiries, load shedding and
  /// crashes all leave an explain-loadable dump behind.
  std::string blackbox_dir;
};

class Server {
 public:
  explicit Server(ServeOptions opt);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listeners, spawns the worker (and supervisor, if enabled).
  /// False + `*err` on failure; the server is then inert.
  bool start(std::string* err);

  /// IO loop; blocks until request_shutdown() (or a handled signal), then
  /// drains, joins the worker, and writes the final stats line to stderr.
  void run();

  /// Triggers a clean shutdown from any thread (async-signal-safe).
  void request_shutdown();

  /// Actual TCP port after start() (ephemeral binds resolve here).
  [[nodiscard]] int tcp_port() const { return tcp_port_; }
  [[nodiscard]] CircuitRegistry& registry() { return registry_; }

 private:
  struct Connection;
  struct Pending;

  // --- IO thread ---------------------------------------------------------
  bool bind_unix(std::string* err);
  bool bind_tcp(std::string* err);
  void handle_readable(const std::shared_ptr<Connection>& conn);
  void handle_line(const std::shared_ptr<Connection>& conn,
                   const std::string& line);
  void enqueue(const std::shared_ptr<Connection>& conn, const Request& req);
  [[nodiscard]] std::string stats_response(const std::string& id);
  [[nodiscard]] std::string metrics_response(const std::string& id,
                                             const std::string& format);
  [[nodiscard]] std::string list_response(const std::string& id);

  // --- worker thread ------------------------------------------------------
  void worker_loop();
  void run_batch(std::vector<Pending> batch);
  void handle_load(const std::shared_ptr<Connection>& conn,
                   const Request& req);
  void run_checks(const ResidentPtr& resident, std::vector<Pending> group);
  void run_stall(const Pending& p);

  void send(const std::shared_ptr<Connection>& conn, const std::string& line);
  /// Compact JSON object with the headline counters — the payload of the
  /// final stderr line, and of the watchdog's on_stall line.
  [[nodiscard]] std::string stats_json();
  [[nodiscard]] double uptime_s() const;
  void final_stats_line();

  ServeOptions opt_;
  CircuitRegistry registry_;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_ = 0;
  int wake_pipe_[2] = {-1, -1};  // self-pipe: signals/shutdown -> poll()

  std::vector<std::shared_ptr<Connection>> conns_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  bool stop_worker_ = false;
  std::thread worker_;
  std::unique_ptr<prof::ProgressMonitor> monitor_;

  /// Installed as every resident verifier's cancel flag — at
  /// ResidentCircuit construction, before the entry is published, so no
  /// check can race the installation. Shutdown aborts the in-flight case
  /// analysis at its next decision boundary.
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::uint64_t start_ns_ = 0;  // monotonic_ns at start(); uptime base
};

}  // namespace waveck::serve
