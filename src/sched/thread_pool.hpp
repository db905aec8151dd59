// Fixed-size work-stealing thread pool.
//
// Jobs of a batch are distributed round-robin across per-worker deques;
// each worker pops from the back of its own deque (most recently pushed
// first) and, when empty, steals from the front of a sibling's, so a
// worker stuck on one long check cannot strand the jobs queued behind it.
// The deques are mutex-guarded: jobs here are whole timing checks
// (milliseconds to minutes), so queue-operation cost is irrelevant next to
// job cost and the simple locking discipline keeps the pool trivially
// TSan-clean.
//
// The pool is batch-oriented: `run(jobs)` blocks the calling thread until
// every job of the batch has executed, and may be called repeatedly (the
// exact-delay search reuses one pool across all probes). Worker threads
// are started once in the constructor and parked on a condition variable
// between batches. Each worker writes its 1-based worker id into its
// flight::Slot (the calling thread keeps id 0), so JSONL trace events,
// flight records and heartbeat lines from inside jobs stay attributable.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace waveck::sched {

class ThreadPool {
 public:
  /// A job receives the index of the worker executing it (0-based).
  using Job = std::function<void(std::size_t)>;

  /// Starts `workers` threads; 0 means hardware_workers().
  explicit ThreadPool(std::size_t workers = 0);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  [[nodiscard]] std::size_t worker_count() const { return shards_.size(); }
  [[nodiscard]] static std::size_t hardware_workers();

  /// Runs the batch to completion. Must not be called concurrently with
  /// itself (one batch at a time; the scheduler serializes suite runs).
  void run(std::vector<Job> jobs);

 private:
  struct Shard {
    std::mutex mu;
    std::deque<Job> jobs;
  };

  bool try_run_one(std::size_t self);
  void worker_main(std::size_t self);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> threads_;

  std::mutex mu_;                  // guards pending_/unclaimed_/stop_ + CVs
  std::condition_variable wake_;   // workers: work available or stopping
  std::condition_variable done_;   // caller: batch finished
  std::size_t pending_ = 0;        // jobs not yet finished
  std::size_t unclaimed_ = 0;      // jobs not yet popped from any deque
  bool stop_ = false;
};

}  // namespace waveck::sched
