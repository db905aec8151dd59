#include "sched/thread_pool.hpp"

#include <algorithm>

#include "common/flight_recorder.hpp"

namespace waveck::sched {

std::size_t ThreadPool::hardware_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t workers) {
  const std::size_t n = workers == 0 ? hardware_workers() : workers;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& t : threads_) t.join();
}

bool ThreadPool::try_run_one(std::size_t self) {
  Job job;
  // Own deque first (back = most recently pushed), then steal from the
  // front of the first non-empty sibling, scanning outward from self.
  {
    Shard& own = *shards_[self];
    const std::scoped_lock lock(own.mu);
    if (!own.jobs.empty()) {
      job = std::move(own.jobs.back());
      own.jobs.pop_back();
    }
  }
  if (!job) {
    for (std::size_t k = 1; k < shards_.size() && !job; ++k) {
      Shard& victim = *shards_[(self + k) % shards_.size()];
      const std::scoped_lock lock(victim.mu);
      if (!victim.jobs.empty()) {
        job = std::move(victim.jobs.front());
        victim.jobs.pop_front();
      }
    }
  }
  if (!job) return false;
  job(self);
  {
    const std::scoped_lock lock(mu_);
    if (--pending_ == 0) done_.notify_all();
  }
  return true;
}

void ThreadPool::worker_main(std::size_t self) {
  flight::self().worker.store(static_cast<int>(self) + 1,
                              std::memory_order_relaxed);
  for (;;) {
    {
      std::unique_lock lock(mu_);
      wake_.wait(lock, [this] { return stop_ || unclaimed_ > 0; });
      if (stop_) return;
      --unclaimed_;  // claim one job before leaving the lock
    }
    // The claim guarantees a job is available in some deque: claims never
    // exceed enqueued jobs and each claimant pops at most one, so the scan
    // in try_run_one cannot come back empty.
    try_run_one(self);
  }
}

void ThreadPool::run(std::vector<Job> jobs) {
  if (jobs.empty()) return;
  const std::size_t n = jobs.size();
  {
    const std::scoped_lock lock(mu_);
    pending_ += n;
  }
  for (std::size_t i = 0; i < n; ++i) {
    Shard& shard = *shards_[i % shards_.size()];
    const std::scoped_lock lock(shard.mu);
    shard.jobs.push_back(std::move(jobs[i]));
  }
  {
    // Claims are published only after every job is in a deque, so a woken
    // worker's claim always finds a job (see worker_main).
    const std::scoped_lock lock(mu_);
    unclaimed_ += n;
  }
  wake_.notify_all();
  std::unique_lock lock(mu_);
  done_.wait(lock, [this] { return pending_ == 0; });
}

}  // namespace waveck::sched
