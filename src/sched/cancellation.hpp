// Cooperative cancellation for scheduled check batches.
//
// A CancellationToken is a single sticky flag shared between the party that
// decides to stop (a worker that found a witness, or an external caller)
// and the parties that should stop (workers about to claim the next job,
// and — through CaseAnalysisOptions::cancel — the FAN search inside an
// in-flight check, which then concludes kAbandoned; doc/PARALLELISM.md
// spells out how that interacts with suite merging).
#pragma once

#include <atomic>
#include <cstdint>

#include "common/telemetry.hpp"

namespace waveck::sched {

class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Arms an absolute monotonic deadline (telemetry::monotonic_ns clock; 0
  /// disarms). Once the clock passes it, the next poll() latches cancel(),
  /// so workers that only watch `flag()` observe a deadline as a normal
  /// cancellation. Arm between batches, like reset().
  void arm_deadline(std::uint64_t expiry_mono_ns) noexcept {
    deadline_ns_.store(expiry_mono_ns, std::memory_order_release);
  }
  [[nodiscard]] std::uint64_t deadline_ns() const noexcept {
    return deadline_ns_.load(std::memory_order_acquire);
  }
  /// Checks the deadline against the clock, latching cancel() on expiry.
  /// Returns the combined cancelled-or-expired state. Any thread may poll.
  bool poll() noexcept {
    if (cancelled()) return true;
    const std::uint64_t dl = deadline_ns();
    if (dl != 0 && telemetry::monotonic_ns() >= dl) {
      cancel();
      return true;
    }
    return false;
  }

  /// Re-arms the token for the next batch (e.g. the next exact-delay
  /// probe); the deadline, if armed, stays armed. Only call between
  /// batches, never while workers are running.
  void reset() noexcept { cancelled_.store(false, std::memory_order_release); }

  /// The raw flag, for engine layers that poll a plain atomic (the case
  /// analysis takes `const std::atomic<bool>*` to avoid depending on
  /// sched). Lifetime is the token's.
  [[nodiscard]] const std::atomic<bool>& flag() const noexcept {
    return cancelled_;
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<std::uint64_t> deadline_ns_{0};
};

}  // namespace waveck::sched
