// Deadline plumbing (serve PR): an absolute monotonic expiry armed on a
// CancellationToken or a Verifier must turn a running check into a clean
// kAbandoned — never a wrong verdict, never a wedged worker — and must not
// poison later checks on the same resident state once cleared.
#include <string>

#include <gtest/gtest.h>

#include "gen/generators.hpp"
#include "gen/iscas_suite.hpp"
#include "netlist/circuit.hpp"
#include "prof/perf_counters.hpp"
#include "sched/cancellation.hpp"
#include "sched/check_scheduler.hpp"
#include "verify/report_io.hpp"
#include "verify/verifier.hpp"

namespace waveck {
namespace {

using sched::CancellationToken;
using sched::CheckScheduler;
using sched::ScheduleOptions;

constexpr std::uint64_t kHourNs = 3'600'000'000'000ull;

TEST(CancellationDeadline, PollLatchesCancelOnExpiry) {
  CancellationToken t;
  EXPECT_FALSE(t.poll());  // unarmed: poll is plain cancelled()
  EXPECT_FALSE(t.cancelled());

  t.arm_deadline(telemetry::monotonic_ns() + kHourNs);
  EXPECT_FALSE(t.poll());  // future deadline: still live
  EXPECT_FALSE(t.cancelled());

  t.arm_deadline(1);  // 1ns after the monotonic epoch: long past
  EXPECT_TRUE(t.poll());
  EXPECT_TRUE(t.cancelled());  // poll() latched the flag
}

TEST(CancellationDeadline, ResetClearsCancelButKeepsDeadline) {
  CancellationToken t;
  t.arm_deadline(1);
  EXPECT_TRUE(t.poll());

  // Batch boundary semantics: reset() re-arms the flag, the deadline stays
  // until explicitly re-armed — the next poll latches again.
  t.reset();
  EXPECT_FALSE(t.cancelled());
  EXPECT_EQ(t.deadline_ns(), 1u);
  EXPECT_TRUE(t.poll());

  t.arm_deadline(0);  // disarm
  t.reset();
  EXPECT_FALSE(t.poll());
  EXPECT_FALSE(t.cancelled());
}

TEST(VerifierDeadline, ExpiredDeadlineAbandonsAndClearingRecovers) {
  Circuit c = gen::carry_skip_adder(16, 4);
  c.set_uniform_delay(DelaySpec::fixed(10));

  Verifier fresh(c);
  const auto exact = fresh.exact_floating_delay();
  ASSERT_TRUE(exact.exact);
  const std::string want =
      canonical_json(c, fresh.check_circuit(exact.delay + 1));

  Verifier v(c);
  v.set_deadline_ns(1);  // already expired: every stage boundary bails
  const SuiteReport abandoned = v.check_circuit(exact.delay + 1);
  EXPECT_EQ(abandoned.conclusion, CheckConclusion::kAbandoned);

  // The resident-verifier contract: clearing the deadline fully restores
  // the instance — the rerun is byte-identical to a fresh serial check.
  v.set_deadline_ns(0);
  EXPECT_EQ(canonical_json(c, v.check_circuit(exact.delay + 1)), want);
}

TEST(VerifierDeadline, MidSearchExpiryReturnsAbandoned) {
  // The Table-1 multiplier (16x16 array, carry-skip final row) just above
  // its hard refutation band: proving N at delta 500 takes several seconds
  // of case analysis, so a 50ms deadline expires deep inside the search —
  // not at a stage boundary — and must surface as a clean kAbandoned.
  Circuit c = gen::build_raw("c6288");
  c.set_uniform_delay(DelaySpec::fixed(10));

  Verifier v(c);
  v.set_deadline_ns(telemetry::monotonic_ns() + 50'000'000ull);  // +50ms
  const std::uint64_t t0 = telemetry::monotonic_ns();
  const SuiteReport rep = v.check_circuit(Time(500));
  const std::uint64_t elapsed = telemetry::monotonic_ns() - t0;

  EXPECT_EQ(rep.conclusion, CheckConclusion::kAbandoned);
  // The deadline must actually have cut the search short (the undeadlined
  // check runs for seconds; allow slack for prepare_shared + a slow box).
  EXPECT_LT(elapsed, 5'000'000'000ull) << "deadline did not stop the search";
}

TEST(SchedulerDeadline, ExpiredTokenDeadlineAbandonsSuite) {
  Circuit c = gen::carry_skip_adder(16, 4);
  c.set_uniform_delay(DelaySpec::fixed(10));
  Verifier probe(c);
  const auto exact = probe.exact_floating_delay();
  ASSERT_TRUE(exact.exact);
  const std::string want =
      canonical_json(c, probe.check_circuit(exact.delay + 1));

  CheckScheduler s(c, VerifyOptions{}, ScheduleOptions{.jobs = 2});
  s.token().arm_deadline(1);  // long past: every job skips via poll()
  const SuiteReport abandoned = s.check_circuit(exact.delay + 1);
  EXPECT_EQ(abandoned.conclusion, CheckConclusion::kAbandoned);

  // Disarm; the scheduler's own per-batch reset() clears the latched flag,
  // and the rerun matches the serial byte-for-byte (determinism contract).
  s.token().arm_deadline(0);
  EXPECT_EQ(canonical_json(c, s.check_circuit(exact.delay + 1)), want);
}

}  // namespace
}  // namespace waveck
