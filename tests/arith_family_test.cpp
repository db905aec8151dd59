#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "gen/generators.hpp"
#include "netlist/topo_delay.hpp"
#include "sim/floating_sim.hpp"
#include "verify/verifier.hpp"

namespace waveck {
namespace {

std::vector<bool> bits_of(std::uint64_t v, unsigned n) {
  std::vector<bool> out(n);
  for (unsigned i = 0; i < n; ++i) out[i] = (v >> i) & 1;
  return out;
}

std::uint64_t read_word(const Circuit& c, const FloatingResult& r,
                        const std::string& prefix, unsigned n) {
  std::uint64_t v = 0;
  for (unsigned i = 0; i < n; ++i) {
    const auto net = c.find_net(prefix + std::to_string(i));
    EXPECT_TRUE(net.has_value()) << prefix << i;
    if (net) v |= std::uint64_t{r.value[net->index()]} << i;
  }
  return v;
}

// The architecture is held as a std::string, not a const char*: gtest prints
// a parameter into the discovered ctest name, and a pointer's address changes
// from run to run.
class AdderArchitectures
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>> {
 public:
  static Circuit build(const std::string& kind, unsigned bits) {
    if (kind == "ripple") return gen::ripple_carry_adder(bits);
    if (kind == "skip") return gen::carry_skip_adder(bits, 4);
    if (kind == "select") return gen::carry_select_adder(bits, 4);
    return gen::kogge_stone_adder(bits);
  }
};

TEST_P(AdderArchitectures, AddsCorrectly) {
  const auto [kind, bits] = GetParam();
  const Circuit c = build(kind, bits);
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  for (std::uint64_t a = 0; a <= mask; a += (bits > 6 ? 37 : 1)) {
    for (std::uint64_t b = 0; b <= mask; b += (bits > 6 ? 41 : 1)) {
      for (bool cin : {false, true}) {
        auto v = bits_of(a, bits);
        const auto bv = bits_of(b, bits);
        v.insert(v.end(), bv.begin(), bv.end());
        v.push_back(cin);
        const auto r = simulate_floating(c, v);
        const std::uint64_t sum =
            read_word(c, r, "s", bits) |
            (std::uint64_t{r.value[c.find_net("cout")->index()]} << bits);
        ASSERT_EQ(sum, a + b + cin) << kind << " " << a << "+" << b;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Family, AdderArchitectures,
    ::testing::Combine(::testing::Values("ripple", "skip", "select", "ks"),
                       ::testing::Values(4u, 8u)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param));
    });

TEST(AdderArchitectures, KoggeStoneIsLogDepth) {
  Circuit ks = gen::kogge_stone_adder(16);
  Circuit rc = gen::ripple_carry_adder(16);
  ks.set_uniform_delay(DelaySpec::fixed(10));
  rc.set_uniform_delay(DelaySpec::fixed(10));
  EXPECT_LT(topological_delay(ks), topological_delay(rc));
}

TEST(AdderArchitectures, CarrySelectHasFalsePaths) {
  Circuit c = gen::carry_select_adder(8, 4);
  c.set_uniform_delay(DelaySpec::fixed(10));
  const Time exact = exhaustive_floating_delay(c, 17);
  EXPECT_LT(exact, topological_delay(c));
  // The verifier agrees with the oracle end-to-end.
  Verifier v(c);
  const auto res = v.exact_floating_delay();
  ASSERT_TRUE(res.exact);
  EXPECT_EQ(res.delay, exact);
}

TEST(AdderArchitectures, KoggeStoneVerifierMatchesOracle) {
  Circuit c = gen::kogge_stone_adder(6);
  c.set_uniform_delay(DelaySpec::fixed(10));
  Verifier v(c);
  const auto res = v.exact_floating_delay();
  ASSERT_TRUE(res.exact);
  EXPECT_EQ(res.delay, exhaustive_floating_delay(c, 13));
}

TEST(WallaceMultiplier, MultipliesCorrectly) {
  const Circuit c = gen::wallace_multiplier(4);
  for (std::uint64_t a = 0; a < 16; ++a) {
    for (std::uint64_t b = 0; b < 16; ++b) {
      auto v = bits_of(a, 4);
      const auto bv = bits_of(b, 4);
      v.insert(v.end(), bv.begin(), bv.end());
      const auto r = simulate_floating(c, v);
      ASSERT_EQ(read_word(c, r, "p", 8), a * b) << a << "*" << b;
    }
  }
}

TEST(WallaceMultiplier, SpotCheck6x6) {
  const Circuit c = gen::wallace_multiplier(6);
  for (std::uint64_t a : {0ull, 1ull, 33ull, 63ull}) {
    for (std::uint64_t b : {0ull, 7ull, 63ull}) {
      auto v = bits_of(a, 6);
      const auto bv = bits_of(b, 6);
      v.insert(v.end(), bv.begin(), bv.end());
      const auto r = simulate_floating(c, v);
      ASSERT_EQ(read_word(c, r, "p", 12), a * b);
    }
  }
}

TEST(WallaceMultiplier, ReductionNoDeeperThanArrayAt16) {
  // With a plain ripple CPA the final row dominates both architectures;
  // the log-depth 3:2 reduction still keeps Wallace at or below the array
  // once the width is large enough to matter.
  Circuit w = gen::wallace_multiplier(16);
  Circuit arr = gen::array_multiplier(16);
  w.set_uniform_delay(DelaySpec::fixed(10));
  arr.set_uniform_delay(DelaySpec::fixed(10));
  EXPECT_LE(topological_delay(w), topological_delay(arr));
}

}  // namespace
}  // namespace waveck
