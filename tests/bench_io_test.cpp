#include "netlist/bench_io.hpp"

#include <gtest/gtest.h>

#include "common/diagnostics.hpp"
#include "gen/generators.hpp"
#include "gen/iscas_suite.hpp"

namespace waveck {
namespace {

constexpr const char* kC17 = R"(# c17
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
)";

TEST(BenchIo, ParseC17) {
  const Circuit c = read_bench_string(kC17, "c17");
  EXPECT_EQ(c.num_gates(), 6u);
  EXPECT_EQ(c.inputs().size(), 5u);
  EXPECT_EQ(c.outputs().size(), 2u);
  for (GateId g : c.all_gates()) {
    EXPECT_EQ(c.gate(g).type, GateType::kNand);
  }
}

TEST(BenchIo, ParsedC17MatchesEmbeddedGenerator) {
  const Circuit parsed = read_bench_string(kC17, "c17");
  const Circuit built = gen::c17();
  EXPECT_EQ(parsed.num_gates(), built.num_gates());
  EXPECT_EQ(parsed.num_nets(), built.num_nets());
  EXPECT_EQ(parsed.inputs().size(), built.inputs().size());
}

TEST(BenchIo, RoundTrip) {
  const Circuit c = read_bench_string(kC17, "c17");
  const std::string text = write_bench_string(c);
  const Circuit c2 = read_bench_string(text, "c17");
  EXPECT_EQ(c2.num_gates(), c.num_gates());
  EXPECT_EQ(c2.num_nets(), c.num_nets());
  EXPECT_EQ(c2.inputs().size(), c.inputs().size());
  EXPECT_EQ(c2.outputs().size(), c.outputs().size());
  // Second round trip is textually stable.
  EXPECT_EQ(write_bench_string(c2), text);
}

TEST(BenchIo, AllGateKeywords) {
  const Circuit c = read_bench_string(R"(
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
t1 = AND(a, b)
t2 = OR(a, b)
t3 = XOR(t1, t2)
t4 = XNOR(t1, t2)
t5 = NOT(t3)
t6 = INV(t4)
t7 = BUF(t5)
t8 = BUFF(t6)
t9 = DELAY(t7)
t10 = MUX(c, t8, t9)
t11 = NOR(t9, t10)
z = NAND(t10, t11)
)");
  EXPECT_EQ(c.num_gates(), 12u);
  EXPECT_EQ(c.gate(c.net(*c.find_net("t10")).driver).type, GateType::kMux);
}

TEST(BenchIo, CaseInsensitiveKeywords) {
  const Circuit c = read_bench_string(
      "input(a)\noutput(z)\nz = nand(a, a)\n");
  EXPECT_EQ(c.num_gates(), 1u);
  EXPECT_EQ(c.gate(GateId{0u}).type, GateType::kNand);
}

TEST(BenchIo, CommentsAndBlanksIgnored) {
  const Circuit c = read_bench_string(
      "# header\n\nINPUT(a)  # trailing\nOUTPUT(z)\nz = BUF(a)\n\n");
  EXPECT_EQ(c.num_gates(), 1u);
}

TEST(BenchIo, RejectsSequential) {
  EXPECT_THROW(
      read_bench_string("INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n"),
      ParseError);
}

TEST(BenchIo, RejectsUnknownKeyword) {
  EXPECT_THROW(read_bench_string("INPUT(a)\nz = FROB(a)\n"), ParseError);
}

TEST(BenchIo, RejectsMalformed) {
  EXPECT_THROW(read_bench_string("INPUT a\n"), ParseError);
  EXPECT_THROW(read_bench_string("z = AND(a, b\n"), ParseError);
  EXPECT_THROW(read_bench_string("z AND(a, b)\n"), ParseError);
  EXPECT_THROW(read_bench_string("INPUT(a)\nz = AND()\n"), ParseError);
}

TEST(BenchIo, RejectsUndrivenNet) {
  // `b` never defined and not an input: structural error at finalize.
  EXPECT_THROW(read_bench_string("INPUT(a)\nOUTPUT(z)\nz = AND(a, b)\n"),
               CircuitError);
}

TEST(BenchIo, RoundTripSuiteCircuitsAtScale) {
  // Write -> read -> write must be stable for every generated benchmark,
  // including the NOR-mapped multi-thousand-gate ones.
  for (const char* name : {"c432", "c1908", "c2670"}) {
    const Circuit raw = gen::build_raw(name);
    const std::string text = write_bench_string(raw);
    const Circuit back = read_bench_string(text, raw.name());
    EXPECT_EQ(back.num_gates(), raw.num_gates()) << name;
    EXPECT_EQ(back.num_nets(), raw.num_nets()) << name;
    EXPECT_EQ(write_bench_string(back), text) << name;
  }
}

TEST(BenchIo, RejectsNetlistWithoutOutputs) {
  for (const char* text : {"", "# only a comment\n\n", "INPUT(a)\n"}) {
    try {
      (void)read_bench_string(text, "empty.bench");
      FAIL() << "expected ParseError for \"" << text << "\"";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("empty.bench:"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("no OUTPUT declared"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(BenchIo, RejectsDuplicateDeclarations) {
  const struct {
    const char* text;
    int line;
    const char* what;
  } cases[] = {
      {"INPUT(a)\nINPUT(a)\nOUTPUT(z)\nz = NOT(a)\n", 2, "duplicate INPUT(a)"},
      {"INPUT(a)\nOUTPUT(z)\nz = NOT(a)\noutput(z)\n", 4,
       "duplicate OUTPUT(z)"},
  };
  for (const auto& tc : cases) {
    try {
      (void)read_bench_string(tc.text, "dup.bench");
      FAIL() << "expected ParseError for " << tc.what;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), tc.line) << e.what();
      EXPECT_EQ(std::string(e.what()),
                "dup.bench:" + std::to_string(tc.line) + ": " + tc.what);
    }
  }
  // A net that is both an input and an output is still one declaration each.
  const Circuit c = read_bench_string("INPUT(a)\nOUTPUT(a)\n");
  EXPECT_EQ(c.inputs().size(), 1u);
  EXPECT_EQ(c.outputs().size(), 1u);
}

TEST(BenchIo, ParseErrorCarriesLineNumber) {
  try {
    read_bench_string("INPUT(a)\nOUTPUT(z)\nz = FROB(a)\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

}  // namespace
}  // namespace waveck
