#include "netlist/verilog_io.hpp"
#include <sstream>

#include <gtest/gtest.h>

#include "common/diagnostics.hpp"
#include "gen/generators.hpp"
#include "netlist/transforms.hpp"
#include "sim/floating_sim.hpp"

namespace waveck {
namespace {

constexpr const char* kC17V = R"(
// ISCAS c17 in structural Verilog
module c17 (N1, N2, N3, N6, N7, N22, N23);
  input N1, N2, N3, N6, N7;
  output N22, N23;
  wire N10, N11, N16, N19;
  nand NAND2_1 (N10, N1, N3);
  nand NAND2_2 (N11, N3, N6);
  nand NAND2_3 (N16, N2, N11);
  nand NAND2_4 (N19, N11, N7);
  nand NAND2_5 (N22, N10, N16);
  nand NAND2_6 (N23, N16, N19);
endmodule
)";

TEST(VerilogIo, ParseC17) {
  const Circuit c = read_verilog_string(kC17V);
  EXPECT_EQ(c.name(), "c17");
  EXPECT_EQ(c.num_gates(), 6u);
  EXPECT_EQ(c.inputs().size(), 5u);
  EXPECT_EQ(c.outputs().size(), 2u);
}

TEST(VerilogIo, ParsedMatchesBenchVersion) {
  const Circuit v = read_verilog_string(kC17V);
  const Circuit b = gen::c17();
  ASSERT_EQ(v.inputs().size(), b.inputs().size());
  // Functional equivalence over all 32 vectors (port order matches).
  for (unsigned bits = 0; bits < 32; ++bits) {
    std::vector<bool> in(5);
    for (int i = 0; i < 5; ++i) in[i] = (bits >> i) & 1;
    const auto rv = simulate_floating(v, in);
    const auto rb = simulate_floating(b, in);
    for (std::size_t o = 0; o < v.outputs().size(); ++o) {
      EXPECT_EQ(rv.value[v.outputs()[o].index()],
                rb.value[b.outputs()[o].index()])
          << bits;
    }
  }
}

TEST(VerilogIo, InstanceNameOptionalAndCommentsStripped) {
  const Circuit c = read_verilog_string(R"(
module m (a, b, z);
  input a, b; output z;
  /* block
     comment */
  wire t;
  and (t, a, b);  // unnamed instance
  not inv1 (z, t);
endmodule
)");
  EXPECT_EQ(c.num_gates(), 2u);
}

TEST(VerilogIo, MultiLineStatements) {
  const Circuit c = read_verilog_string(
      "module m (a,\n  b, z);\n input a,\n b;\n output\n z;\n"
      " nand g1 (z,\n  a, b)\n ;\nendmodule\n");
  EXPECT_EQ(c.num_gates(), 1u);
}

TEST(VerilogIo, RejectsUnsupportedConstructs) {
  EXPECT_THROW(read_verilog_string(
                   "module m (a, z); input a; output z;\n"
                   "assign z = a;\nendmodule\n"),
               ParseError);
  EXPECT_THROW(read_verilog_string(
                   "module m (a, z); input [3:0] a; output z;\nendmodule\n"),
               ParseError);
  EXPECT_THROW(read_verilog_string("module m (a, z); input a; output z;\n"),
               ParseError);  // missing endmodule
}

TEST(VerilogIo, ErrorsCarryLineNumbers) {
  try {
    read_verilog_string(
        "module m (a, z);\ninput a;\noutput z;\nfrobnicate (z, a);\n"
        "endmodule\n");
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 4);
  }
}

TEST(VerilogIo, RejectsMalformedDeclarations) {
  const struct {
    const char* text;
    int line;
    const char* what;
  } cases[] = {
      {"module m (a, z);\ninput a;\ninput a;\noutput z;\nnot (z, a);\n"
       "endmodule\n",
       3, "duplicate INPUT(a)"},
      {"module m (a, z);\ninput a;\noutput z;\nnot (z, a);\noutput z;\n"
       "endmodule\n",
       5, "duplicate OUTPUT(z)"},
      {"module m (a, b);\ninput a, b,\n  a;\nendmodule\n", 3,
       "duplicate INPUT(a)"},
      {"module m (a, z);\ninput a;\nwire z;\nnot (z, a);\nendmodule\n", 5,
       "no output declared"},
  };
  for (const auto& tc : cases) {
    try {
      (void)read_verilog_string(tc.text, "dup.v");
      FAIL() << "expected ParseError for " << tc.what;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), tc.line) << e.what();
      EXPECT_EQ(std::string(e.what()),
                "dup.v:" + std::to_string(tc.line) + ": " + tc.what);
    }
  }
  // A net that is both an input and an output is one declaration each.
  const Circuit c = read_verilog_string(
      "module m (a);\ninput a;\noutput a;\nendmodule\n");
  EXPECT_EQ(c.inputs().size(), 1u);
  EXPECT_EQ(c.outputs().size(), 1u);
}

TEST(VerilogIo, RoundTrip) {
  const Circuit c = gen::c17();
  const std::string text = write_verilog_string(c);
  const Circuit back = read_verilog_string(text);
  EXPECT_EQ(back.num_gates(), c.num_gates());
  EXPECT_EQ(back.inputs().size(), c.inputs().size());
  EXPECT_EQ(back.outputs().size(), c.outputs().size());
  // And stable on a second pass.
  EXPECT_EQ(write_verilog_string(back), text);
}

TEST(VerilogIo, RoundTripGeneratedCircuits) {
  for (unsigned seed = 1; seed <= 6; ++seed) {
    gen::RandomCircuitConfig cfg;
    cfg.inputs = 6;
    cfg.gates = 25;
    cfg.outputs = 3;
    cfg.seed = seed;
    cfg.with_mux = false;
    const Circuit c = gen::random_circuit(cfg);
    const Circuit back = read_verilog_string(write_verilog_string(c));
    ASSERT_EQ(back.inputs().size(), c.inputs().size());
    for (unsigned bits = 0; bits < 64; bits += 7) {
      std::vector<bool> in(6);
      for (int i = 0; i < 6; ++i) in[i] = (bits >> i) & 1;
      const auto r1 = simulate_floating(c, in);
      const auto r2 = simulate_floating(back, in);
      for (std::size_t o = 0; o < c.outputs().size(); ++o) {
        // Outputs keep their names through the round trip.
        const auto net = back.find_net(c.net(c.outputs()[o]).name);
        ASSERT_TRUE(net.has_value());
        ASSERT_EQ(r1.value[c.outputs()[o].index()], r2.value[net->index()])
            << "seed " << seed << " vec " << bits;
      }
    }
  }
}

TEST(VerilogIo, WriterRejectsMux) {
  Circuit c("m");
  const NetId s = c.add_net("s"), a = c.add_net("a"), b = c.add_net("b"),
              o = c.add_net("o");
  c.declare_input(s);
  c.declare_input(a);
  c.declare_input(b);
  c.add_gate(GateType::kMux, o, {s, a, b});
  c.declare_output(o);
  c.finalize();
  std::ostringstream os;
  EXPECT_THROW(write_verilog(os, c), CircuitError);
  // After lowering it writes fine.
  const Circuit lowered = decompose_for_solver(c, {.lower_mux = true});
  EXPECT_NO_THROW(write_verilog_string(lowered));
}

TEST(VerilogIo, EscapedIdentifiers) {
  // Numeric net names (as in .bench-derived circuits) must be escaped and
  // re-readable.
  Circuit c = gen::c17();  // nets named "1", "10", ...
  const std::string text = write_verilog_string(c);
  EXPECT_NE(text.find('\\'), std::string::npos);
  const Circuit back = read_verilog_string(text);
  EXPECT_EQ(back.num_gates(), c.num_gates());
}

}  // namespace
}  // namespace waveck
