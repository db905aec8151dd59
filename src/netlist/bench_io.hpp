// ISCAS'85/'89 `.bench` netlist reader and writer (combinational subset).
//
// Grammar (per the Brglez-Fujiwara neutral netlist format):
//   # comment
//   INPUT(name)
//   OUTPUT(name)
//   name = GATE(in1, in2, ...)
// Supported gate keywords: AND, NAND, OR, NOR, XOR, XNOR, NOT, INV, BUF,
// BUFF, DELAY, MUX. Sequential elements (DFF) are rejected with a parse
// error: the method targets combinational timing checks.
#pragma once

#include <iosfwd>
#include <string>

#include "netlist/circuit.hpp"

namespace waveck {

/// Parses a `.bench` netlist. `name` labels the resulting circuit (used in
/// reports). Throws ParseError / CircuitError on malformed input, including
/// a repeated INPUT or OUTPUT declaration and a netlist with no OUTPUT. The
/// returned circuit is finalized.
[[nodiscard]] Circuit read_bench(std::istream& is, std::string name = "bench");
[[nodiscard]] Circuit read_bench_string(const std::string& text,
                                        std::string name = "bench");
[[nodiscard]] Circuit read_bench_file(const std::string& path);

/// Writes a `.bench` netlist (delays are not part of the format; use
/// write_delays / read_delays for those).
void write_bench(std::ostream& os, const Circuit& c);
[[nodiscard]] std::string write_bench_string(const Circuit& c);

}  // namespace waveck
