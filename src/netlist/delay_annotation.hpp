// SDF-lite delay back-annotation (paper Section 7 mentions SDF processing).
//
// Text format, one record per line:
//   <output-net-name> <dmin> <dmax> [<group>]
// applied to the gate driving the named net. `*` as the net name sets the
// default for every gate not otherwise annotated. The optional non-negative
// <group> assigns the gate to a correlated-delay group (shared physical
// delay variable; see analysis/delay_correlation.hpp). Comments start with
// `#`.
#pragma once

#include <iosfwd>
#include <string>

#include "netlist/circuit.hpp"

namespace waveck {

/// Applies annotations from `is` to `c`. Throws ParseError on malformed
/// records or unknown nets, and CircuitError when a finalized `c` leaves
/// the finite time range (Circuit::check_time_range). Returns the number
/// of gates annotated.
std::size_t read_delays(std::istream& is, Circuit& c,
                        const std::string& source_name = "delays");
std::size_t read_delays_string(const std::string& text, Circuit& c);
std::size_t read_delays_file(const std::string& path, Circuit& c);

/// Writes every gate's delay as an annotation record.
void write_delays(std::ostream& os, const Circuit& c);

}  // namespace waveck
