#include "netlist/delay_annotation.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "common/diagnostics.hpp"

namespace waveck {

std::size_t read_delays(std::istream& is, Circuit& c,
                        const std::string& source_name) {
  std::string line;
  int lineno = 0;
  std::size_t applied = 0;
  bool have_default = false;
  DelaySpec def;
  std::vector<bool> touched(c.num_gates(), false);

  while (std::getline(is, line)) {
    ++lineno;
    if (auto hash = line.find('#'); hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    std::istringstream ls(line);
    std::string net_name;
    if (!(ls >> net_name)) continue;
    std::int64_t dmin = 0, dmax = 0;
    if (!(ls >> dmin >> dmax)) {
      throw ParseError(source_name, lineno,
                       "expected `<net> <dmin> <dmax> [<group>]`");
    }
    if (dmin < 0 || dmin > dmax) {
      throw ParseError(source_name, lineno, "need 0 <= dmin <= dmax");
    }
    std::int64_t group = -1;
    if (ls >> group) {
      if (group < 0) {
        throw ParseError(source_name, lineno, "group must be non-negative");
      }
    } else {
      group = -1;  // stream extraction zeroes the target on failure
    }
    DelaySpec spec{dmin, dmax};
    spec.group = static_cast<std::int32_t>(group);
    if (net_name == "*") {
      def = spec;
      have_default = true;
      continue;
    }
    const auto net = c.find_net(net_name);
    if (!net) throw ParseError(source_name, lineno, "unknown net " + net_name);
    const GateId g = c.net(*net).driver;
    if (!g.valid()) {
      throw ParseError(source_name, lineno,
                       "net " + net_name + " is a primary input");
    }
    c.gate_mut(g).delay = spec;
    touched[g.index()] = true;
    ++applied;
  }
  if (have_default) {
    for (GateId g : c.all_gates()) {
      if (!touched[g.index()]) {
        c.gate_mut(g).delay = def;
        ++applied;
      }
    }
  }
  if (c.finalized()) c.check_time_range();
  return applied;
}

std::size_t read_delays_string(const std::string& text, Circuit& c) {
  std::istringstream is(text);
  return read_delays(is, c, "delays");
}

std::size_t read_delays_file(const std::string& path, Circuit& c) {
  std::ifstream is(path);
  if (!is) throw ParseError(path, 0, "cannot open file");
  return read_delays(is, c, path);
}

void write_delays(std::ostream& os, const Circuit& c) {
  os << "# delay annotation for " << c.name() << "\n";
  for (GateId g : c.topo_order()) {
    const Gate& gate = c.gate(g);
    os << c.net(gate.out).name << " " << gate.delay.dmin << " "
       << gate.delay.dmax;
    if (gate.delay.group >= 0) os << " " << gate.delay.group;
    os << "\n";
  }
}

}  // namespace waveck
