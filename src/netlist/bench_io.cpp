#include "netlist/bench_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/diagnostics.hpp"

namespace waveck {
namespace {

std::string upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return s;
}

std::string strip(const std::string& s) {
  auto b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return {};
  auto e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

std::optional<GateType> gate_from_keyword(const std::string& kw) {
  const std::string k = upper(kw);
  if (k == "AND") return GateType::kAnd;
  if (k == "NAND") return GateType::kNand;
  if (k == "OR") return GateType::kOr;
  if (k == "NOR") return GateType::kNor;
  if (k == "XOR") return GateType::kXor;
  if (k == "XNOR") return GateType::kXnor;
  if (k == "NOT" || k == "INV") return GateType::kNot;
  if (k == "BUF" || k == "BUFF") return GateType::kBuf;
  if (k == "DELAY") return GateType::kDelay;
  if (k == "MUX") return GateType::kMux;
  return std::nullopt;
}

std::vector<std::string> split_args(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      out.push_back(strip(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!strip(cur).empty() || !out.empty()) out.push_back(strip(cur));
  return out;
}

}  // namespace

Circuit read_bench(std::istream& is, std::string name) {
  Circuit c(std::move(name));
  std::string line;
  int lineno = 0;
  bool any_output = false;
  const std::string fname = c.name();
  while (std::getline(is, line)) {
    ++lineno;
    if (auto hash = line.find('#'); hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    line = strip(line);
    if (line.empty()) continue;

    const std::string u = upper(line);
    if (u.rfind("INPUT", 0) == 0 || u.rfind("OUTPUT", 0) == 0) {
      const auto open = line.find('(');
      const auto close = line.rfind(')');
      if (open == std::string::npos || close == std::string::npos ||
          close < open) {
        throw ParseError(fname, lineno, "malformed INPUT/OUTPUT directive");
      }
      const std::string net = strip(line.substr(open + 1, close - open - 1));
      if (net.empty()) throw ParseError(fname, lineno, "empty net name");
      const NetId id = c.net_by_name_or_add(net);
      try {
        if (u.rfind("INPUT", 0) == 0) {
          c.declare_input(id);
        } else {
          c.declare_output(id);
          any_output = true;
        }
      } catch (const CircuitError& e) {
        throw ParseError(fname, lineno, e.what());
      }
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw ParseError(fname, lineno, "expected `out = GATE(...)`");
    }
    const std::string out_name = strip(line.substr(0, eq));
    std::string rhs = strip(line.substr(eq + 1));
    const auto open = rhs.find('(');
    const auto close = rhs.rfind(')');
    if (open == std::string::npos || close == std::string::npos ||
        close < open) {
      throw ParseError(fname, lineno, "malformed gate expression: " + rhs);
    }
    const std::string kw = strip(rhs.substr(0, open));
    if (upper(kw) == "DFF" || upper(kw) == "DFFSR" || upper(kw) == "LATCH") {
      throw ParseError(fname, lineno,
                       "sequential element '" + kw +
                           "' not supported (combinational checks only)");
    }
    const auto type = gate_from_keyword(kw);
    if (!type) throw ParseError(fname, lineno, "unknown gate keyword: " + kw);
    const auto args = split_args(rhs.substr(open + 1, close - open - 1));
    if (args.empty() || args.front().empty()) {
      throw ParseError(fname, lineno, "gate with no inputs");
    }
    std::vector<NetId> ins;
    ins.reserve(args.size());
    for (const auto& a : args) {
      if (a.empty()) throw ParseError(fname, lineno, "empty input name");
      ins.push_back(c.net_by_name_or_add(a));
    }
    const NetId out = c.net_by_name_or_add(out_name);
    try {
      c.add_gate(*type, out, std::move(ins));
    } catch (const CircuitError& e) {
      throw ParseError(fname, lineno, e.what());
    }
  }
  // An empty netlist (or one with nothing observable) would make every
  // check vacuously pass.
  if (!any_output) throw ParseError(fname, lineno, "no OUTPUT declared");
  c.finalize();
  return c;
}

Circuit read_bench_string(const std::string& text, std::string name) {
  std::istringstream is(text);
  return read_bench(is, std::move(name));
}

Circuit read_bench_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw ParseError(path, 0, "cannot open file");
  auto slash = path.find_last_of('/');
  return read_bench(is, slash == std::string::npos ? path
                                                   : path.substr(slash + 1));
}

void write_bench(std::ostream& os, const Circuit& c) {
  os << "# " << c.name() << " (" << c.num_gates() << " gates, "
     << c.num_nets() << " nets)\n";
  for (NetId n : c.inputs()) os << "INPUT(" << c.net(n).name << ")\n";
  for (NetId n : c.outputs()) os << "OUTPUT(" << c.net(n).name << ")\n";
  for (GateId g : c.topo_order()) {
    const Gate& gate = c.gate(g);
    os << c.net(gate.out).name << " = " << to_string(gate.type) << "(";
    for (std::size_t i = 0; i < gate.ins.size(); ++i) {
      if (i) os << ", ";
      os << c.net(gate.ins[i]).name;
    }
    os << ")\n";
  }
}

std::string write_bench_string(const Circuit& c) {
  std::ostringstream os;
  write_bench(os, c);
  return os.str();
}

}  // namespace waveck
