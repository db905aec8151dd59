#include "netlist/verilog_io.hpp"

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

/// Tokenizer: strips // and /* */ comments, splits identifiers, numbers and
/// punctuation, and tracks line numbers for diagnostics.
class Lexer {
 public:
  struct Token {
    std::string text;
    int line;
  };

  Lexer(std::istream& is, std::string file) : file_(std::move(file)) {
    std::string line;
    int lineno = 0;
    bool in_block_comment = false;
    while (std::getline(is, line)) {
      ++lineno;
      std::string clean;
      for (std::size_t i = 0; i < line.size(); ++i) {
        if (in_block_comment) {
          if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
            in_block_comment = false;
            ++i;
          }
          continue;
        }
        if (line[i] == '/' && i + 1 < line.size()) {
          if (line[i + 1] == '/') break;
          if (line[i + 1] == '*') {
            in_block_comment = true;
            ++i;
            continue;
          }
        }
        clean += line[i];
      }
      lex_line(clean, lineno);
    }
  }

  [[nodiscard]] bool done() const { return pos_ >= tokens_.size(); }
  [[nodiscard]] const Token& peek() const {
    if (done()) throw ParseError(file_, last_line_, "unexpected end of file");
    return tokens_[pos_];
  }
  Token next() {
    const Token t = peek();
    ++pos_;
    return t;
  }
  Token expect(const std::string& text) {
    const Token t = next();
    if (t.text != text) {
      throw ParseError(file_, t.line,
                       "expected `" + text + "`, got `" + t.text + "`");
    }
    return t;
  }
  [[nodiscard]] const std::string& file() const { return file_; }

 private:
  void lex_line(const std::string& s, int lineno) {
    std::size_t i = 0;
    auto is_ident = [](char c) {
      return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
             c == '$' || c == '.';
    };
    while (i < s.size()) {
      const char c = s[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (is_ident(c) || c == '\\') {
        std::string t;
        if (c == '\\') {  // escaped identifier: up to whitespace
          ++i;
          while (i < s.size() &&
                 !std::isspace(static_cast<unsigned char>(s[i]))) {
            t += s[i++];
          }
        } else {
          while (i < s.size() && is_ident(s[i])) t += s[i++];
        }
        tokens_.push_back({t, lineno});
      } else {
        tokens_.push_back({std::string(1, c), lineno});
        ++i;
      }
      last_line_ = lineno;
    }
  }

  std::string file_;
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int last_line_ = 1;
};

std::optional<GateType> primitive(const std::string& kw) {
  if (kw == "and") return GateType::kAnd;
  if (kw == "nand") return GateType::kNand;
  if (kw == "or") return GateType::kOr;
  if (kw == "nor") return GateType::kNor;
  if (kw == "xor") return GateType::kXor;
  if (kw == "xnor") return GateType::kXnor;
  if (kw == "not") return GateType::kNot;
  if (kw == "buf") return GateType::kBuf;
  return std::nullopt;
}

bool is_keyword(const std::string& t) {
  return t == "module" || t == "endmodule" || t == "input" ||
         t == "output" || t == "wire" || primitive(t).has_value();
}

}  // namespace

Circuit read_verilog(std::istream& is, std::string fallback_name) {
  Lexer lex(is, fallback_name);
  Circuit c(std::move(fallback_name));

  lex.expect("module");
  const auto name_tok = lex.next();
  c.set_name(name_tok.text);
  // Port list (names only; direction comes from the declarations).
  if (lex.peek().text == "(") {
    lex.next();
    while (lex.peek().text != ")") {
      lex.next();  // port name or comma
    }
    lex.next();  // ')'
  }
  lex.expect(";");

  auto read_name_list = [&](auto&& per_name) {
    for (;;) {
      const auto t = lex.next();
      if (t.text == ";") break;
      if (t.text == ",") continue;
      if (t.text == "[") {
        throw ParseError(lex.file(), t.line,
                         "vector nets are not supported (scalar gate-level "
                         "netlists only)");
      }
      per_name(t.text, t.line);
    }
  };

  bool any_output = false;
  while (!lex.done()) {
    const auto t = lex.next();
    if (t.text == "endmodule") {
      // A module with nothing observable would make every check vacuously
      // pass.
      if (!any_output) {
        throw ParseError(lex.file(), t.line, "no output declared");
      }
      c.finalize();
      return c;
    }
    if (t.text == "input" || t.text == "output") {
      const bool input = t.text == "input";
      read_name_list([&](const std::string& n, int line) {
        const NetId id = c.net_by_name_or_add(n);
        try {
          if (input) {
            c.declare_input(id);
          } else {
            c.declare_output(id);
            any_output = true;
          }
        } catch (const CircuitError& e) {
          throw ParseError(lex.file(), line, e.what());
        }
      });
      continue;
    }
    if (t.text == "wire") {
      read_name_list([&](const std::string& n, int) {
        c.net_by_name_or_add(n);
      });
      continue;
    }
    const auto prim = primitive(t.text);
    if (!prim) {
      throw ParseError(lex.file(), t.line,
                       "unsupported construct `" + t.text +
                           "` (structural gate primitives only)");
    }
    // Optional instance name, then (out, in...);
    if (lex.peek().text != "(") {
      const auto inst = lex.next();
      if (is_keyword(inst.text) || inst.text == "(") {
        throw ParseError(lex.file(), inst.line, "malformed instantiation");
      }
    }
    lex.expect("(");
    std::vector<NetId> terminals;
    for (;;) {
      const auto tok = lex.next();
      if (tok.text == ")") break;
      if (tok.text == ",") continue;
      terminals.push_back(c.net_by_name_or_add(tok.text));
    }
    lex.expect(";");
    if (terminals.size() < 2) {
      throw ParseError(lex.file(), t.line,
                       "primitive needs an output and at least one input");
    }
    const NetId out = terminals.front();
    terminals.erase(terminals.begin());
    try {
      c.add_gate(*prim, out, std::move(terminals));
    } catch (const CircuitError& e) {
      throw ParseError(lex.file(), t.line, e.what());
    }
  }
  throw ParseError(lex.file(), 0, "missing endmodule");
}

Circuit read_verilog_string(const std::string& text,
                            std::string fallback_name) {
  std::istringstream is(text);
  return read_verilog(is, std::move(fallback_name));
}

Circuit read_verilog_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw ParseError(path, 0, "cannot open file");
  auto slash = path.find_last_of('/');
  return read_verilog(is, slash == std::string::npos
                              ? path
                              : path.substr(slash + 1));
}

void write_verilog(std::ostream& os, const Circuit& c) {
  auto id = [](const std::string& n) {
    // Identifiers that are not plain Verilog names get escaped.
    bool plain = !n.empty() && !std::isdigit(static_cast<unsigned char>(n[0]));
    for (char ch : n) {
      plain = plain && (std::isalnum(static_cast<unsigned char>(ch)) ||
                        ch == '_' || ch == '$');
    }
    return plain ? n : "\\" + n + " ";
  };

  os << "module " << (c.name().empty() ? "top" : c.name()) << " (";
  bool first = true;
  for (NetId n : c.inputs()) {
    os << (first ? "" : ", ") << id(c.net(n).name);
    first = false;
  }
  for (NetId n : c.outputs()) {
    os << (first ? "" : ", ") << id(c.net(n).name);
    first = false;
  }
  os << ");\n";
  for (NetId n : c.inputs()) os << "  input " << id(c.net(n).name) << ";\n";
  for (NetId n : c.outputs()) {
    os << "  output " << id(c.net(n).name) << ";\n";
  }
  for (NetId n : c.all_nets()) {
    const Net& net = c.net(n);
    if (!net.is_primary_input && !net.is_primary_output) {
      os << "  wire " << id(net.name) << ";\n";
    }
  }

  std::size_t inst = 0;
  for (GateId g : c.topo_order()) {
    const Gate& gate = c.gate(g);
    auto emit = [&](const char* prim, NetId out,
                    const std::vector<NetId>& ins) {
      os << "  " << prim << " g" << inst++ << " (" << id(c.net(out).name);
      for (NetId in : ins) os << ", " << id(c.net(in).name);
      os << ");\n";
    };
    switch (gate.type) {
      case GateType::kAnd: emit("and", gate.out, gate.ins); break;
      case GateType::kNand: emit("nand", gate.out, gate.ins); break;
      case GateType::kOr: emit("or", gate.out, gate.ins); break;
      case GateType::kNor: emit("nor", gate.out, gate.ins); break;
      case GateType::kXor: emit("xor", gate.out, gate.ins); break;
      case GateType::kXnor: emit("xnor", gate.out, gate.ins); break;
      case GateType::kNot: emit("not", gate.out, gate.ins); break;
      case GateType::kBuf:
      case GateType::kDelay:
        os << "  // DELAY element emitted as buf\n";
        emit("buf", gate.out, gate.ins);
        break;
      case GateType::kMux:
        // No MUX primitive in the subset: document and refuse silently
        // correct output is impossible without helper nets, so reject.
        throw CircuitError(
            "write_verilog: lower MUX gates first (decompose_for_solver "
            "with lower_mux=true)");
    }
  }
  os << "endmodule\n";
}

std::string write_verilog_string(const Circuit& c) {
  std::ostringstream os;
  write_verilog(os, c);
  return os.str();
}

}  // namespace waveck
