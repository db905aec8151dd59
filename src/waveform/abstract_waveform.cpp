#include "waveform/abstract_waveform.hpp"

#include <ostream>
#include <sstream>

namespace waveck {

std::string LtInterval::str() const {
  if (is_empty()) return "phi";
  return "[" + lmin.str() + "," + max.str() + "]";
}

std::ostream& operator<<(std::ostream& os, const LtInterval& i) {
  return os << i.str();
}

std::string AbstractSignal::str() const {
  std::ostringstream os;
  os << "(0|" << w[0].str() << ", 1|" << w[1].str() << ")";
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const AbstractSignal& s) {
  return os << s.str();
}

}  // namespace waveck
