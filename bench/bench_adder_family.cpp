// A3 -- adder-architecture study (our extension).
//
// The paper's carry-skip adder is one point in a family: this harness runs
// the full pipeline on four 16-bit adder architectures and reports, per
// architecture, the STA bound, the exact floating delay, the removed
// pessimism, and the stage that proves the just-false check -- showing how
// false-path structure (none / skip muxes / select muxes) maps onto the
// machinery needed.
#include <iostream>

#include "gen/generators.hpp"
#include "harness.hpp"
#include "netlist/topo_delay.hpp"

int main() {
  using namespace waveck;
  using namespace waveck::bench;

  struct Arch {
    const char* name;
    Circuit circuit;
  };
  Arch archs[] = {
      {"ripple-carry", gen::ripple_carry_adder(16)},
      {"carry-skip/4", gen::carry_skip_adder(16, 4)},
      {"carry-select/4", gen::carry_select_adder(16, 4)},
      {"kogge-stone", gen::kogge_stone_adder(16)},
  };

  std::cout << "A3: 16-bit adder-architecture study (delay 10/gate)\n";
  std::cout << std::string(100, '=') << "\n";
  print_row({"ARCH", "GATES", "TOP", "EXACT", "GAP%", "PROOF STAGE",
             "BTRKS", "CPU(s)"},
            {16, 8, 8, 8, 8, 24, 8, 8});
  std::cout << std::string(100, '-') << "\n";

  for (auto& arch : archs) {
    arch.circuit.set_uniform_delay(DelaySpec::fixed(10));
    const Circuit& c = arch.circuit;
    Verifier v(c);
    const telemetry::StopWatch watch;
    const auto exact = v.exact_floating_delay();

    // Which stage proves delta = exact + 1?
    std::string stage = "STA (no false paths)";
    if (exact.delay < exact.topological) {
      auto closes = [&](bool gitd, bool stems) {
        VerifyOptions opt;
        opt.use_dominators = gitd;
        opt.use_stem_correlation = stems;
        opt.use_case_analysis = false;
        Verifier vv(c, opt);
        return vv.check_circuit(exact.delay + 1).conclusion ==
               CheckConclusion::kNoViolation;
      };
      if (closes(false, false)) {
        stage = "narrowing";
      } else if (closes(true, false)) {
        stage = "G.I.T.D.";
      } else if (closes(true, true)) {
        stage = "stem correlation";
      } else {
        stage = "case analysis";
      }
    }
    const double secs = watch.seconds();
    const double gap =
        exact.topological.is_finite() && exact.topological.value() > 0
            ? 100.0 *
                  double(exact.topological.value() - exact.delay.value()) /
                  double(exact.topological.value())
            : 0.0;
    print_row({arch.name, std::to_string(c.num_gates()),
               exact.topological.str(), exact.delay.str(),
               fmt_secs(gap), stage, std::to_string(exact.total_backtracks),
               fmt_secs(secs)},
              {16, 8, 8, 8, 8, 24, 8, 8});
  }
  return 0;
}
