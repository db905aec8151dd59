// A1 -- stage-contribution ablation (our extension of Table 1).
//
// For each suite circuit, runs the proof row (delta = exact + 1) under four
// configurations -- narrowing only, + learning, + G.I.T.D., + stem
// correlation -- and reports which configuration first proves N without
// case analysis, plus backtracks when case analysis is still needed.
#include <iostream>

#include "gen/iscas_suite.hpp"
#include "harness.hpp"
#include "netlist/topo_delay.hpp"

int main(int argc, char** argv) {
  using namespace waveck;
  using namespace waveck::bench;
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";

  std::cout << "A1: stage-contribution ablation (delta = exact floating "
               "delay + 1)\n";
  std::cout << std::string(86, '=') << "\n";
  print_row({"CIRCUIT", "narrow", "+learn", "+GITD", "+stem", "+CA(btk)",
             "CPU(s)"},
            {14, 10, 10, 10, 10, 12, 8});
  std::cout << std::string(86, '-') << "\n";

  for (const auto& entry : gen::table1_suite(quick)) {
    const Circuit& c = entry.circuit;

    // Exact delay with the full engine first.
    VerifyOptions full;
    full.case_analysis.max_backtracks = entry.max_backtracks;
    full.max_stems = 512;
    Verifier vf(c, full);
    const auto exact = vf.exact_floating_delay();
    const Time delta = exact.delay + 1;

    auto closes = [&](bool learn, bool gitd, bool stem) {
      VerifyOptions opt;
      opt.use_learning = learn;
      opt.use_dominators = gitd;
      opt.use_stem_correlation = stem;
      opt.max_stems = 512;
      opt.use_case_analysis = false;
      Verifier v(c, opt);
      const auto rep = v.check_circuit(delta);
      return rep.conclusion == CheckConclusion::kNoViolation;
    };

    const telemetry::StopWatch watch;
    const bool n0 = closes(false, false, false);
    const bool n1 = n0 || closes(true, false, false);
    const bool n2 = n1 || closes(true, true, false);
    const bool n3 = n2 || closes(true, true, true);
    std::string ca = "-";
    if (!n3) {
      VerifyOptions opt;
      opt.max_stems = 512;
      opt.case_analysis.max_backtracks = entry.max_backtracks;
      Verifier v(c, opt);
      const auto rep = v.check_circuit(delta);
      ca = rep.conclusion == CheckConclusion::kNoViolation
               ? "N(" + std::to_string(rep.backtracks) + ")"
               : std::string(to_string(rep.conclusion));
    }
    const double secs = watch.seconds();
    auto yn = [](bool b) { return b ? std::string("N") : std::string("P"); };
    print_row({entry.name + (exact.exact ? "" : "(U)"), yn(n0), yn(n1),
               yn(n2), yn(n3), ca, fmt_secs(secs)},
              {14, 10, 10, 10, 10, 12, 8});
  }
  std::cout << "\nN = proves NoViolation at that stage; P = still possible;"
            << "\nN(k) = case analysis proves it with k backtracks\n";
  return 0;
}
