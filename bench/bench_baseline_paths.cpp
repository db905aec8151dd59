// A4 -- baseline comparison (our extension, paper Section 1 motivation).
//
// The paper dismisses path-oriented verifiers ("may have to enumerate a
// very large number of paths") and builds on floating-mode semantics
// rather than static sensitization. This harness quantifies both points:
// for each suite circuit it runs the classic baseline -- longest-first path
// enumeration with static sensitization -- next to the exact waveform-
// narrowing engine, reporting the delay estimates, path counts, and times.
//
// Observed effects: (a) the baseline's estimate can sit *below* the true
// floating delay (static sensitization is unsound for floating mode); (b)
// its path budget explodes on reconvergent circuits where the narrowing
// engine needs milliseconds.
#include <iostream>

#include "gen/iscas_suite.hpp"
#include "harness.hpp"
#include "netlist/topo_delay.hpp"
#include "sta/path_enum.hpp"

int main(int argc, char** argv) {
  using namespace waveck;
  using namespace waveck::bench;
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";

  std::cout << "A4: waveform narrowing vs path enumeration + static "
               "sensitization\n";
  std::cout << std::string(104, '=') << "\n";
  print_row({"CIRCUIT", "TOP", "EXACT(wn)", "CPU(s)", "STATIC(pe)", "PATHS",
             "CPU(s)", "NOTES"},
            {14, 9, 11, 9, 11, 11, 9, 20});
  std::cout << std::string(104, '-') << "\n";

  for (const auto& entry : gen::table1_suite(quick)) {
    const Circuit& c = entry.circuit;
    const Time top = topological_delay(c);

    VerifyOptions opt;
    opt.case_analysis.max_backtracks = entry.max_backtracks;
    opt.max_stems = 512;
    Verifier v(c, opt);
    const telemetry::StopWatch watch;
    const auto exact = v.exact_floating_delay();
    const double wn_secs = watch.seconds();

    PathEnumOptions pe;
    pe.max_paths = 50000;
    const telemetry::StopWatch pe_watch;
    const auto base = path_enum_delay(c, pe);
    const double pe_secs = pe_watch.seconds();

    std::string notes;
    if (base.budget_exhausted) notes = "path budget blown";
    if (base.delay < exact.delay) {
      notes += notes.empty() ? "" : "; ";
      notes += "underestimates";
    }
    print_row({entry.name, top.str(),
               exact.delay.str() + (exact.exact ? "" : "?"),
               fmt_secs(wn_secs), base.delay.str(),
               std::to_string(base.paths_enumerated), fmt_secs(pe_secs),
               notes},
              {14, 9, 11, 9, 11, 11, 9, 20});
  }
  return 0;
}
