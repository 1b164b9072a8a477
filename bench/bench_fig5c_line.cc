// Regenerates Figure 5(c): completion time vs number of nodes on the
// Line topology for CS (= MCS), BPS and BPR (paper §4.3).
//
// Paper shape: same relative performance as the tree — BPR best, BPR
// outperforms CS except at very small sizes.

#include "bench/bench_common.h"

using namespace bestpeer;
using namespace bestpeer::bench;
using namespace bestpeer::workload;

int main() {
  PrintTitle(
      "Figure 5(c): Line topology — completion time (ms) vs number of "
      "nodes");
  const std::vector<size_t> sizes = {2, 4, 8, 16, 24, 32};
  const std::vector<Scheme> schemes = {Scheme::kMcs, Scheme::kBps,
                                       Scheme::kBpr};
  BenchReport report("fig5c_line");
  std::vector<std::string> header = {"nodes"};
  for (auto s : schemes)
    header.push_back(s == Scheme::kMcs ? "CS" : SchemeName(s));
  report.SetColumns(header);
  PrintRowHeader(header);
  for (size_t n : sizes) {
    std::vector<double> row;
    for (Scheme scheme : schemes) {
      ExperimentOptions options = SearchPhaseOptions(MakeLine(n), scheme);
      // Post-hoc analysis: spans + flight events feed the critical-path
      // breakdown, the sampler feeds the timeseries section. The last
      // configuration (BPR on the deepest line) is the one attached.
      options.obs = {.trace = true,
                     .sample_interval = Millis(1),
                     .flight_capacity = 8192};
      auto result = report.Run(options);
      report.AttachObservability(result);
      row.push_back(result.MeanCompletionMs());
    }
    PrintRow(std::to_string(n), row);
    report.AddRow(std::to_string(n), row);
  }
  std::printf(
      "\nExpected shape: BPR best overall; CS loses to BP once the line "
      "is deep enough.\n");
  return report.Close();
}
