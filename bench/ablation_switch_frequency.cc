// Ablation (DESIGN.md §3.2): operation-granularity partitioning follows the
// control flow, so domain switches happen only at entry/exit of tasks —
// file-granularity (ACES) partitioning switches on every cross-file call.
// Reports the domain-switch count per scenario for each application.
//
// The text is produced by opec_bench::AblationSwitchFrequencyText
// (bench/figures_lib.h); `--jobs N` measures the applications concurrently
// with bit-identical output.

#include <cstdio>

#include "bench/figures_lib.h"

int main(int argc, char** argv) {
  int jobs = opec_bench::ParseJobsFlag(argc, argv, "ablation_switch_frequency");
  std::fputs(opec_bench::AblationSwitchFrequencyText(jobs).c_str(), stdout);
  return 0;
}
