// Ablation (DESIGN.md §3.1): the cost of global-data shadowing as the shared
// state grows. A synthetic two-operation program shares one buffer of size N;
// we report the guest-cycle cost of one enter+exit switch pair, which is
// dominated by the shadow synchronization (4 copies of the buffer per pair:
// write-back + copy-in on enter, and again on exit).
//
// The text is produced by opec_bench::AblationShadowSyncText
// (bench/figures_lib.h); `--jobs N` measures the buffer sizes concurrently
// with bit-identical output.

#include <cstdio>

#include "bench/figures_lib.h"

int main(int argc, char** argv) {
  int jobs = opec_bench::ParseJobsFlag(argc, argv, "ablation_shadow_sync");
  std::fputs(opec_bench::AblationShadowSyncText(jobs).c_str(), stdout);
  return 0;
}
