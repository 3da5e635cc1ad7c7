// Regenerates Figure 10: the cumulative distribution of the partition-time
// over-privilege value (PT, Eq. 1) per compartment for the five applications
// ACES also evaluated, under the three ACES strategies. OPEC's PT is computed
// too — the shadowing technique makes it identically zero.
//
// The text is produced by opec_bench::Figure10Text (bench/figures_lib.h), the
// same generator the campaign CLI uses; `--jobs N` measures the applications
// concurrently with bit-identical output.

#include <cstdio>

#include "bench/figures_lib.h"

int main(int argc, char** argv) {
  int jobs = opec_bench::ParseJobsFlag(argc, argv, "figure10_pt");
  std::fputs(opec_bench::Figure10Text(jobs).c_str(), stdout);
  return 0;
}
