// Regenerates Figure 11: the execution-time over-privilege value (ET, Eq. 2)
// per task, for OPEC and the three ACES strategies, over the five shared
// applications. Tasks are the operation windows of a traced OPEC run (the
// paper's GDB single-stepping stand-in); under ACES a task's needed set is
// everything accessible to the compartments its execution flowed through.
//
// The text is produced by opec_bench::Figure11Text (bench/figures_lib.h), the
// same generator the campaign CLI uses; `--jobs N` measures the applications
// concurrently with bit-identical output.

#include <cstdio>

#include "bench/figures_lib.h"

int main(int argc, char** argv) {
  int jobs = opec_bench::ParseJobsFlag(argc, argv, "figure11_et");
  std::fputs(opec_bench::Figure11Text(jobs).c_str(), stdout);
  return 0;
}
