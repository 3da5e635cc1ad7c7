// Shared figure/ablation text generators.
//
// Each function returns the exact console text of the corresponding bench
// driver. Both the standalone drivers (figure9_overhead, ...) and the
// campaign CLI build their output through these generators, so the two paths
// are bit-identical by construction. Per-item work (one application, one
// buffer size) dispatches through opec_campaign::ParallelMap: `jobs <= 1` is
// the inline serial path, `jobs > 1` fans out over the work-stealing pool —
// results are assembled in item order either way, so the returned text does
// not depend on the thread count.

#ifndef BENCH_FIGURES_LIB_H_
#define BENCH_FIGURES_LIB_H_

#include <string>

namespace opec_bench {

std::string Figure9Text(int jobs);
std::string Figure10Text(int jobs);
std::string Figure11Text(int jobs);
std::string AblationShadowSyncText(int jobs);
std::string AblationSwitchFrequencyText(int jobs);

// Argument parsing shared by the figure drivers: accepts only `--jobs N`
// (N in [1, 1024]). Returns the job count, or exits with status 2 after
// printing the reason and `program`'s usage on anything else.
int ParseJobsFlag(int argc, char** argv, const char* program);

}  // namespace opec_bench

#endif  // BENCH_FIGURES_LIB_H_
