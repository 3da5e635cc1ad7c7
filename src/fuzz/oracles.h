// The seven differential oracles (DESIGN.md Section 12.2).
//
//  1. Execution:    vanilla vs OPEC-partitioned runs of the same recipe must
//                   agree on return value, UART output, GPIO effects and the
//                   final value of every global.
//  2. Points-to:    worklist vs exhaustive Andersen solving must yield
//                   identical query answers on the recipe's module and on
//                   randomized injected constraint graphs.
//  3. MPU cache:    the decision-cached CheckAccess, AllowedRange, the
//                   interval CheckRange and a bytecode-style verdict slot
//                   keyed by configuration id must agree with the uncached
//                   region walk on every probe of a randomized sequence that
//                   also revisits configurations (undone writes, LoadState,
//                   enable toggles) and checks ranges wrapping 2^32.
//  4. Parallelism:  a campaign of cases run with --jobs N must produce
//                   digests bit-identical to the serial run (checked by the
//                   CLI / tests via RunCase's deterministic digest).
//  5. Snapshot:     an OPEC run whose full state is captured, serialized,
//                   deserialized and restored in place at every SVC boundary
//                   (RoundTripProbe) must observe exactly what the
//                   uninterrupted run observes, and every round trip must
//                   recapture to an identical digest.
//  6. Bytecode:     the compiled bytecode tier must agree with the
//                   tree-walking interpreter on every observation of the
//                   recipe — externally visible outputs AND modeled cycles,
//                   statement counts and the obs-event stream digest — in
//                   both build modes.
//  7. RV monitors:  clean recipes must run with zero runtime-verification
//                   violations in both build modes under both engines, the
//                   deterministic RV report must be byte-identical between
//                   engines, and a blocked cross-section attack write must
//                   trip a monitor (DESIGN.md §15).

#ifndef SRC_FUZZ_ORACLES_H_
#define SRC_FUZZ_ORACLES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/apps/runner.h"
#include "src/fuzz/program.h"

namespace opec_fuzz {

// What one execution of a recipe looks like from the outside.
struct ExecObservation {
  // A host CHECK fired while building or running the image (captured via
  // ScopedCheckThrow). Generated programs are valid by construction, so this
  // is always reportable.
  bool build_error = false;
  std::string build_error_msg;
  bool run_ok = false;
  std::string violation;  // engine diagnosis when !run_ok
  uint32_t return_value = 0;
  std::string uart_tx;
  std::vector<uint32_t> odr_history;
  // Final value of every non-const global, by name, rendered to a
  // layout-independent string: plain data renders as hex bytes, while
  // pointer-valued slots (pointer globals, function-pointer globals, pointer
  // struct fields) resolve to the *symbolic* target ("g0+0", "fn:helper1") —
  // raw addresses legitimately differ between the vanilla and OPEC layouts.
  // Under OPEC the address read honors the end-of-run shadow policy (see
  // FinalAddrOf in oracles.cc).
  std::map<std::string, std::string> finals;
  // Modeled outputs and the obs-event stream digest. Compared by the bytecode
  // oracle only — deliberately NOT part of FormatObservation, so case digests
  // (and the pinned regression corpus) are unchanged by their addition.
  uint64_t cycles = 0;
  uint64_t statements = 0;
  uint64_t events_digest = 0;
  // Runtime-verification outputs (oracle 7). Like the modeled outputs above,
  // not part of FormatObservation: the pinned corpus digests stay stable.
  uint64_t rv_violations = 0;
  std::string rv_report;
};

ExecObservation RunOnce(const ProgramSpec& spec, opec_apps::BuildMode mode,
                        opec_apps::EngineKind engine = opec_apps::EngineKind::kInterp);

std::string FormatObservation(const ExecObservation& obs);

enum class Oracle : uint8_t {
  kExecDiff,
  kPointsTo,
  kMpuCache,
  kParallel,
  kSnapshot,
  kBytecodeTier,
  kRv,
};
const char* OracleName(Oracle o);

struct Divergence {
  Oracle oracle = Oracle::kExecDiff;
  std::string detail;
};

// Oracle 1: compares the two observations of one recipe.
std::vector<Divergence> CompareExec(const ProgramSpec& spec, const ExecObservation& vanilla,
                                    const ExecObservation& opec);

// Oracle 2a: solver modes over the recipe's module — every icall target set
// and pointer-query answer must match.
std::vector<Divergence> DiffPointsTo(const ProgramSpec& spec);
// Oracle 2b: solver modes over a seeded random injected constraint graph.
std::vector<Divergence> DiffInjectedPointsTo(uint64_t seed);

// Oracle 3: seeded random MPU configure/probe sequence, cached vs uncached;
// a second phase revisits earlier configurations.
std::vector<Divergence> DiffMpuCache(uint64_t seed);

// Oracle 5: reruns the recipe under the snapshot RoundTripProbe and compares
// against `opec`, the uninterrupted OPEC observation of the same recipe.
std::vector<Divergence> DiffSnapshotRoundTrip(const ProgramSpec& spec,
                                              const ExecObservation& opec);

// Oracle 6: reruns the recipe on the bytecode VM in both build modes and
// compares against the interpreter observations — outputs, modeled cycles,
// statement counts and obs-event digests must all be bit-identical. The
// bytecode observations are exposed via the optional out-params so callers
// (oracle 7) can reuse them without re-running the VM.
std::vector<Divergence> DiffBytecodeTier(const ProgramSpec& spec,
                                         const ExecObservation& vanilla,
                                         const ExecObservation& opec,
                                         ExecObservation* bc_vanilla_out = nullptr,
                                         ExecObservation* bc_opec_out = nullptr);

// Oracle 7: runtime-verification monitors. Checks that every clean (run_ok)
// observation carries zero violations, that the deterministic RV report is
// byte-identical between the interpreter and bytecode observations of the
// same mode, and that a blocked cross-section attack write (a deterministic
// recipe derived from the spec's first two sectioned operations; skipped when
// the recipe has fewer) trips at least one monitor.
std::vector<Divergence> DiffRvMonitors(const ProgramSpec& spec,
                                       const ExecObservation& vanilla,
                                       const ExecObservation& opec,
                                       const ExecObservation& bc_vanilla,
                                       const ExecObservation& bc_opec);

// One fuzz case: generate the recipe for `seed` and run every recipe-level
// oracle on it (1, 2, 3, 5, 6 and 7; oracle 4 is the serial-vs-parallel digest
// comparison done by the CLI / CI).
// `digest` is a deterministic fingerprint of everything observed — byte-equal
// between serial and parallel campaigns (oracle 4) and across reruns.
struct CaseResult {
  uint64_t seed = 0;
  std::string summary;  // recipe shape, for logs
  std::vector<Divergence> divergences;
  std::string digest;
};

CaseResult RunCase(uint64_t seed);

}  // namespace opec_fuzz

#endif  // SRC_FUZZ_ORACLES_H_
