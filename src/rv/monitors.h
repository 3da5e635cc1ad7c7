// The standard always-on monitors: four safety automata encoding OPEC's
// operation-switch and isolation invariants (DESIGN.md §15).

#ifndef SRC_RV_MONITORS_H_
#define SRC_RV_MONITORS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/rv/automaton.h"

namespace opec_hw {
class Mpu;
}  // namespace opec_hw

namespace opec_rv {

// Everything the standard monitors need from the run being watched. Plain
// data + one device pointer, so src/rv depends only on obs + hw.
struct RvEnv {
  // Cross-checked by the mpu-cache-coherence monitor; may be null (synthetic
  // streams), which skips the generation/region checks.
  const opec_hw::Mpu* mpu = nullptr;
  // (operation id, external var index) pairs from the compile policy: which
  // operation owns a shadow copy of which external. Empty in vanilla mode —
  // vanilla runs emit no kShadowSync, so any one is a violation there.
  std::vector<std::pair<int32_t, uint32_t>> shadow_owners;
  bool opec_mode = false;
};

// Fixed name order for the standard monitors — campaign aggregation and the
// deterministic reports index by it.
const std::vector<std::string>& StandardMonitorNames();

// Builds the four compiled automata, in StandardMonitorNames() order:
//   switch-protocol      kSvc(enter) → write-back* → copy-in* → reconfig+ →
//                        kOperationEnter, mirrored exit sequence, balanced
//                        kSvc pairing, windows never left open.
//   shadow-isolation     every kShadowSync attributed to the owning
//                        operation; no unresolved kMemFault/kBusFault (a
//                        denied write), in or out of a switch window.
//   mpu-cache-coherence  every kMpuReconfig bumped the MPU's verdict-cache
//                        generation, left its configuration id unresolved
//                        and matches the live region state.
//   call-depth           kFunctionEnter/kFunctionExit LIFO pairing.
std::vector<std::unique_ptr<Automaton>> BuildStandardMonitors(const RvEnv& env);

}  // namespace opec_rv

#endif  // SRC_RV_MONITORS_H_
