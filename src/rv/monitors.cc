#include "src/rv/monitors.h"

#include <algorithm>
#include <set>

#include "src/hw/mpu.h"
#include "src/support/check.h"
#include "src/support/text.h"

namespace opec_rv {

using opec_obs::Event;
using opec_obs::EventKind;

const std::vector<std::string>& StandardMonitorNames() {
  static const std::vector<std::string> kNames = {
      "switch-protocol", "shadow-isolation", "mpu-cache-coherence", "call-depth"};
  return kNames;
}

namespace {

constexpr int32_t kNone = INT32_MIN;

// (1) Operation-switch protocol. A switch window opens at the kSvc and must
// run write-back* → copy-in* → kMpuReconfig+ → kOperation{Enter,Exit} with
// nothing else interleaved; enter/exit SVCs pair LIFO on the operation id.
// Mid-window aborts (monitor rejections) surface as a violation either from
// the unwind's kFunctionExit landing in a window state or from Finish().
std::unique_ptr<Automaton> BuildSwitchProtocol() {
  struct Ctx {
    int32_t pending = kNone;          // target op of the open enter window
    int32_t exiting = kNone;          // op of the open exit window
    std::vector<int32_t> active;      // entered-but-not-exited operations
  };
  auto ctx = std::make_shared<Ctx>();
  auto a = std::make_unique<Automaton>("switch-protocol");
  const int idle = a->AddState("idle");
  const int e_wb = a->AddState("enter-write-back", /*strict=*/true);
  const int e_ci = a->AddState("enter-copy-in", /*strict=*/true);
  const int e_mpu = a->AddState("enter-mpu-reconfig", /*strict=*/true);
  const int x_wb = a->AddState("exit-write-back", /*strict=*/true);
  const int x_ci = a->AddState("exit-copy-in", /*strict=*/true);
  const int x_mpu = a->AddState("exit-mpu-reconfig", /*strict=*/true);

  auto is_write_back = [](const Event& ev) { return ev.arg2 == opec_obs::kSyncWriteBack; };
  auto is_copy_in = [](const Event& ev) { return ev.arg2 == opec_obs::kSyncCopyIn; };

  // idle: switches open here; loose shadow/operation events are violations,
  // everything else (functions, faults, MMIO, boot-time reconfigs) passes.
  a->AddGuardedRule(idle, EventKind::kSvc,
                    [ctx](const Event& ev) {
                      if (ev.arg1 != 0) return false;
                      ctx->pending = static_cast<int32_t>(ev.arg0);
                      return true;
                    },
                    e_wb);
  a->AddGuardedRule(idle, EventKind::kSvc,
                    [ctx](const Event& ev) {
                      if (ev.arg1 != 1 || ctx->active.empty() ||
                          ctx->active.back() != static_cast<int32_t>(ev.arg0)) {
                        return false;
                      }
                      ctx->exiting = static_cast<int32_t>(ev.arg0);
                      return true;
                    },
                    x_wb);
  a->AddRule(idle, EventKind::kSvc, Automaton::kViolation,
             "exit-side SVC does not match the innermost active operation");
  a->AddRule(idle, EventKind::kShadowSync, Automaton::kViolation,
             "shadow sync outside an operation-switch window");
  a->AddRule(idle, EventKind::kOperationEnter, Automaton::kViolation,
             "operation enter without an SVC window");
  a->AddRule(idle, EventKind::kOperationExit, Automaton::kViolation,
             "operation exit without an SVC window");

  // Enter window: write-backs of the previous op, then copy-ins of the
  // target, then MPU reprogramming, then the enter event itself.
  a->AddGuardedRule(e_wb, EventKind::kShadowSync, is_write_back, e_wb);
  a->AddGuardedRule(e_wb, EventKind::kShadowSync, is_copy_in, e_ci);
  a->AddRule(e_wb, EventKind::kMpuReconfig, e_mpu);
  a->AddGuardedRule(e_ci, EventKind::kShadowSync, is_copy_in, e_ci);
  a->AddRule(e_ci, EventKind::kShadowSync, Automaton::kViolation,
             "write-back after copy-in in an enter window");
  a->AddRule(e_ci, EventKind::kMpuReconfig, e_mpu);
  a->AddRule(e_mpu, EventKind::kMpuReconfig, e_mpu);
  a->AddGuardedRule(e_mpu, EventKind::kOperationEnter,
                    [ctx](const Event& ev) {
                      if (ctx->pending != static_cast<int32_t>(ev.arg0)) return false;
                      ctx->active.push_back(ctx->pending);
                      ctx->pending = kNone;
                      return true;
                    },
                    idle);
  a->AddRule(e_mpu, EventKind::kOperationEnter, Automaton::kViolation,
             "operation enter does not match the SVC target");

  // Exit window: mirrored, closed by kOperationExit of the SVC'd operation.
  a->AddGuardedRule(x_wb, EventKind::kShadowSync, is_write_back, x_wb);
  a->AddGuardedRule(x_wb, EventKind::kShadowSync, is_copy_in, x_ci);
  a->AddRule(x_wb, EventKind::kMpuReconfig, x_mpu);
  a->AddGuardedRule(x_ci, EventKind::kShadowSync, is_copy_in, x_ci);
  a->AddRule(x_ci, EventKind::kShadowSync, Automaton::kViolation,
             "write-back after copy-in in an exit window");
  a->AddRule(x_ci, EventKind::kMpuReconfig, x_mpu);
  a->AddRule(x_mpu, EventKind::kMpuReconfig, x_mpu);
  a->AddGuardedRule(x_mpu, EventKind::kOperationExit,
                    [ctx](const Event& ev) {
                      if (ctx->exiting != static_cast<int32_t>(ev.arg0) ||
                          ctx->active.empty() || ctx->active.back() != ctx->exiting) {
                        return false;
                      }
                      ctx->active.pop_back();
                      ctx->exiting = kNone;
                      return true;
                    },
                    idle);
  a->AddRule(x_mpu, EventKind::kOperationExit, Automaton::kViolation,
             "operation exit does not match the SVC'd operation");

  a->SetResetHook([ctx]() {
    ctx->pending = kNone;
    ctx->exiting = kNone;
    ctx->active.clear();
  });
  a->SetFinishHook([ctx](bool aborted, int state) -> std::string {
    if (state != 0) {
      return "run ended inside an operation-switch window";
    }
    if (!aborted && !ctx->active.empty()) {
      return opec_support::StrPrintf("%zu operation(s) still active at clean end of run",
                                     ctx->active.size());
    }
    return "";
  });
  a->Compile();
  return a;
}

// (2) Shadow isolation. Every kShadowSync must be attributed to the
// operation that owns that shadow placement, and an unresolved memory/bus
// fault (a write the MPU denied) is always a violation — inside a switch
// window it is a protocol break, outside it is a denied attack write.
std::unique_ptr<Automaton> BuildShadowIsolation(const RvEnv& env) {
  struct Ctx {
    std::set<std::pair<int32_t, uint32_t>> owners;
    bool in_window = false;
  };
  auto ctx = std::make_shared<Ctx>();
  ctx->owners.insert(env.shadow_owners.begin(), env.shadow_owners.end());
  auto a = std::make_unique<Automaton>("shadow-isolation");
  const int watch = a->AddState("watch");

  a->AddGuardedRule(watch, EventKind::kSvc,
                    [ctx](const Event&) {
                      ctx->in_window = true;
                      return true;
                    },
                    watch);
  auto close_window = [ctx](const Event&) {
    ctx->in_window = false;
    return true;
  };
  a->AddGuardedRule(watch, EventKind::kOperationEnter, close_window, watch);
  a->AddGuardedRule(watch, EventKind::kOperationExit, close_window, watch);
  a->AddGuardedRule(watch, EventKind::kShadowSync,
                    [ctx](const Event& ev) {
                      return ctx->owners.count({ev.operation_id, ev.arg0}) != 0;
                    },
                    watch);
  a->AddRule(watch, EventKind::kShadowSync, Automaton::kViolation,
             "shadow sync attributed to an operation that does not own the shadow");
  for (EventKind kind : {EventKind::kMemFault, EventKind::kBusFault}) {
    a->AddGuardedRule(watch, kind,
                      [ctx](const Event& ev) {
                        if ((ev.arg2 & opec_obs::kFaultResolved) != 0 || !ctx->in_window) {
                          return false;
                        }
                        return true;
                      },
                      Automaton::kViolation,
                      "unresolved fault inside an operation-switch window");
    a->AddGuardedRule(watch, kind,
                      [](const Event& ev) {
                        return (ev.arg2 & opec_obs::kFaultResolved) == 0;
                      },
                      Automaton::kViolation, "write denied by the MPU/privilege rules");
  }

  a->SetResetHook([ctx]() { ctx->in_window = false; });
  a->Compile();
  return a;
}

// (3) MPU-reconfig / verdict-cache coherence. At the time a kMpuReconfig is
// observed the MPU must already have invalidated its verdict caches: the
// generation counter moved since the last reconfig we saw, and the
// configuration id is unresolved (so no cache hit can happen before the new
// register file is interned). The event payload must agree with the live
// region state.
std::unique_ptr<Automaton> BuildMpuCacheCoherence(const RvEnv& env) {
  struct Ctx {
    uint64_t last_generation = 0;
  };
  auto ctx = std::make_shared<Ctx>();
  const opec_hw::Mpu* mpu = env.mpu;
  auto a = std::make_unique<Automaton>("mpu-cache-coherence");
  const int watch = a->AddState("watch");

  a->AddGuardedRule(watch, EventKind::kMpuReconfig,
                    [ctx, mpu](const Event& ev) {
                      if (mpu == nullptr) return true;  // synthetic stream: nothing to check
                      if (ev.arg0 >= static_cast<uint32_t>(opec_hw::Mpu::kNumRegions)) {
                        return false;
                      }
                      const uint64_t generation = mpu->generation();
                      if (generation <= ctx->last_generation) return false;
                      if (mpu->config_id() != opec_hw::Mpu::kUnresolvedConfig) return false;
                      const opec_hw::MpuRegionConfig& r =
                          mpu->region(static_cast<int>(ev.arg0));
                      if (r.base != ev.arg1 ||
                          opec_obs::PackMpuConfig(r.enabled, r.size_log2, r.srd,
                                                  static_cast<uint8_t>(r.ap)) != ev.arg2) {
                        return false;
                      }
                      ctx->last_generation = generation;
                      return true;
                    },
                    watch);
  a->AddGuardedRule(watch, EventKind::kMpuReconfig,
                    [ctx, mpu](const Event&) {
                      return mpu != nullptr && mpu->generation() <= ctx->last_generation;
                    },
                    Automaton::kViolation,
                    "MPU reconfig without a verdict-cache invalidation");
  a->AddGuardedRule(watch, EventKind::kMpuReconfig,
                    [mpu](const Event&) {
                      return mpu != nullptr &&
                             mpu->config_id() != opec_hw::Mpu::kUnresolvedConfig;
                    },
                    Automaton::kViolation,
                    "MPU reconfig left the verdict key resolved to a stale configuration");
  a->AddRule(watch, EventKind::kMpuReconfig, Automaton::kViolation,
             "kMpuReconfig payload disagrees with the live MPU region state");

  // After a violation, resync so an unrelated later reconfig is judged on
  // its own generation step, not against the stale watermark.
  a->SetResetHook([ctx, mpu]() {
    if (mpu != nullptr) ctx->last_generation = mpu->generation();
  });
  a->Compile();
  return a;
}

// (4) Call-depth balance: kFunctionEnter/kFunctionExit pair LIFO on
// (function ordinal, depth) — the abort unwind emits exits too, so even
// aborted runs balance; only a run that ends mid-call-tree without the
// unwind (a host-side check failure) leaves frames open.
std::unique_ptr<Automaton> BuildCallDepth() {
  struct Ctx {
    std::vector<std::pair<uint32_t, int32_t>> frames;  // (ordinal, depth)
  };
  auto ctx = std::make_shared<Ctx>();
  auto a = std::make_unique<Automaton>("call-depth");
  const int watch = a->AddState("watch");

  a->AddGuardedRule(watch, EventKind::kFunctionEnter,
                    [ctx](const Event& ev) {
                      ctx->frames.emplace_back(ev.arg0, ev.depth);
                      return true;
                    },
                    watch);
  a->AddGuardedRule(watch, EventKind::kFunctionExit,
                    [ctx](const Event& ev) {
                      if (ctx->frames.empty() || ctx->frames.back().first != ev.arg0 ||
                          ctx->frames.back().second != ev.depth) {
                        return false;
                      }
                      ctx->frames.pop_back();
                      return true;
                    },
                    watch);
  a->AddRule(watch, EventKind::kFunctionExit, Automaton::kViolation,
             "function exit does not pair with the innermost open function enter");

  a->SetResetHook([ctx]() { ctx->frames.clear(); });
  a->SetFinishHook([ctx](bool aborted, int) -> std::string {
    if (!aborted && !ctx->frames.empty()) {
      return opec_support::StrPrintf("%zu function frame(s) still open at clean end of run",
                                     ctx->frames.size());
    }
    return "";
  });
  a->Compile();
  return a;
}

}  // namespace

std::vector<std::unique_ptr<Automaton>> BuildStandardMonitors(const RvEnv& env) {
  std::vector<std::unique_ptr<Automaton>> monitors;
  monitors.push_back(BuildSwitchProtocol());
  monitors.push_back(BuildShadowIsolation(env));
  monitors.push_back(BuildMpuCacheCoherence(env));
  monitors.push_back(BuildCallDepth());
  for (size_t i = 0; i < monitors.size(); ++i) {
    OPEC_CHECK(monitors[i]->name() == StandardMonitorNames()[i]);
  }
  return monitors;
}

}  // namespace opec_rv
