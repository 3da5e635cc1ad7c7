// Tests for the runtime-verification subsystem (src/rv, DESIGN.md §15): the
// automaton framework on synthetic event streams, the four standard monitors
// against hand-built protocol breaks, and the end-to-end contract on real
// workloads — clean runs trip nothing on either engine, blocked attacks trip
// the matching automaton, and the deterministic report is byte-identical
// across execution tiers.

#include "src/rv/rv.h"

#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/apps/all_apps.h"
#include "src/apps/runner.h"
#include "src/hw/mpu.h"
#include "src/obs/event.h"
#include "src/rv/automaton.h"
#include "src/rv/monitors.h"

namespace {

using opec_obs::Event;
using opec_obs::EventKind;
using opec_rv::Automaton;
using opec_rv::BuildStandardMonitors;
using opec_rv::RvEnv;
using opec_rv::RvSink;
using opec_rv::StandardMonitorNames;

Event Ev(EventKind kind, uint32_t arg0 = 0, uint32_t arg1 = 0, uint32_t arg2 = 0,
         int32_t op = -1, int32_t depth = 0) {
  return Event::Make(kind, /*cycle=*/0, op, depth, arg0, arg1, arg2);
}

// --- Automaton framework -------------------------------------------------

TEST(AutomatonTest, RulesTransitionAndViolate) {
  Automaton a("toy");
  int s0 = a.AddState("closed");
  int s1 = a.AddState("open");
  a.AddRule(s0, EventKind::kSvc, s1);
  a.AddRule(s1, EventKind::kOperationEnter, s0);
  a.AddRule(s1, EventKind::kSvc, Automaton::kViolation, "nested svc");
  a.Compile();

  EXPECT_FALSE(a.Step(Ev(EventKind::kSvc)));
  EXPECT_EQ(a.current_state(), s1);
  EXPECT_FALSE(a.Step(Ev(EventKind::kOperationEnter)));
  EXPECT_EQ(a.current_state(), s0);
  EXPECT_EQ(a.violations(), 0u);

  EXPECT_FALSE(a.Step(Ev(EventKind::kSvc)));
  EXPECT_TRUE(a.Step(Ev(EventKind::kSvc)));  // "nested svc"
  EXPECT_EQ(a.violations(), 1u);
  EXPECT_EQ(a.last_violation_message(), "nested svc");
  EXPECT_EQ(a.last_violation_state(), s1);
  // A violation resets to the initial state.
  EXPECT_EQ(a.current_state(), s0);
}

TEST(AutomatonTest, NonStrictStatesSelfLoopStrictStatesViolate) {
  Automaton a("strictness");
  int loose = a.AddState("loose");
  int strict = a.AddState("strict", /*strict=*/true);
  a.AddRule(loose, EventKind::kSvc, strict);
  a.AddRule(strict, EventKind::kSvc, loose);
  a.Compile();

  // No rule for kMemFault in the loose state: self-loop, no violation.
  EXPECT_FALSE(a.Step(Ev(EventKind::kMemFault)));
  EXPECT_EQ(a.current_state(), loose);

  EXPECT_FALSE(a.Step(Ev(EventKind::kSvc)));
  EXPECT_EQ(a.current_state(), strict);
  // No rule for kMemFault in the strict state: violation.
  EXPECT_TRUE(a.Step(Ev(EventKind::kMemFault)));
  EXPECT_EQ(a.violations(), 1u);
  EXPECT_NE(a.last_violation_message().find("unexpected"), std::string::npos);
}

TEST(AutomatonTest, GuardedRulesAreFirstMatchWins) {
  Automaton a("guards");
  int s0 = a.AddState("s0");
  int s1 = a.AddState("s1");
  int s2 = a.AddState("s2");
  a.AddGuardedRule(s0, EventKind::kSvc, [](const Event& e) { return e.arg0 == 7; }, s1);
  a.AddRule(s0, EventKind::kSvc, s2);
  a.Compile();

  a.Step(Ev(EventKind::kSvc, /*arg0=*/7));
  EXPECT_EQ(a.current_state(), s1);

  Automaton b("guards2");
  b.AddState("s0");
  int b1 = b.AddState("s1");
  int b2 = b.AddState("s2");
  b.AddGuardedRule(0, EventKind::kSvc, [](const Event& e) { return e.arg0 == 7; }, b1);
  b.AddRule(0, EventKind::kSvc, b2);
  b.Compile();
  b.Step(Ev(EventKind::kSvc, /*arg0=*/3));  // guard fails -> unguarded rule
  EXPECT_EQ(b.current_state(), b2);
}

TEST(AutomatonTest, ResetHookRunsOnViolation) {
  int resets = 0;
  Automaton a("reset");
  a.AddState("s0", /*strict=*/true);
  a.SetResetHook([&resets] { ++resets; });
  a.Compile();
  EXPECT_TRUE(a.Step(Ev(EventKind::kSvc)));
  EXPECT_EQ(resets, 1);
}

TEST(AutomatonTest, FinishHookFiresOnceAndCountsAsViolation) {
  Automaton a("finish");
  a.AddState("s0");
  int open = a.AddState("open");
  a.AddRule(0, EventKind::kSvc, open);
  a.SetFinishHook([](bool aborted, int state) -> std::string {
    if (!aborted && state != 0) {
      return "ended mid-window";
    }
    return "";
  });
  a.Compile();
  a.Step(Ev(EventKind::kSvc));
  EXPECT_TRUE(a.Finish(/*aborted=*/false));
  EXPECT_EQ(a.violations(), 1u);
  EXPECT_EQ(a.last_violation_message(), "ended mid-window");
  // Idempotent: a second Finish neither fires nor recounts.
  EXPECT_FALSE(a.Finish(false));
  EXPECT_EQ(a.violations(), 1u);
}

TEST(AutomatonTest, VisitedStatesTracksDistinctStates) {
  Automaton a("visited");
  a.AddState("s0");
  int s1 = a.AddState("s1");
  a.AddState("s2");  // never visited
  a.AddRule(0, EventKind::kSvc, s1);
  a.AddRule(s1, EventKind::kSvc, 0);
  a.Compile();
  EXPECT_EQ(a.visited_states(), 1u);  // initial state counts
  a.Step(Ev(EventKind::kSvc));
  a.Step(Ev(EventKind::kSvc));
  a.Step(Ev(EventKind::kSvc));
  EXPECT_EQ(a.visited_states(), 2u);
  EXPECT_EQ(a.state_count(), 3u);
}

// --- Standard monitors on synthetic streams ------------------------------

std::unique_ptr<RvSink> SyntheticSink() {
  RvEnv env;  // no MPU, no shadow owners, vanilla-style
  return std::make_unique<RvSink>(BuildStandardMonitors(env));
}

TEST(StandardMonitors, CleanSwitchWindowPasses) {
  RvEnv env;
  env.opec_mode = true;
  env.shadow_owners = {{2, 0}, {2, 1}};
  RvSink sink(BuildStandardMonitors(env));
  // enter op 2: svc, write-back, copy-in, reconfig, enter.
  sink.OnEvent(Ev(EventKind::kSvc, /*op target=*/2, /*enter=*/0, 0, /*op=*/-1));
  sink.OnEvent(Ev(EventKind::kShadowSync, 1, 4, opec_obs::kSyncWriteBack, 2));
  sink.OnEvent(Ev(EventKind::kShadowSync, 0, 4, opec_obs::kSyncCopyIn, 2));
  sink.OnEvent(Ev(EventKind::kMpuReconfig, 0, 0x20000000, 0, Event::kNoOperation));
  sink.OnEvent(Ev(EventKind::kOperationEnter, 2, static_cast<uint32_t>(-1), 0, 2));
  // exit op 2 mirrored.
  sink.OnEvent(Ev(EventKind::kSvc, 2, /*exit=*/1, 0, 2));
  sink.OnEvent(Ev(EventKind::kShadowSync, 1, 4, opec_obs::kSyncWriteBack, 2));
  sink.OnEvent(Ev(EventKind::kMpuReconfig, 0, 0x20000000, 0, Event::kNoOperation));
  sink.OnEvent(Ev(EventKind::kOperationExit, 2, static_cast<uint32_t>(-1), 0, 2));
  sink.Finish(/*run_aborted=*/false);
  EXPECT_EQ(sink.total_violations(), 0u) << sink.Report();
}

TEST(StandardMonitors, LooseShadowSyncViolatesSwitchProtocol) {
  auto sink = SyntheticSink();
  sink->OnEvent(Ev(EventKind::kShadowSync, 0, 4, opec_obs::kSyncCopyIn));
  sink->Finish(false);
  std::vector<uint64_t> by = sink->ViolationsByMonitor();
  EXPECT_GE(by[0], 1u);  // switch-protocol
  ASSERT_FALSE(sink->details().empty());
  EXPECT_EQ(sink->details()[0].automaton, "switch-protocol");
}

TEST(StandardMonitors, MidWindowAbortIsFlaggedByFinish) {
  auto sink = SyntheticSink();
  // A window opens but the run aborts before the enter event: the unwind's
  // kFunctionExit lands in a strict window state.
  sink->OnEvent(Ev(EventKind::kSvc, 2, 0));
  sink->OnEvent(Ev(EventKind::kShadowSync, 0, 4, opec_obs::kSyncWriteBack));
  sink->OnEvent(Ev(EventKind::kFunctionExit, 5, 0, 0, -1, 1));
  sink->Finish(/*run_aborted=*/true);
  std::vector<uint64_t> by = sink->ViolationsByMonitor();
  EXPECT_GE(by[0], 1u) << sink->Report();
}

TEST(StandardMonitors, UnresolvedFaultViolatesShadowIsolation) {
  auto sink = SyntheticSink();
  sink->OnEvent(Ev(EventKind::kMemFault, 0x20001000, 4,
                   opec_obs::kFaultWrite | opec_obs::kFaultAttack));
  sink->Finish(false);
  std::vector<uint64_t> by = sink->ViolationsByMonitor();
  EXPECT_EQ(by[1], 1u);  // shadow-isolation
  // A resolved fault (demand-mapped peripheral) is not a violation.
  auto sink2 = SyntheticSink();
  sink2->OnEvent(Ev(EventKind::kMemFault, 0x40000000, 4,
                    opec_obs::kFaultWrite | opec_obs::kFaultResolved));
  sink2->Finish(false);
  EXPECT_EQ(sink2->total_violations(), 0u);
}

TEST(StandardMonitors, UnownedShadowSyncViolatesShadowIsolation) {
  RvEnv env;
  env.opec_mode = true;
  env.shadow_owners = {{1, 0}};
  RvSink sink(BuildStandardMonitors(env));
  // Open a window so switch-protocol accepts the sync; attribute the sync to
  // op 2 which owns nothing.
  sink.OnEvent(Ev(EventKind::kSvc, 2, 0));
  sink.OnEvent(Ev(EventKind::kShadowSync, 0, 4, opec_obs::kSyncCopyIn, /*op=*/2));
  std::vector<uint64_t> by = sink.ViolationsByMonitor();
  EXPECT_EQ(by[1], 1u) << sink.Report();
}

TEST(StandardMonitors, MpuCoherenceCrossChecksTheLiveMpu) {
  opec_hw::Mpu mpu;
  RvEnv env;
  env.mpu = &mpu;
  RvSink sink(BuildStandardMonitors(env));

  opec_hw::MpuRegionConfig cfg;
  cfg.enabled = true;
  cfg.base = 0x20000000;
  cfg.size_log2 = 8;
  cfg.ap = opec_hw::AccessPerm::kFullAccess;
  mpu.ConfigureRegion(0, cfg);
  uint32_t packed = opec_obs::PackMpuConfig(true, 8, 0,
                                            static_cast<uint8_t>(cfg.ap));
  // Matching payload + bumped generation: clean.
  sink.OnEvent(Ev(EventKind::kMpuReconfig, 0, 0x20000000, packed, Event::kNoOperation));
  EXPECT_EQ(sink.total_violations(), 0u) << sink.Report();

  // Replaying the event without any reconfiguration: the verdict cache was
  // not invalidated since the last observed reconfig.
  sink.OnEvent(Ev(EventKind::kMpuReconfig, 0, 0x20000000, packed, Event::kNoOperation));
  std::vector<uint64_t> by = sink.ViolationsByMonitor();
  EXPECT_EQ(by[2], 1u) << sink.Report();
  ASSERT_FALSE(sink.details().empty());
  EXPECT_NE(sink.details()[0].message.find("verdict-cache"), std::string::npos);

  // Reconfigure for real but report a payload that disagrees with the live
  // region state.
  mpu.ConfigureRegion(0, cfg);
  sink.OnEvent(Ev(EventKind::kMpuReconfig, 0, 0xDEAD0000, packed, Event::kNoOperation));
  by = sink.ViolationsByMonitor();
  EXPECT_EQ(by[2], 2u) << sink.Report();
}

TEST(StandardMonitors, MpuCoherenceRequiresAnUnresolvedVerdictKey) {
  opec_hw::Mpu mpu;
  mpu.set_enabled(true);
  RvEnv env;
  env.mpu = &mpu;
  RvSink sink(BuildStandardMonitors(env));

  opec_hw::MpuRegionConfig cfg;
  cfg.enabled = true;
  cfg.base = 0x20000000;
  cfg.size_log2 = 8;
  cfg.ap = opec_hw::AccessPerm::kFullAccess;
  uint32_t packed = opec_obs::PackMpuConfig(true, 8, 0, static_cast<uint8_t>(cfg.ap));
  mpu.ConfigureRegion(0, cfg);
  sink.OnEvent(Ev(EventKind::kMpuReconfig, 0, 0x20000000, packed, Event::kNoOperation));
  EXPECT_EQ(sink.total_violations(), 0u) << sink.Report();

  // The generation moved and the payload matches, but a verdict-slot fill
  // resolved the key before the event was seen: a verdict could have been
  // served under a key that was not re-derived from the new register file.
  mpu.ConfigureRegion(0, cfg);
  mpu.ResolveConfigId();
  ASSERT_NE(mpu.config_id(), opec_hw::Mpu::kUnresolvedConfig);
  sink.OnEvent(Ev(EventKind::kMpuReconfig, 0, 0x20000000, packed, Event::kNoOperation));
  std::vector<uint64_t> by = sink.ViolationsByMonitor();
  EXPECT_EQ(by[2], 1u) << sink.Report();
  ASSERT_FALSE(sink.details().empty());
  EXPECT_NE(sink.details()[0].message.find("verdict key"), std::string::npos);
}

TEST(StandardMonitors, CallDepthPairsLifo) {
  auto sink = SyntheticSink();
  sink->OnEvent(Ev(EventKind::kFunctionEnter, 1, 0, 0, -1, 1));
  sink->OnEvent(Ev(EventKind::kFunctionEnter, 2, 0, 0, -1, 2));
  sink->OnEvent(Ev(EventKind::kFunctionExit, 2, 0, 0, -1, 2));
  sink->OnEvent(Ev(EventKind::kFunctionExit, 1, 0, 0, -1, 1));
  sink->Finish(false);
  EXPECT_EQ(sink->total_violations(), 0u);

  auto bad = SyntheticSink();
  bad->OnEvent(Ev(EventKind::kFunctionEnter, 1, 0, 0, -1, 1));
  bad->OnEvent(Ev(EventKind::kFunctionExit, 9, 0, 0, -1, 1));  // wrong function
  bad->Finish(false);
  std::vector<uint64_t> by = bad->ViolationsByMonitor();
  EXPECT_EQ(by[3], 1u) << bad->Report();

  auto open = SyntheticSink();
  open->OnEvent(Ev(EventKind::kFunctionEnter, 1, 0, 0, -1, 1));
  open->Finish(/*run_aborted=*/false);  // clean end with an open frame
  by = open->ViolationsByMonitor();
  EXPECT_EQ(by[3], 1u) << open->Report();
}

// --- End-to-end on the real workloads ------------------------------------

TEST(RvEndToEnd, CleanRunsHaveZeroViolationsOnBothEngines) {
  for (const opec_apps::AppFactory& factory : opec_apps::AllApps()) {
    std::unique_ptr<opec_apps::Application> app = factory.make();
    for (opec_apps::BuildMode mode :
         {opec_apps::BuildMode::kVanilla, opec_apps::BuildMode::kOpec}) {
      for (opec_apps::EngineKind engine :
           {opec_apps::EngineKind::kInterp, opec_apps::EngineKind::kBytecode}) {
        opec_apps::AppRun run(*app, mode, engine);
        run.EnableRv();
        opec_rt::RunResult r = run.Execute();
        ASSERT_TRUE(r.ok) << factory.name << ": " << r.violation;
        EXPECT_EQ(run.rv()->total_violations(), 0u)
            << factory.name << " "
            << (mode == opec_apps::BuildMode::kOpec ? "opec" : "vanilla") << " "
            << opec_apps::EngineKindName(engine) << "\n"
            << run.rv()->Report();
        // OPEC runs actually exercise the protocol automaton.
        if (mode == opec_apps::BuildMode::kOpec) {
          EXPECT_GT(run.rv()->states_visited(),
                    static_cast<uint64_t>(StandardMonitorNames().size()))
              << factory.name;
        }
      }
    }
  }
}

TEST(RvEndToEnd, ReportIsByteIdenticalAcrossEngines) {
  for (const opec_apps::AppFactory& factory : opec_apps::AllApps()) {
    std::unique_ptr<opec_apps::Application> app = factory.make();
    for (opec_apps::BuildMode mode :
         {opec_apps::BuildMode::kVanilla, opec_apps::BuildMode::kOpec}) {
      std::string reports[2];
      int i = 0;
      for (opec_apps::EngineKind engine :
           {opec_apps::EngineKind::kInterp, opec_apps::EngineKind::kBytecode}) {
        opec_apps::AppRun run(*app, mode, engine);
        run.EnableRv();
        ASSERT_TRUE(run.Execute().ok);
        reports[i++] = run.rv()->Report();
      }
      EXPECT_EQ(reports[0], reports[1]) << factory.name;
      EXPECT_EQ(reports[0].rfind("RV report", 0), 0u);
    }
  }
}

TEST(RvEndToEnd, BlockedCrossSectionWriteTripsShadowIsolation) {
  for (const opec_apps::AppFactory& factory : opec_apps::AllApps()) {
    std::unique_ptr<opec_apps::Application> app = factory.make();
    opec_apps::AppRun run(*app, opec_apps::BuildMode::kOpec);
    const opec_compiler::Policy& policy = run.compile()->policy;
    const opec_compiler::OperationPolicy* attacker = nullptr;
    const opec_compiler::OperationPolicy* victim = nullptr;
    for (const auto& op : policy.operations) {
      if (op.id != policy.default_op_id && attacker == nullptr) {
        attacker = &op;
      } else if (op.has_section && attacker != nullptr && op.id != attacker->id) {
        victim = &op;
      }
    }
    if (attacker == nullptr || victim == nullptr) {
      continue;
    }
    opec_rt::AttackSpec attack;
    attack.function = attacker->entry;
    attack.addr = victim->section_base;
    attack.value = 0x41414141;
    run.AddAttack(attack);
    run.EnableRv();
    opec_rt::RunResult r = run.Execute();
    ASSERT_TRUE(r.ok) << factory.name << ": " << r.violation;
    const opec_rt::AttackSpec& echoed = run.engine().attacks()[0];
    if (!echoed.fired || !echoed.blocked) {
      continue;
    }
    std::vector<uint64_t> by = run.rv()->ViolationsByMonitor();
    EXPECT_GE(by[1], 1u) << factory.name << ": blocked attack tripped no monitor\n"
                         << run.rv()->Report();
    ASSERT_FALSE(run.rv()->details().empty()) << factory.name;
    const opec_rv::RvViolation& v = run.rv()->details()[0];
    EXPECT_EQ(v.automaton, "shadow-isolation");
    EXPECT_FALSE(v.recent.empty()) << "violation carries no event context";
  }
}

TEST(RvEndToEnd, ViolationDetailsCarryOffendingEventAndContext) {
  auto sink = SyntheticSink();
  for (int i = 0; i < 5; ++i) {
    sink->OnEvent(Ev(EventKind::kFunctionEnter, static_cast<uint32_t>(i), 0, 0, -1, i));
  }
  sink->OnEvent(Ev(EventKind::kMemFault, 0x20001000, 4, opec_obs::kFaultWrite));
  ASSERT_EQ(sink->details().size(), 1u);
  const opec_rv::RvViolation& v = sink->details()[0];
  EXPECT_EQ(v.event.kind, EventKind::kMemFault);
  EXPECT_EQ(v.recent.size(), 5u);
  EXPECT_NE(opec_rv::FormatEvent(v.event).find("mem_fault"), std::string::npos)
      << opec_rv::FormatEvent(v.event);
}

}  // namespace
