// Bytecode-tier differential tests: the VM must be observationally
// indistinguishable from the tree-walking interpreter — same results, same
// modeled cycles and statement counts, same obs-event stream — on every
// bundled application, including under statement limits, attacks and the
// OPEC monitor protocol. The interpreter is the oracle; any mismatch here is
// a lowering or dispatch bug.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "src/apps/all_apps.h"
#include "src/apps/runner.h"
#include "src/compiler/image.h"
#include "src/hw/machine.h"
#include "src/hw/mpu.h"
#include "src/ir/builder.h"
#include "src/obs/event.h"
#include "src/rt/bytecode/vm.h"

namespace opec_test {
namespace {

using opec_apps::AppRun;
using opec_apps::BuildMode;
using opec_apps::EngineKind;

// FNV-1a digest over every field of every event — order-sensitive, so the
// two tiers must emit identical streams in identical order.
class DigestSink : public opec_obs::Sink {
 public:
  void OnEvent(const opec_obs::Event& e) override {
    Mix(static_cast<uint64_t>(e.kind));
    Mix(static_cast<uint64_t>(static_cast<int64_t>(e.operation_id)));
    Mix(static_cast<uint64_t>(static_cast<int64_t>(e.depth)));
    Mix(e.cycle);
    Mix(e.arg0);
    Mix(e.arg1);
    Mix(e.arg2);
  }
  uint64_t digest() const { return h_; }

 private:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001B3ull;
    }
  }
  uint64_t h_ = 0xCBF29CE484222325ull;
};

struct TierObservation {
  bool ok = false;
  std::string violation;
  uint32_t return_value = 0;
  uint64_t cycles = 0;
  uint64_t statements = 0;
  uint64_t events_digest = 0;
  std::string check;
};

TierObservation Observe(const opec_apps::AppFactory& factory, BuildMode mode,
                        EngineKind engine, uint64_t statement_limit = 0) {
  auto app = factory.make();
  AppRun run(*app, mode, engine);
  DigestSink sink;
  run.AttachSink(&sink);
  if (statement_limit != 0) {
    run.engine().set_statement_limit(statement_limit);
  }
  opec_rt::RunResult r = run.Execute();
  TierObservation obs;
  obs.ok = r.ok;
  obs.violation = r.violation;
  obs.return_value = r.return_value;
  obs.cycles = r.cycles;
  obs.statements = r.statements;
  obs.events_digest = sink.digest();
  obs.check = run.Check();
  return obs;
}

void ExpectIdentical(const TierObservation& interp, const TierObservation& bc,
                     const std::string& label) {
  EXPECT_EQ(interp.ok, bc.ok) << label;
  EXPECT_EQ(interp.violation, bc.violation) << label;
  EXPECT_EQ(interp.return_value, bc.return_value) << label;
  EXPECT_EQ(interp.cycles, bc.cycles) << label;
  EXPECT_EQ(interp.statements, bc.statements) << label;
  EXPECT_EQ(interp.events_digest, bc.events_digest) << label;
  EXPECT_EQ(interp.check, bc.check) << label;
}

// Every app, both build modes: the full observation tuple must match.
TEST(BytecodeTier, AllAppsBothModesBitIdentical) {
  for (const opec_apps::AppFactory& factory : opec_apps::AllApps()) {
    for (BuildMode mode : {BuildMode::kVanilla, BuildMode::kOpec}) {
      std::string label = std::string(factory.name) +
                          (mode == BuildMode::kOpec ? "/opec" : "/vanilla");
      TierObservation interp = Observe(factory, mode, EngineKind::kInterp);
      TierObservation bc = Observe(factory, mode, EngineKind::kBytecode);
      ExpectIdentical(interp, bc, label);
      EXPECT_EQ(interp.check, "") << label;
    }
  }
}

// Statement-limit aborts must fire after the exact same statement, with the
// exact same cycle count (the per-instruction accounting replay): sweep a
// band of limits so crossings land mid-batch, not only on batch boundaries.
TEST(BytecodeTier, StatementLimitAbortParity) {
  const std::vector<opec_apps::AppFactory> apps = opec_apps::AllApps();
  const opec_apps::AppFactory& factory = apps[0];
  for (uint64_t limit : {1ull, 7ull, 100ull, 1001ull, 4999ull, 20000ull}) {
    for (BuildMode mode : {BuildMode::kVanilla, BuildMode::kOpec}) {
      std::string label = std::string(factory.name) + " limit=" + std::to_string(limit) +
                          (mode == BuildMode::kOpec ? " opec" : " vanilla");
      TierObservation interp = Observe(factory, mode, EngineKind::kInterp, limit);
      TierObservation bc = Observe(factory, mode, EngineKind::kBytecode, limit);
      ExpectIdentical(interp, bc, label);
      EXPECT_FALSE(interp.ok) << label;  // limits chosen to abort every app
    }
  }
}

// Injected attacks (the paper's threat-model primitive) must fire at the same
// occurrence, be blocked identically, and leave identical modeled state.
TEST(BytecodeTier, AttackInjectionParity) {
  const std::vector<opec_apps::AppFactory> apps = opec_apps::AllApps();
  const opec_apps::AppFactory& factory = apps[0];
  auto observe_with_attack = [&](EngineKind engine) {
    auto app = factory.make();
    AppRun run(*app, BuildMode::kOpec, engine);
    const auto& ops = run.compile()->policy.operations;
    opec_rt::AttackSpec attack;
    attack.function = ops.front().entry;
    attack.addr = ops.back().section_base;
    attack.value = 0x41414141;
    run.AddAttack(attack);
    DigestSink sink;
    run.AttachSink(&sink);
    opec_rt::RunResult r = run.Execute();
    TierObservation obs;
    obs.ok = r.ok;
    obs.violation = r.violation;
    obs.return_value = r.return_value;
    obs.cycles = r.cycles;
    obs.statements = r.statements;
    obs.events_digest = sink.digest();
    obs.check = run.Check();
    EXPECT_EQ(run.engine().attacks()[0].fired, true);
    return obs;
  };
  ExpectIdentical(observe_with_attack(EngineKind::kInterp),
                  observe_with_attack(EngineKind::kBytecode), "attack");
}

// The lowered module itself: every function gets an entry, and the verdict
// cache has one slot per instruction.
TEST(BytecodeTier, LoweringShape) {
  auto app = opec_apps::AllApps()[0].make();
  AppRun run(*app, BuildMode::kOpec, EngineKind::kBytecode);
  auto& vm = static_cast<opec_rt::bytecode::VM&>(run.engine());
  const opec_rt::bytecode::BytecodeModule& bc = vm.Bytecode();
  EXPECT_FALSE(bc.code.empty());
  EXPECT_EQ(bc.funcs.size(), run.module().functions().size());
  EXPECT_GT(bc.max_regs, 0u);
}

// The peephole superinstructions must actually fire: a representative app
// contains constant-operand arithmetic, compare-and-branch shapes, and
// indexed/offset addressing, so their fused forms must appear in the stream.
// (Their semantics are covered by the differential tests; this pins the
// lowering itself so a regressed peephole cannot silently fall back to the
// unfused forms.)
TEST(BytecodeTier, SuperinstructionsFire) {
  using opec_rt::bytecode::Op;
  std::map<Op, uint32_t> histo;
  for (const opec_apps::AppFactory& factory : opec_apps::AllApps()) {
    auto app = factory.make();
    AppRun run(*app, BuildMode::kOpec, EngineKind::kBytecode);
    auto& vm = static_cast<opec_rt::bytecode::VM&>(run.engine());
    for (const opec_rt::bytecode::Insn& ins : vm.Bytecode().code) {
      ++histo[ins.op];
    }
  }
  EXPECT_GT(histo[Op::kBinaryImm], 0u);
  EXPECT_GT(histo[Op::kBrCmpFalse] + histo[Op::kBrCmpImmFalse], 0u);
  EXPECT_GT(histo[Op::kLoadIdx] + histo[Op::kStoreIdx], 0u);
  for (const auto& [op, n] : histo) {
    std::printf("  %-14s %u\n", opec_rt::bytecode::OpName(op), n);
  }
}

// AllowedRange: verdicts match CheckAccess, and the returned interval is
// uniform — the contract the VM's verdict cache rests on.
TEST(BytecodeTier, MpuAllowedRangeContract) {
  opec_hw::Mpu mpu;
  uint32_t lo = 0;
  uint32_t hi = 0;
  // Disabled MPU: one allow interval spanning the whole address space.
  EXPECT_TRUE(mpu.AllowedRange(0x20000100u, opec_hw::AccessKind::kWrite, false, &lo, &hi));
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 0xFFFFFFFFu);

  mpu.set_enabled(true);
  opec_hw::MpuRegionConfig cfg;
  cfg.enabled = true;
  cfg.base = 0x20000000u;
  cfg.size_log2 = 10;  // 1 KB, 128-byte sub-regions
  cfg.srd = 0x02;      // sub-region 1 disabled
  cfg.ap = opec_hw::AccessPerm::kFullAccess;
  mpu.ConfigureRegion(0, cfg);

  // Inside sub-region 0: allowed, interval exactly that sub-region.
  EXPECT_TRUE(mpu.AllowedRange(0x20000010u, opec_hw::AccessKind::kWrite, false, &lo, &hi));
  EXPECT_EQ(lo, 0x20000000u);
  EXPECT_EQ(hi, 0x2000007Fu);
  // Inside the disabled sub-region: falls through to the background map,
  // denied for unprivileged, and the interval must not leak past it.
  EXPECT_FALSE(mpu.AllowedRange(0x20000080u, opec_hw::AccessKind::kWrite, false, &lo, &hi));
  EXPECT_EQ(lo, 0x20000080u);
  EXPECT_EQ(hi, 0x200000FFu);
  // Outside every region: background map, privileged-only, clipped at the
  // region's end so re-entering the region can't reuse this verdict.
  EXPECT_TRUE(mpu.AllowedRange(0x20000400u, opec_hw::AccessKind::kRead, true, &lo, &hi));
  EXPECT_EQ(lo, 0x20000400u);
  EXPECT_EQ(hi, 0xFFFFFFFFu);
  EXPECT_FALSE(mpu.AllowedRange(0x20000400u, opec_hw::AccessKind::kRead, false, &lo, &hi));
}

// Regression: a verdict cached while the MPU was disabled (AllowedRange
// answers allow-all there) must not survive enabling the MPU with no region
// write in between. The enable bit is part of the verdict key.
TEST(BytecodeTier, EnablingTheMpuDropsAllowAllVerdicts) {
  opec_ir::Module module("enable");
  auto& tt = module.types();
  const opec_ir::GlobalVariable* g = module.AddGlobal("g", tt.U32());
  auto* fn = module.AddFunction("main", tt.FunctionTy(tt.U32(), {}), {});
  opec_ir::FunctionBuilder b(module, fn);
  b.Ret(b.G("g"));
  b.Finish();

  opec_hw::Machine machine(opec_hw::Board::kStm32F4Discovery);
  opec_compiler::VanillaImage image =
      opec_compiler::BuildVanillaImage(module, machine.board().board);
  opec_compiler::LoadGlobals(machine, module, image.layout);
  // All of SRAM readable and writable, except the 32-byte window holding g.
  opec_hw::MpuRegionConfig sram;
  sram.enabled = true;
  sram.base = opec_hw::kSramBase;
  sram.size_log2 = 20;
  sram.ap = opec_hw::AccessPerm::kFullAccess;
  machine.mpu().ConfigureRegion(0, sram);
  opec_hw::MpuRegionConfig guard;
  guard.enabled = true;
  guard.base = image.layout.AddrOf(g) & ~31u;
  guard.size_log2 = 5;
  guard.ap = opec_hw::AccessPerm::kNoAccess;
  machine.mpu().ConfigureRegion(1, guard);
  machine.set_privileged(false);

  opec_rt::bytecode::VM vm(machine, module, image.layout);
  opec_rt::RunResult off = vm.Run();
  ASSERT_TRUE(off.ok) << off.violation;  // MPU off: the load is allowed

  machine.mpu().set_enabled(true);
  opec_rt::RunResult on = vm.Run();
  EXPECT_FALSE(on.ok);
  EXPECT_NE(on.violation.find("MemManage"), std::string::npos) << on.violation;
}

}  // namespace
}  // namespace opec_test
