// Pinned-seed regression tests for divergences surfaced by the differential
// fuzzer (DESIGN.md Section 12.4). Each test reproduces one historical bug at
// the seed that found it, plus a direct unit-level repro where one exists:
// every test here fails on the pre-fix code.
//
// Corpus note: the pinned seeds below are the canonical corpus; when a future
// sweep diverges, `campaign --fuzz-count N --corpus-dir DIR [--shrink]` dumps
// the (minimized) recipe as a standalone IR listing plus the oracle report.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/fuzz/generator.h"
#include "src/fuzz/oracles.h"
#include "src/fuzz/program.h"
#include "src/hw/mpu.h"

namespace opec_fuzz {
namespace {

using opec_hw::AccessKind;
using opec_hw::AccessPerm;
using opec_hw::Mpu;
using opec_hw::MpuRegionConfig;

// Seed 107008: the MPU-cache oracle's CheckRange probe reported
//   CheckRange(0xFFFFFFF3, len=35, write, unpriv) ranged=1 per-byte=0
// — a 35-byte range wrapping the top of the 32-bit address space was allowed
// wholesale. Root cause: CheckRange computed its last probe window with a
// 32-bit ~31u mask, so addr + len - 1 truncated below first_window and the
// probe loop never ran. Fixed with a 64-bit window walk in src/hw/mpu.cc.
TEST(FuzzRegressionTest, MpuCheckRangeWrappingRangeIsProbed_Seed107008) {
  // Direct repro: MPU enabled, no regions. The background map (PRIVDEFENA)
  // denies every unprivileged access, so a wrapped range must be denied too.
  Mpu mpu;
  mpu.set_enabled(true);
  EXPECT_FALSE(mpu.CheckRange(0xFFFFFFF3u, 35, AccessKind::kWrite, /*privileged=*/false));
  EXPECT_TRUE(mpu.CheckRange(0xFFFFFFF3u, 35, AccessKind::kWrite, /*privileged=*/true));
}

TEST(FuzzRegressionTest, MpuCheckRangeWrapProbesTheWrappedTail) {
  // A region grants the bytes below 2^32 but nothing maps address 0, so the
  // wrapped tail of the range decides: pre-fix the loop skipped every probe
  // and allowed the whole range.
  Mpu mpu;
  mpu.set_enabled(true);
  MpuRegionConfig top;
  top.enabled = true;
  top.base = 0xFFFFFF00u;
  top.size_log2 = 8;  // 256 bytes: 0xFFFFFF00..0xFFFFFFFF
  top.ap = AccessPerm::kFullAccess;
  mpu.ConfigureRegion(0, top);
  // Entirely inside the region: allowed.
  EXPECT_TRUE(mpu.CheckRange(0xFFFFFFF3u, 13, AccessKind::kWrite, false));
  // Wraps into unmapped address 0: the tail must deny the range.
  EXPECT_FALSE(mpu.CheckRange(0xFFFFFFF3u, 35, AccessKind::kWrite, false));
  // Map page zero too and the wrapped range becomes legal again.
  MpuRegionConfig zero;
  zero.enabled = true;
  zero.base = 0;
  zero.size_log2 = 8;
  zero.ap = AccessPerm::kFullAccess;
  mpu.ConfigureRegion(1, zero);
  EXPECT_TRUE(mpu.CheckRange(0xFFFFFFF3u, 35, AccessKind::kWrite, false));
}

TEST(FuzzRegressionTest, MpuCacheOracleIsClean_Seed107008) {
  // The full oracle replay at the finding seed: cached CheckAccess, uncached
  // CheckAccessUncached and ranged CheckRange must agree on all 300 steps.
  std::vector<Divergence> divs = DiffMpuCache(107008);
  EXPECT_TRUE(divs.empty()) << divs[0].detail;
}

// Seeds 4 and 8: early generator builds let random assignments target the
// bounded-loop counter variables (i0, i1, ...), resetting the counter inside
// the loop body — the generated "terminating" program spun until the engine's
// statement limit. The generator now draws assignment targets only from its
// writable-locals pool, which never contains loop counters.
TEST(FuzzRegressionTest, GeneratedProgramsTerminate_Seeds4And8) {
  for (uint64_t seed : {4u, 8u}) {
    ProgramSpec spec = GenerateProgram(seed);
    ExecObservation obs = RunOnce(spec, opec_apps::BuildMode::kVanilla);
    EXPECT_FALSE(obs.build_error) << "seed " << seed << ": " << obs.build_error_msg;
    EXPECT_TRUE(obs.run_ok) << "seed " << seed << ": " << obs.violation;
  }
}

void CollectLoopVars(const std::vector<FStmt>& body, std::set<std::string>* vars) {
  for (const FStmt& s : body) {
    if (s.k == FStmt::K::kLoop) {
      vars->insert(s.loop_var);
    }
    CollectLoopVars(s.body, vars);
    CollectLoopVars(s.orelse, vars);
  }
}

bool AssignsToAny(const std::vector<FStmt>& body, const std::set<std::string>& vars) {
  for (const FStmt& s : body) {
    if (s.k == FStmt::K::kAssign && s.lhs.k == FExpr::K::kLocal &&
        vars.count(s.lhs.name) > 0) {
      return true;
    }
    if (AssignsToAny(s.body, vars) || AssignsToAny(s.orelse, vars)) {
      return true;
    }
  }
  return false;
}

TEST(FuzzRegressionTest, GeneratorNeverAssignsToLoopCounters) {
  // The structural invariant behind the seed-4/8 fix, checked broadly.
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    ProgramSpec spec = GenerateProgram(seed);
    for (const FFunc& f : spec.funcs) {
      std::set<std::string> loop_vars;
      CollectLoopVars(f.body, &loop_vars);
      EXPECT_FALSE(AssignsToAny(f.body, loop_vars))
          << "seed " << seed << " fn " << f.name << " clobbers a loop counter";
    }
  }
}

// Seeds 3, 6 and 9: the execution oracle originally compared pointer-valued
// globals as raw little-endian bytes, flagging every recipe with a pointer
// global — the vanilla and OPEC layouts legitimately place targets at
// different addresses. Finals now render pointers symbolically ("ptr:g2+0",
// "fn:helper0"), resolving OPEC addresses through every shadow placement.
TEST(FuzzRegressionTest, PointerFinalsCompareSymbolically_Seeds3And6And9) {
  for (uint64_t seed : {3u, 6u, 9u}) {
    ProgramSpec spec = GenerateProgram(seed);
    ExecObservation vanilla = RunOnce(spec, opec_apps::BuildMode::kVanilla);
    ExecObservation opec = RunOnce(spec, opec_apps::BuildMode::kOpec);
    std::vector<Divergence> divs = CompareExec(spec, vanilla, opec);
    EXPECT_TRUE(divs.empty()) << "seed " << seed << ": " << divs[0].detail;
  }
}

TEST(FuzzRegressionTest, PointerFinalsRenderSymbolicTargets) {
  // Find a recipe with a pointer global and pin the rendering: its final must
  // name a symbolic target, never a raw layout address.
  bool checked = false;
  for (uint64_t seed = 1; seed <= 30 && !checked; ++seed) {
    ProgramSpec spec = GenerateProgram(seed);
    std::string ptr_name;
    for (const FGlobal& g : spec.globals) {
      if (g.k == FGlobal::K::kPtr) {
        ptr_name = g.name;
      }
    }
    if (ptr_name.empty()) {
      continue;
    }
    ExecObservation vanilla = RunOnce(spec, opec_apps::BuildMode::kVanilla);
    if (!vanilla.run_ok) {
      continue;
    }
    ASSERT_TRUE(vanilla.finals.count(ptr_name)) << "seed " << seed;
    const std::string& rendered = vanilla.finals.at(ptr_name);
    EXPECT_EQ(rendered.rfind("ptr:", 0), 0u) << "seed " << seed << ": " << rendered;
    EXPECT_EQ(rendered.find("raw:"), std::string::npos)
        << "seed " << seed << ": " << rendered;
    checked = true;
  }
  EXPECT_TRUE(checked) << "no seed in 1..30 produced a pointer global";
}

// Oracle 6 (bytecode-vs-interpreter, DESIGN.md §14.5): the bring-up sweep —
// 10,000 seeded programs, serial and --jobs 4 — finished with zero
// divergences, so unlike the cases above there is no historical
// disagreement seed to pin. This band keeps the oracle itself in tier-1 at
// fixed seeds: a future lowering or dispatch regression reproduces here
// deterministically instead of only in a long sweep. (The VM bugs found
// during bring-up were caught by tests/bytecode_test.cc's differential
// suite, which pins them at app granularity.)
TEST(FuzzRegressionTest, BytecodeTierAgreesAtPinnedSeeds) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    ProgramSpec spec = GenerateProgram(seed);
    ExecObservation vanilla = RunOnce(spec, opec_apps::BuildMode::kVanilla);
    ExecObservation opec = RunOnce(spec, opec_apps::BuildMode::kOpec);
    std::vector<Divergence> divs = DiffBytecodeTier(spec, vanilla, opec);
    EXPECT_TRUE(divs.empty()) << "seed " << seed << ": " << divs[0].detail;
  }
}

}  // namespace
}  // namespace opec_fuzz
