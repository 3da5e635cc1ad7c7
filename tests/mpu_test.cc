// Unit + property tests for the ARMv7-M MPU model (Section 2.2 semantics).

#include <gtest/gtest.h>

#include <set>

#include "src/hw/mpu.h"

namespace opec_hw {
namespace {

MpuRegionConfig Region(uint32_t base, uint8_t size_log2, AccessPerm ap, uint8_t srd = 0,
                       bool xn = true) {
  MpuRegionConfig r;
  r.enabled = true;
  r.base = base;
  r.size_log2 = size_log2;
  r.ap = ap;
  r.srd = srd;
  r.xn = xn;
  return r;
}

TEST(Mpu, DisabledMpuAllowsEverything) {
  Mpu mpu;
  EXPECT_TRUE(mpu.CheckAccess(0x1234, 4, AccessKind::kWrite, false));
}

TEST(Mpu, BackgroundMapIsPrivilegedOnly) {
  Mpu mpu;
  mpu.set_enabled(true);
  EXPECT_TRUE(mpu.CheckAccess(0x20000000, 4, AccessKind::kWrite, true));
  EXPECT_FALSE(mpu.CheckAccess(0x20000000, 4, AccessKind::kWrite, false));
  EXPECT_FALSE(mpu.CheckAccess(0x20000000, 4, AccessKind::kRead, false));
}

TEST(Mpu, AccessPermissionMatrix) {
  struct Case {
    AccessPerm ap;
    bool priv_r, priv_w, unpriv_r, unpriv_w;
  };
  const Case cases[] = {
      {AccessPerm::kNoAccess, false, false, false, false},
      {AccessPerm::kPrivRw, true, true, false, false},
      {AccessPerm::kPrivRwUnprivRo, true, true, true, false},
      {AccessPerm::kFullAccess, true, true, true, true},
      {AccessPerm::kPrivRo, true, false, false, false},
      {AccessPerm::kReadOnly, true, false, true, false},
  };
  for (const Case& c : cases) {
    Mpu mpu;
    mpu.set_enabled(true);
    mpu.ConfigureRegion(0, Region(0x20000000, 10, c.ap));
    SCOPED_TRACE(AccessPermName(c.ap));
    EXPECT_EQ(mpu.CheckAccess(0x20000010, 4, AccessKind::kRead, true), c.priv_r);
    EXPECT_EQ(mpu.CheckAccess(0x20000010, 4, AccessKind::kWrite, true), c.priv_w);
    EXPECT_EQ(mpu.CheckAccess(0x20000010, 4, AccessKind::kRead, false), c.unpriv_r);
    EXPECT_EQ(mpu.CheckAccess(0x20000010, 4, AccessKind::kWrite, false), c.unpriv_w);
  }
}

TEST(Mpu, HighestNumberedRegionWins) {
  Mpu mpu;
  mpu.set_enabled(true);
  mpu.ConfigureRegion(0, Region(0x20000000, 16, AccessPerm::kFullAccess));
  mpu.ConfigureRegion(5, Region(0x20000000, 10, AccessPerm::kNoAccess));
  // Inside region 5's window: denied despite region 0 allowing.
  EXPECT_FALSE(mpu.CheckAccess(0x20000004, 4, AccessKind::kRead, false));
  // Outside region 5 but inside region 0: allowed.
  EXPECT_TRUE(mpu.CheckAccess(0x20000400, 4, AccessKind::kRead, false));
}

TEST(Mpu, DisabledSubRegionFallsThroughToLowerRegion) {
  Mpu mpu;
  mpu.set_enabled(true);
  // Region 1: 4KB full access; region 7: same window no-access but with
  // sub-region 0 disabled -> accesses to the first 512 bytes fall through.
  mpu.ConfigureRegion(1, Region(0x20000000, 12, AccessPerm::kFullAccess));
  mpu.ConfigureRegion(7, Region(0x20000000, 12, AccessPerm::kNoAccess, /*srd=*/0x01));
  EXPECT_TRUE(mpu.CheckAccess(0x20000000, 4, AccessKind::kWrite, false));   // sub 0: disabled
  EXPECT_FALSE(mpu.CheckAccess(0x20000200, 4, AccessKind::kWrite, false));  // sub 1: active
}

TEST(Mpu, StackSubRegionProtectionPattern) {
  // The monitor's stack pattern: region 2 covers the whole stack, SRD bits
  // disable the sub-regions used by previous operations (Figure 8).
  Mpu mpu;
  mpu.set_enabled(true);
  uint32_t stack_base = 0x20004000;  // 16 KB region
  uint8_t srd = 0;
  for (int sub = 6; sub < 8; ++sub) {
    srd |= static_cast<uint8_t>(1 << sub);  // previous op used subs 6..7
  }
  mpu.ConfigureRegion(2, Region(stack_base, 14, AccessPerm::kFullAccess, srd));
  uint32_t sub_size = (1u << 14) / 8;
  EXPECT_TRUE(mpu.CheckAccess(stack_base + 0 * sub_size, 4, AccessKind::kWrite, false));
  EXPECT_TRUE(mpu.CheckAccess(stack_base + 5 * sub_size, 4, AccessKind::kWrite, false));
  EXPECT_FALSE(mpu.CheckAccess(stack_base + 6 * sub_size, 4, AccessKind::kWrite, false));
  EXPECT_FALSE(mpu.CheckAccess(stack_base + 7 * sub_size + 100, 4, AccessKind::kWrite, false));
}

TEST(Mpu, AccessSpanningRegionBoundaryChecksBothEnds) {
  Mpu mpu;
  mpu.set_enabled(true);
  mpu.ConfigureRegion(0, Region(0x20000000, 29, AccessPerm::kFullAccess));
  mpu.ConfigureRegion(3, Region(0x20000400, 10, AccessPerm::kNoAccess));
  // A 4-byte access whose last byte enters the forbidden region.
  EXPECT_FALSE(mpu.CheckAccess(0x200003FE, 4, AccessKind::kRead, false));
  EXPECT_TRUE(mpu.CheckAccess(0x200003F8, 4, AccessKind::kRead, false));
}

TEST(Mpu, ExecChecksHonorXn) {
  Mpu mpu;
  mpu.set_enabled(true);
  mpu.ConfigureRegion(0, Region(0x08000000, 20, AccessPerm::kReadOnly, 0, /*xn=*/false));
  mpu.ConfigureRegion(1, Region(0x20000000, 20, AccessPerm::kFullAccess, 0, /*xn=*/true));
  EXPECT_TRUE(mpu.CheckExec(0x08000100, false));
  EXPECT_FALSE(mpu.CheckExec(0x20000100, false));  // W^X: data is never executable
}

TEST(Mpu, ConfigWritesAreCounted) {
  Mpu mpu;
  uint64_t before = mpu.config_writes();
  mpu.ConfigureRegion(0, Region(0x20000000, 10, AccessPerm::kFullAccess));
  mpu.DisableRegion(0);
  EXPECT_EQ(mpu.config_writes(), before + 2);
}

// Property sweep: any power-of-two-sized, size-aligned region accepts its
// whole window and nothing outside it.
class MpuRegionSweep : public ::testing::TestWithParam<uint8_t> {};

TEST_P(MpuRegionSweep, WindowIsExact) {
  uint8_t size_log2 = GetParam();
  uint32_t size = 1u << size_log2;
  uint32_t base = 0x20000000 & ~(size - 1);
  Mpu mpu;
  mpu.set_enabled(true);
  mpu.ConfigureRegion(4, Region(base, size_log2, AccessPerm::kFullAccess));
  EXPECT_TRUE(mpu.CheckAccess(base, 1, AccessKind::kWrite, false));
  EXPECT_TRUE(mpu.CheckAccess(base + size - 1, 1, AccessKind::kWrite, false));
  EXPECT_FALSE(mpu.CheckAccess(base + size, 1, AccessKind::kWrite, false));
  if (base > 0) {
    EXPECT_FALSE(mpu.CheckAccess(base - 1, 1, AccessKind::kWrite, false));
  }
}

INSTANTIATE_TEST_SUITE_P(AllLegalSizes, MpuRegionSweep,
                         ::testing::Values(5, 6, 7, 8, 10, 12, 14, 16, 20, 24));

// Property sweep: with SRD, exactly the enabled sub-regions are accessible
// (no lower region to fall through to).
class MpuSrdSweep : public ::testing::TestWithParam<uint8_t> {};

TEST_P(MpuSrdSweep, SubRegionMaskIsRespected) {
  uint8_t srd = GetParam();
  Mpu mpu;
  mpu.set_enabled(true);
  uint32_t base = 0x20000000;
  mpu.ConfigureRegion(2, Region(base, 12, AccessPerm::kFullAccess, srd));
  uint32_t sub_size = (1u << 12) / 8;
  for (int sub = 0; sub < 8; ++sub) {
    bool disabled = (srd >> sub) & 1;
    EXPECT_EQ(mpu.CheckAccess(base + static_cast<uint32_t>(sub) * sub_size + 8, 4,
                              AccessKind::kWrite, false),
              !disabled)
        << "sub-region " << sub << " srd=0x" << std::hex << int(srd);
  }
}

INSTANTIATE_TEST_SUITE_P(Masks, MpuSrdSweep,
                         ::testing::Values(0x00, 0x01, 0x80, 0xF0, 0x0F, 0xAA, 0x55, 0xFE));

using MpuDeathTest = Mpu;

TEST(MpuDeathTest, RejectsMisalignedBase) {
  Mpu mpu;
  EXPECT_DEATH(mpu.ConfigureRegion(0, Region(0x20000004, 10, AccessPerm::kFullAccess)),
               "not aligned");
}

TEST(MpuDeathTest, RejectsTinyRegions) {
  Mpu mpu;
  EXPECT_DEATH(mpu.ConfigureRegion(0, Region(0x20000000, 4, AccessPerm::kFullAccess)),
               "smaller than 32");
}

TEST(Mpu, LoadStateInvalidatesDecisionCache) {
  // Regression: restoring register state through LoadState must invalidate
  // the inline decision cache. Warm the cache with a deny decision, then
  // restore a config that allows the same access — the cached path must agree
  // with the uncached region walk, not serve the stale deny.
  Mpu allowing;
  allowing.set_enabled(true);
  allowing.ConfigureRegion(0, Region(0x20000000, 12, AccessPerm::kFullAccess));
  StateWriter w;
  allowing.SaveState(w);

  Mpu mpu;
  mpu.set_enabled(true);
  mpu.ConfigureRegion(0, Region(0x20000000, 12, AccessPerm::kNoAccess));
  ASSERT_FALSE(mpu.CheckAccess(0x20000010, 4, AccessKind::kWrite, false));  // cache warmed

  StateReader r(w.data());
  mpu.LoadState(r);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(mpu.CheckAccess(0x20000010, 4, AccessKind::kWrite, false),
            mpu.CheckAccessUncached(0x20000010, 4, AccessKind::kWrite, false));
  EXPECT_TRUE(mpu.CheckAccess(0x20000010, 4, AccessKind::kWrite, false));
}

TEST(Mpu, VerdictKeyNamesTheWholeRegisterFile) {
  Mpu mpu;
  mpu.set_enabled(true);
  MpuRegionConfig a = Region(0x20000000, 12, AccessPerm::kFullAccess);
  MpuRegionConfig b = Region(0x20000000, 12, AccessPerm::kReadOnly);

  // Configuration A, then B, then A again: A's id comes back, so verdicts
  // cached under A are reusable; B's id differs.
  mpu.ConfigureRegion(0, a);
  uint64_t id_a = mpu.ResolveConfigId();
  mpu.ConfigureRegion(0, b);
  uint64_t id_b = mpu.ResolveConfigId();
  mpu.ConfigureRegion(0, a);
  EXPECT_EQ(mpu.config_id(), Mpu::kUnresolvedConfig);
  EXPECT_EQ(mpu.ResolveConfigId(), id_a);
  EXPECT_NE(id_a, id_b);
  // The stale fields of a disabled region decide nothing and key nothing.
  mpu.ConfigureRegion(5, b);
  mpu.DisableRegion(5);
  EXPECT_EQ(mpu.ResolveConfigId(), id_a);

  // Each route that changes the register file leaves the key unresolved
  // until the next verdict-slot fill resolves it. Decision-cache probes do
  // not resolve it: that cache is keyed by the generation.
  auto fill = [&mpu] { mpu.ResolveConfigId(); };
  mpu.ConfigureRegion(1, Region(0x20001000, 8, AccessPerm::kFullAccess));
  EXPECT_EQ(mpu.config_id(), Mpu::kUnresolvedConfig);
  EXPECT_TRUE(mpu.CheckAccess(0x20000010, 4, AccessKind::kRead, false));
  EXPECT_EQ(mpu.config_id(), Mpu::kUnresolvedConfig);
  fill();
  EXPECT_NE(mpu.config_id(), Mpu::kUnresolvedConfig);

  mpu.DisableRegion(1);
  EXPECT_EQ(mpu.config_id(), Mpu::kUnresolvedConfig);
  fill();
  EXPECT_EQ(mpu.config_id(), id_a);

  StateWriter w;
  mpu.SaveState(w);
  StateReader r(w.data());
  mpu.LoadState(r);
  EXPECT_EQ(mpu.config_id(), Mpu::kUnresolvedConfig);
  fill();
  EXPECT_EQ(mpu.config_id(), id_a);  // restoring a seen configuration

  mpu.set_enabled(true);  // no change: the key stays resolved
  EXPECT_EQ(mpu.config_id(), id_a);
  uint64_t generation = mpu.generation();
  mpu.set_enabled(false);
  EXPECT_EQ(mpu.config_id(), Mpu::kUnresolvedConfig);
  EXPECT_GT(mpu.generation(), generation);
  uint64_t id_off = mpu.ResolveConfigId();
  EXPECT_NE(id_off, id_a);  // same regions, MPU off: a different key
  mpu.set_enabled(true);
  EXPECT_EQ(mpu.config_id(), Mpu::kUnresolvedConfig);
  fill();
  EXPECT_EQ(mpu.config_id(), id_a);
}

TEST(Mpu, VerdictKeysAreNeverReused) {
  // More distinct configurations than the bounded intern table holds: every
  // one gets a fresh id, and a configuration evicted by the table's reset
  // comes back under a new id rather than one that named something else.
  Mpu mpu;
  mpu.set_enabled(true);
  std::set<uint64_t> ids;
  for (uint32_t i = 0; i < 200; ++i) {
    mpu.ConfigureRegion(0, Region(0x20000000 + i * 0x100, 8, AccessPerm::kFullAccess));
    EXPECT_TRUE(ids.insert(mpu.ResolveConfigId()).second) << "configuration " << i;
  }
  uint64_t newest = *ids.rbegin();
  mpu.ConfigureRegion(0, Region(0x20000000, 8, AccessPerm::kFullAccess));
  EXPECT_GT(mpu.ResolveConfigId(), newest);
  EXPECT_TRUE(mpu.CheckAccess(0x20000010, 4, AccessKind::kWrite, false));
  EXPECT_FALSE(mpu.CheckAccess(0x20000110, 4, AccessKind::kWrite, false));
}

TEST(Mpu, CheckRangeAcrossRegionsAndAroundTheTop) {
  Mpu mpu;
  mpu.set_enabled(true);
  mpu.ConfigureRegion(0, Region(0x20000000, 12, AccessPerm::kFullAccess));
  mpu.ConfigureRegion(1, Region(0x20001000, 12, AccessPerm::kReadOnly));
  // Spans both regions: readable throughout, writable only in region 0.
  EXPECT_TRUE(mpu.CheckRange(0x20000F00, 0x200, AccessKind::kRead, false));
  EXPECT_FALSE(mpu.CheckRange(0x20000F00, 0x200, AccessKind::kWrite, false));
  EXPECT_TRUE(mpu.CheckRange(0x20000F00, 0x100, AccessKind::kWrite, false));
  // Runs off the end of region 1 into the unprivileged-denied background.
  EXPECT_FALSE(mpu.CheckRange(0x20001F00, 0x101, AccessKind::kRead, false));
  EXPECT_TRUE(mpu.CheckRange(0x20001F00, 0x101, AccessKind::kRead, true));
  // Ranges that wrap 2^32 into a no-access region at address 0, both short
  // (one probe per window) and long (interval walk).
  mpu.ConfigureRegion(2, Region(0x00000000, 8, AccessPerm::kNoAccess));
  EXPECT_TRUE(mpu.CheckRange(0xFFFFFF00, 0x100, AccessKind::kRead, true));
  EXPECT_FALSE(mpu.CheckRange(0xFFFFFFF0, 0x20, AccessKind::kRead, true));
  EXPECT_FALSE(mpu.CheckRange(0xFFFFFE00, 0x201, AccessKind::kRead, true));
}

TEST(MpuDeathTest, RejectsSrdOnSmallRegions) {
  Mpu mpu;
  EXPECT_DEATH(mpu.ConfigureRegion(0, Region(0x20000000, 7, AccessPerm::kFullAccess, 0x01)),
               "sub-region");
}

}  // namespace
}  // namespace opec_hw
