#include "src/hw/mpu.h"

#include <algorithm>

#include "src/obs/event.h"
#include "src/support/check.h"
#include "src/support/text.h"

namespace opec_hw {

const char* AccessPermName(AccessPerm p) {
  switch (p) {
    case AccessPerm::kNoAccess:
      return "NA";
    case AccessPerm::kPrivRw:
      return "priv-RW/unpriv-NA";
    case AccessPerm::kPrivRwUnprivRo:
      return "priv-RW/unpriv-RO";
    case AccessPerm::kFullAccess:
      return "RW";
    case AccessPerm::kPrivRo:
      return "priv-RO/unpriv-NA";
    case AccessPerm::kReadOnly:
      return "RO";
  }
  return "?";
}

bool MpuRegionConfig::Contains(uint32_t addr) const {
  if (size_log2 >= 32) {
    return true;
  }
  return (addr & ~(size() - 1)) == base;
}

std::string MpuRegionConfig::ToString() const {
  if (!enabled) {
    return "(disabled)";
  }
  return opec_support::StrPrintf("base=%s size=2^%u srd=0x%02X ap=%s%s",
                                 opec_support::HexAddr(base).c_str(), size_log2, srd,
                                 AccessPermName(ap), xn ? " XN" : "");
}

void Mpu::ConfigureRegion(int index, const MpuRegionConfig& config) {
  OPEC_CHECK(index >= 0 && index < kNumRegions);
  if (config.enabled) {
    OPEC_CHECK_MSG(config.size_log2 >= kMinSizeLog2, "MPU region smaller than 32 bytes");
    if (config.size_log2 < 32) {
      OPEC_CHECK_MSG((config.base & (config.size() - 1)) == 0,
                     "MPU region base not aligned to its size: " + config.ToString());
    } else {
      OPEC_CHECK_MSG(config.base == 0, "4GB MPU region must be based at 0");
    }
    OPEC_CHECK_MSG(config.srd == 0 || config.size_log2 >= 8,
                   "sub-region disable requires a region of at least 256 bytes");
  }
  regions_[static_cast<size_t>(index)] = config;
  ++config_writes_;
  InvalidateCache();
  OPEC_OBS_EVENT(opec_obs::EventKind::kMpuReconfig, cycles_ != nullptr ? *cycles_ : 0,
                 opec_obs::Event::kNoOperation, 0, static_cast<uint32_t>(index), config.base,
                 opec_obs::PackMpuConfig(config.enabled, config.size_log2, config.srd,
                                         static_cast<uint8_t>(config.ap)));
}

void Mpu::DisableRegion(int index) {
  OPEC_CHECK(index >= 0 && index < kNumRegions);
  MpuRegionConfig& r = regions_[static_cast<size_t>(index)];
  r.enabled = false;
  ++config_writes_;
  InvalidateCache();
  OPEC_OBS_EVENT(opec_obs::EventKind::kMpuReconfig, cycles_ != nullptr ? *cycles_ : 0,
                 opec_obs::Event::kNoOperation, 0, static_cast<uint32_t>(index), r.base,
                 opec_obs::PackMpuConfig(false, r.size_log2, r.srd,
                                         static_cast<uint8_t>(r.ap)));
}

const MpuRegionConfig& Mpu::region(int index) const {
  OPEC_CHECK(index >= 0 && index < kNumRegions);
  return regions_[static_cast<size_t>(index)];
}

namespace {

// One intern-key word per region. A disabled region decides nothing, so all
// disabled regions pack to 0 whatever their stale fields hold; an enabled one
// sets bit 63 and carries every field a verdict depends on.
uint64_t PackRegion(const MpuRegionConfig& r) {
  if (!r.enabled) {
    return 0;
  }
  return (1ull << 63) | static_cast<uint64_t>(r.xn) << 56 |
         static_cast<uint64_t>(r.ap) << 48 | static_cast<uint64_t>(r.srd) << 40 |
         static_cast<uint64_t>(r.size_log2) << 32 | r.base;
}

}  // namespace

uint64_t Mpu::InternConfig() const {
  ConfigKey key;
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (size_t i = 0; i < kConfigWords; ++i) {
    key[i] = i < kNumRegions ? PackRegion(regions_[i]) : static_cast<uint64_t>(enabled_);
    h = (h ^ key[i]) * 0xFF51AFD7ED558CCDull;
    h ^= h >> 29;
  }
  if (intern_count_ == kInternMaxLoad) {
    intern_.fill(InternSlot{});
    intern_count_ = 0;
  }
  for (uint32_t i = static_cast<uint32_t>(h);; ++i) {
    InternSlot& slot = intern_[i & (kInternSlots - 1)];
    if (slot.id == 0) {
      slot.key = key;
      slot.id = next_config_id_++;
      ++intern_count_;
      config_id_ = slot.id;
      return config_id_;
    }
    if (slot.key == key) {
      config_id_ = slot.id;
      return config_id_;
    }
  }
}

int Mpu::DecidingRegion(uint32_t addr) const {
  for (int i = kNumRegions - 1; i >= 0; --i) {
    const MpuRegionConfig& r = regions_[static_cast<size_t>(i)];
    if (!r.enabled || !r.Contains(addr)) {
      continue;
    }
    if (r.srd != 0 && r.size_log2 >= 8) {
      uint32_t sub_size = r.size() / kNumSubRegions;
      uint32_t sub = (addr - r.base) / sub_size;
      if ((r.srd >> sub) & 1u) {
        continue;  // disabled sub-region: fall through to lower regions
      }
    }
    return i;
  }
  return -1;
}

uint8_t Mpu::ComputeAllowMask(uint32_t addr) const {
  int idx = DecidingRegion(addr);
  uint8_t mask = 0;
  for (uint32_t priv = 0; priv < 2; ++priv) {
    bool r, w, x;
    if (idx < 0) {
      // Background map: privileged-only (PRIVDEFENA), executable.
      r = w = x = (priv != 0);
    } else {
      const MpuRegionConfig& reg = regions_[static_cast<size_t>(idx)];
      r = PermAllows(reg.ap, AccessKind::kRead, priv != 0);
      w = PermAllows(reg.ap, AccessKind::kWrite, priv != 0);
      x = !reg.xn && r;
    }
    mask = static_cast<uint8_t>(mask | (r ? 1u << priv : 0u) |
                                (w ? 1u << (2 | priv) : 0u) |
                                (x ? 1u << (4 | priv) : 0u));
  }
  return mask;
}

bool Mpu::CheckRange(uint32_t addr, uint32_t len, AccessKind kind, bool privileged) const {
  if (!enabled_ || len == 0) {
    return true;
  }
  // 64-bit cursors: a range wrapping the top of the address space
  // (addr + len > 2^32) keeps going from address 0 instead of stopping early;
  // each probe address wraps to uint32, matching byte-wise accesses.
  uint64_t first_window = addr & ~31u;
  uint64_t last_window = (static_cast<uint64_t>(addr) + len - 1) & ~31ull;
  if (last_window - first_window < kRangeProbeWindows * 32ull) {
    for (uint64_t w = first_window; w <= last_window; w += 32) {
      uint32_t probe = w < addr ? addr : static_cast<uint32_t>(w);
      if (!ProbeAllows(probe, kind, privileged)) {
        return false;
      }
    }
    return true;
  }
  uint64_t end = static_cast<uint64_t>(addr) + len;  // exclusive
  for (uint64_t cur = addr; cur < end;) {
    uint32_t probe = static_cast<uint32_t>(cur);
    uint32_t lo = 0;
    uint32_t hi = 0;
    if (!AllowedRange(probe, kind, privileged, &lo, &hi)) {
      return false;
    }
    cur += static_cast<uint64_t>(hi - probe) + 1;
  }
  return true;
}

bool Mpu::AllowedRange(uint32_t addr, AccessKind kind, bool privileged, uint32_t* lo,
                       uint32_t* hi) const {
  if (!enabled_) {
    *lo = 0;
    *hi = 0xFFFFFFFFu;
    return true;
  }
  // Narrow [0, 2^32) against every enabled region: clip to the containing
  // granule (the sub-region when SRD is in play, else the whole region) when
  // the region covers addr, and to the gap up to the region's edge when it
  // does not. The surviving interval crosses no boundary of any region, so
  // the deciding-region walk — and with it the allow mask — is constant over
  // all of it. 64-bit bounds: base + size reaches 2^32 for top-of-map regions.
  uint64_t lo64 = 0;
  uint64_t hi64 = 0xFFFFFFFFull;  // inclusive
  for (const MpuRegionConfig& r : regions_) {
    if (!r.enabled) {
      continue;
    }
    uint64_t start = r.base;
    uint64_t end = r.size_log2 >= 32 ? (1ull << 32) : start + r.size();  // exclusive
    if (addr < start) {
      hi64 = std::min(hi64, start - 1);
      continue;
    }
    if (addr >= end) {
      lo64 = std::max(lo64, end);
      continue;
    }
    uint64_t granule = (r.srd != 0 && r.size_log2 >= 8) ? (end - start) / kNumSubRegions
                                                        : end - start;
    uint64_t g = (addr - start) / granule;
    lo64 = std::max(lo64, start + g * granule);
    hi64 = std::min(hi64, start + (g + 1) * granule - 1);
  }
  *lo = static_cast<uint32_t>(lo64);
  *hi = static_cast<uint32_t>(hi64);
  uint32_t bit = (static_cast<uint32_t>(kind) << 1) | static_cast<uint32_t>(privileged);
  return (ComputeAllowMask(addr) >> bit) & 1u;
}

bool Mpu::CheckAccessUncached(uint32_t addr, uint32_t size, AccessKind kind,
                              bool privileged) const {
  if (!enabled_) {
    return true;
  }
  uint32_t bit = (static_cast<uint32_t>(kind) << 1) | static_cast<uint32_t>(privileged);
  uint32_t last = addr + (size == 0 ? 0 : size - 1);
  if (((ComputeAllowMask(addr) >> bit) & 1u) == 0) {
    return false;
  }
  if ((addr & ~31u) == (last & ~31u)) {
    return true;
  }
  return (ComputeAllowMask(last) >> bit) & 1u;
}

std::string Mpu::ExplainAccess(uint32_t addr, uint32_t size, AccessKind kind,
                               bool privileged) const {
  const char* kind_name = kind == AccessKind::kWrite ? "write" : "read";
  const char* level = privileged ? "privileged" : "unprivileged";
  if (!enabled_) {
    return opec_support::StrPrintf("MPU disabled: %s %s allowed by default", level, kind_name);
  }
  // Probe the same two addresses CheckAccess probes; the first denied probe is
  // the decision the fault reflects.
  uint32_t last = addr + (size == 0 ? 0 : size - 1);
  for (uint32_t probe : {addr, last}) {
    if (ProbeAllows(probe, kind, privileged)) {
      if (probe == last) {
        break;
      }
      continue;
    }
    int idx = DecidingRegion(probe);
    std::string where = probe == addr
                            ? std::string()
                            : " (the access straddles into " + opec_support::HexAddr(probe) + ")";
    // Note any higher-priority region that contains the address but stepped
    // aside through a disabled sub-region — the stack-protection mechanism.
    std::string fall_through;
    for (int i = kNumRegions - 1; i > idx; --i) {
      const MpuRegionConfig& r = regions_[static_cast<size_t>(i)];
      if (!r.enabled || !r.Contains(probe) || r.srd == 0 || r.size_log2 < 8) {
        continue;
      }
      uint32_t sub = (probe - r.base) / (r.size() / kNumSubRegions);
      if ((r.srd >> sub) & 1u) {
        fall_through = opec_support::StrPrintf(
            "; region %d covers the address but its sub-region %u is disabled (srd=0x%02X)", i,
            sub, r.srd);
        break;
      }
    }
    if (idx < 0) {
      return opec_support::StrPrintf(
          "no enabled MPU region maps %s%s; the background map (PRIVDEFENA) permits only "
          "privileged access, so the %s %s was denied%s",
          opec_support::HexAddr(probe).c_str(), where.c_str(), level, kind_name,
          fall_through.c_str());
    }
    const MpuRegionConfig& r = regions_[static_cast<size_t>(idx)];
    return opec_support::StrPrintf(
        "denied by MPU region %d [%s]%s: its access permission (%s) does not allow an %s "
        "%s%s",
        idx, r.ToString().c_str(), where.c_str(), AccessPermName(r.ap), level, kind_name,
        fall_through.c_str());
  }
  return opec_support::StrPrintf("MPU permits this %s %s", level, kind_name);
}

void Mpu::SaveState(StateWriter& w) const {
  w.Bool(enabled_);
  w.U64(config_writes_);
  for (const MpuRegionConfig& r : regions_) {
    w.Bool(r.enabled);
    w.U32(r.base);
    w.U8(r.size_log2);
    w.U8(r.srd);
    w.U8(static_cast<uint8_t>(r.ap));
    w.Bool(r.xn);
  }
}

void Mpu::LoadState(StateReader& r) {
  enabled_ = r.Bool();
  config_writes_ = r.U64();
  for (MpuRegionConfig& reg : regions_) {
    reg.enabled = r.Bool();
    reg.base = r.U32();
    reg.size_log2 = r.U8();
    reg.srd = r.U8();
    reg.ap = static_cast<AccessPerm>(r.U8());
    reg.xn = r.Bool();
  }
  // The restored registers replace whatever configuration the cache was
  // filled under; without this, MaskFor keeps answering for the old regions.
  // The restored file is interned afresh on the next verdict-slot fill, so
  // restoring a configuration seen before gets its old id back.
  InvalidateCache();
}

bool Mpu::CheckExec(uint32_t addr, bool privileged) const {
  if (!enabled_) {
    return true;
  }
  return (MaskFor(addr) >> (4u | static_cast<uint32_t>(privileged))) & 1u;
}

}  // namespace opec_hw
