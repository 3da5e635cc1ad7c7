// ARMv7-M Memory Protection Unit model (Section 2.2 of the paper).
//
// Eight regions, each a power-of-two-sized, size-aligned window with access
// permissions per privilege level, an execute-never bit, and eight sub-region
// disable bits. When regions overlap, the highest-numbered region containing
// the address wins; a disabled sub-region falls through to lower-numbered
// regions. With no matching region, privileged access uses the default map
// (PRIVDEFENA) and unprivileged access faults.

#ifndef SRC_HW_MPU_H_
#define SRC_HW_MPU_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/hw/fault.h"
#include "src/hw/state_io.h"

namespace opec_hw {

// Access-permission encodings (subset of the ARM AP field).
enum class AccessPerm : uint8_t {
  kNoAccess,        // AP=000: no access at either level
  kPrivRw,          // AP=001: privileged RW, unprivileged no access
  kPrivRwUnprivRo,  // AP=010
  kFullAccess,      // AP=011: RW at both levels
  kPrivRo,          // AP=101
  kReadOnly,        // AP=110/111: RO at both levels
};

const char* AccessPermName(AccessPerm p);

struct MpuRegionConfig {
  bool enabled = false;
  uint32_t base = 0;
  uint8_t size_log2 = 0;  // region size = 1 << size_log2; minimum 5 (32 bytes)
  uint8_t srd = 0;        // sub-region disable bits (bit i disables sub-region i)
  AccessPerm ap = AccessPerm::kNoAccess;
  bool xn = true;  // execute never

  uint32_t size() const { return size_log2 >= 32 ? 0xFFFFFFFFu : (1u << size_log2); }
  bool Contains(uint32_t addr) const;
  std::string ToString() const;
};

class Mpu {
 public:
  static constexpr int kNumRegions = 8;
  static constexpr int kNumSubRegions = 8;
  static constexpr uint8_t kMinSizeLog2 = 5;  // 32 bytes

  // Validates the ARMv7-M constraints (power-of-two size >= 32 bytes, base
  // aligned to size, sub-regions only for regions >= 256 bytes) and installs
  // the region. Invalid configs are a host programming error (CHECK).
  void ConfigureRegion(int index, const MpuRegionConfig& config);
  void DisableRegion(int index);
  const MpuRegionConfig& region(int index) const;

  // Marks the register file changed: bumps generation() and leaves the
  // configuration id unresolved. Must be called whenever region state changes
  // by any route other than ConfigureRegion/DisableRegion/set_enabled (which
  // call it themselves) — in particular LoadState: restoring region registers
  // around a live cache would leave stale allow-masks from the pre-restore
  // configuration (see mpu_test.cc, LoadStateInvalidatesDecisionCache).
  void InvalidateCache() {
    ++generation_;
    config_id_ = kUnresolvedConfig;
  }

  // Monotonic reconfiguration stamp: any change to the register file —
  // ConfigureRegion, DisableRegion, an enable-bit change, LoadState, explicit
  // InvalidateCache — bumps it. The decision cache keys its entries on it,
  // and the RV coherence automaton reads it to check that every kMpuReconfig
  // follows an invalidation.
  uint64_t generation() const { return generation_; }

  // Key for external verdict caches (the bytecode tier's per-instruction
  // slots). Every MPU verdict is a pure function of the register file
  // (enable bit + all eight regions) and the privilege level, so such caches
  // key their entries on an interned id of the whole register file: a
  // configuration that comes back (operation switch A -> B -> A) gets its
  // old id, and with it every verdict cached under A. Ids come from a
  // monotonic counter and are never reused, so an id never names two
  // configurations. Resolution is lazy: any change leaves config_id() at
  // kUnresolvedConfig (which matches no cache entry) until the first cache
  // fill calls ResolveConfigId(), so a batch of region writes costs a single
  // table lookup.
  static constexpr uint64_t kUnresolvedConfig = ~0ull;
  uint64_t config_id() const { return config_id_; }
  uint64_t ResolveConfigId() const {
    return config_id_ != kUnresolvedConfig ? config_id_ : InternConfig();
  }

  // Snapshot support (DESIGN.md §13): enable bit, all eight region registers
  // and the reconfiguration counter. The decision cache and the intern table
  // are not serialized — they are derived state — and LoadState invalidates.
  void SaveState(StateWriter& w) const;
  void LoadState(StateReader& r);

  void set_enabled(bool enabled) {
    if (enabled != enabled_) {
      enabled_ = enabled;
      InvalidateCache();  // the enable bit is part of the verdict key
    }
  }
  bool enabled() const { return enabled_; }

  // Returns true when the given access is permitted. Exec permission is
  // checked separately via CheckExec. Defined inline below: this sits on the
  // interpreter's per-access path and must fold into the bus fast path.
  bool CheckAccess(uint32_t addr, uint32_t size, AccessKind kind, bool privileged) const;
  bool CheckExec(uint32_t addr, bool privileged) const;

  // Range variant for bulk copies: true iff every byte of [addr, addr+len)
  // is permitted (addresses wrap at 2^32, like byte-wise accesses). A short
  // range makes one decision-cache probe per 32-byte window (exact: verdicts
  // are uniform within a window); a longer one walks the uniform-verdict
  // intervals of AllowedRange, so a range inside one (sub-)region costs one
  // region walk whatever its length.
  bool CheckRange(uint32_t addr, uint32_t len, AccessKind kind, bool privileged) const;

  // Differential-testing twin of CheckAccess: identical verdict contract, but
  // computed straight from the region walk (ComputeAllowMask) without reading
  // or filling the decision cache. The fuzzer's cache oracle compares the two
  // on every probe.
  bool CheckAccessUncached(uint32_t addr, uint32_t size, AccessKind kind,
                           bool privileged) const;

  // Verdict for a one-byte probe at `addr`, plus the maximal closed interval
  // [*lo, *hi] containing addr over which that verdict cannot change: the
  // interval crosses no region boundary and no sub-region boundary of any
  // enabled region, so every byte in it has the same deciding region and the
  // same allow mask. External verdict caches (the bytecode tier) pair the
  // interval with ResolveConfigId() and the privilege level to skip the
  // region walk for every subsequent access that stays inside it — a
  // streaming copy through a region costs one walk instead of one per 32-byte
  // window. With the MPU disabled the whole address space is one allow
  // interval (the enable bit is part of the configuration id).
  bool AllowedRange(uint32_t addr, AccessKind kind, bool privileged, uint32_t* lo,
                    uint32_t* hi) const;

  // Counts MPU reconfigurations, for the cost model and the benches.
  uint64_t config_writes() const { return config_writes_; }

  // Lets reconfiguration events carry the modeled cycle stamp; wired up by
  // Machine. Null is fine (events stamp cycle 0).
  void set_cycle_counter(const uint64_t* cycles) { cycles_ = cycles; }

  // Forensics: explains the decision CheckAccess made for this access — the
  // deciding region (including sub-region fall-through) or the background
  // map, and why it allowed or denied. Pure observation; charges nothing and
  // does not touch the decision cache.
  std::string ExplainAccess(uint32_t addr, uint32_t size, AccessKind kind,
                            bool privileged) const;

 private:
  // Decides a single byte address. Returns the deciding region index, or -1
  // for background.
  int DecidingRegion(uint32_t addr) const;
  bool PermAllows(AccessPerm ap, AccessKind kind, bool privileged) const;
  // All six allow bits for the window containing addr, from its deciding
  // region (or the PRIVDEFENA background). Cold path of the decision cache.
  uint8_t ComputeAllowMask(uint32_t addr) const;
  // Cached allow bits for addr's window. The decision is uniform within a
  // 32-byte aligned window (regions and sub-regions are >=32-byte and
  // size-aligned), so a direct-mapped per-window cache returns the exact
  // same bits ComputeAllowMask would. Entries are keyed by generation_, not
  // by the configuration id: a direct-mapped entry is overwritten by the
  // next configuration's accesses to the same window long before its own
  // configuration comes back, so an id key would save almost no mask
  // computation while every reconfiguration paid an intern lookup.
  uint8_t MaskFor(uint32_t addr) const;
  // Looks the register file up in the intern table, assigning the next id on
  // a miss, and stores the result in config_id_.
  uint64_t InternConfig() const;
  // Decides one probe address: deciding region (or background) + permission.
  bool ProbeAllows(uint32_t addr, AccessKind kind, bool privileged) const;

  struct DecisionCacheEntry {
    uint32_t window = 0;      // addr & ~31u
    uint64_t generation = 0;  // matches generation_ when valid
    // Bit (kind<<1)|priv for read (kind 0) and write (kind 1); bits 4|priv
    // for execute. Encodes the full probe outcome so the hot path is one
    // lookup and one bit test.
    uint8_t allow_mask = 0;
  };
  static constexpr uint32_t kDecisionCacheSize = 256;  // power of two
  // CheckRange probes ranges spanning up to this many windows through the
  // decision cache (a hit each, for the small shadow copies the monitor
  // makes on every switch) and walks AllowedRange intervals beyond it.
  static constexpr uint64_t kRangeProbeWindows = 8;

  // Intern table: open addressing over the packed register file (one word
  // per region, then the enable bit). Bounded: once half full it is emptied
  // and refilled from scratch; ids keep counting up, so configurations
  // interned before the reset simply get fresh ids.
  static constexpr size_t kConfigWords = kNumRegions + 1;
  using ConfigKey = std::array<uint64_t, kConfigWords>;
  struct InternSlot {
    ConfigKey key{};
    uint64_t id = 0;  // 0 = empty
  };
  static constexpr uint32_t kInternSlots = 64;  // power of two
  static constexpr uint32_t kInternMaxLoad = kInternSlots / 2;

  std::array<MpuRegionConfig, kNumRegions> regions_{};
  bool enabled_ = false;
  uint64_t config_writes_ = 0;
  const uint64_t* cycles_ = nullptr;
  // generation_ starts at 1 so zero-initialized cache entries never match.
  uint64_t generation_ = 1;
  mutable uint64_t config_id_ = kUnresolvedConfig;
  mutable uint64_t next_config_id_ = 1;
  mutable uint32_t intern_count_ = 0;
  mutable std::array<InternSlot, kInternSlots> intern_{};
  mutable std::array<DecisionCacheEntry, kDecisionCacheSize> decision_cache_{};
};

inline uint8_t Mpu::MaskFor(uint32_t addr) const {
  uint32_t window = addr & ~31u;
  DecisionCacheEntry& e = decision_cache_[(addr >> 5) & (kDecisionCacheSize - 1)];
  if (e.generation == generation_ && e.window == window) {
    return e.allow_mask;
  }
  uint8_t mask = ComputeAllowMask(addr);
  e.window = window;
  e.generation = generation_;
  e.allow_mask = mask;
  return mask;
}

inline bool Mpu::PermAllows(AccessPerm ap, AccessKind kind, bool privileged) const {
  switch (ap) {
    case AccessPerm::kNoAccess:
      return false;
    case AccessPerm::kPrivRw:
      return privileged;
    case AccessPerm::kPrivRwUnprivRo:
      return privileged || kind == AccessKind::kRead;
    case AccessPerm::kFullAccess:
      return true;
    case AccessPerm::kPrivRo:
      return privileged && kind == AccessKind::kRead;
    case AccessPerm::kReadOnly:
      return kind == AccessKind::kRead;
  }
  return false;
}

inline bool Mpu::ProbeAllows(uint32_t addr, AccessKind kind, bool privileged) const {
  uint32_t bit = (static_cast<uint32_t>(kind) << 1) | static_cast<uint32_t>(privileged);
  return (MaskFor(addr) >> bit) & 1u;
}

inline bool Mpu::CheckAccess(uint32_t addr, uint32_t size, AccessKind kind,
                             bool privileged) const {
  if (!enabled_) {
    return true;
  }
  // Check the first and last byte of the access (accesses are at most 4 bytes,
  // so these two probes cover every byte's deciding region transition). When
  // both bytes share one 32-byte aligned window the decision is uniform
  // (region and sub-region boundaries are all multiples of 32), so one probe
  // suffices — the common case for the aligned accesses guests make.
  uint32_t last = addr + (size == 0 ? 0 : size - 1);
  if ((addr & ~31u) == (last & ~31u)) {
    return ProbeAllows(addr, kind, privileged);
  }
  return ProbeAllows(addr, kind, privileged) && ProbeAllows(last, kind, privileged);
}

}  // namespace opec_hw

#endif  // SRC_HW_MPU_H_
