// System bus: routes guest accesses to Flash, SRAM, memory-mapped devices and
// the PPB, enforcing the MPU and privilege rules on every access.

#ifndef SRC_HW_BUS_H_
#define SRC_HW_BUS_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/hw/address_map.h"
#include "src/hw/device.h"
#include "src/hw/fault.h"
#include "src/hw/mpu.h"
#include "src/hw/soc.h"

namespace opec_hw {

class Bus {
 public:
  Bus(const BoardSpec& board, Mpu* mpu, uint64_t* cycles);

  // Registers a device (not owned). Ranges must not overlap.
  void AttachDevice(MmioDevice* device);

  // Guest accesses: subject to PPB privilege rules and the MPU.
  // `size` is 1, 2 or 4 bytes. Defined inline below with a fast path for
  // accesses entirely inside SRAM (the overwhelmingly common case); anything
  // else — flash, PPB, devices, straddles, faults — takes the out-of-line
  // slow path, which performs the identical route/check/fault sequence.
  AccessResult Read(uint32_t addr, uint32_t size, bool privileged);
  AccessResult Write(uint32_t addr, uint32_t size, uint32_t value, bool privileged);

  // Loader/debug access: bypasses the MPU and privilege checks. Used by the
  // image loader, the monitor-internal bookkeeping tests, and assertions.
  bool DebugRead(uint32_t addr, uint32_t size, uint32_t* value);
  bool DebugWrite(uint32_t addr, uint32_t size, uint32_t value);
  void DebugWriteBytes(uint32_t addr, const std::vector<uint8_t>& bytes);
  std::vector<uint8_t> DebugReadBytes(uint32_t addr, uint32_t size);

  // Bulk backing-store copy of `n` bytes between plain-memory ranges
  // (flash/SRAM source, SRAM destination), subject to the same MPU decision a
  // word-by-word copy would see. Returns false — copying nothing — when either
  // range is not entirely plain memory or the MPU denies any part, so callers
  // can fall back to the per-word path and surface identical faults. Charges
  // no cycles; memory-system cost models stay with the caller.
  bool BulkCopy(uint32_t src, uint32_t dst, uint32_t n, bool privileged);

  // Word-at-a-time guest copy through the full Read/Write path (device
  // windows, PPB rules, MPU checks, modeled side effects) — the fallback for
  // everything BulkCopy declines. Direction-aware: when the destination
  // overlaps the source tail, a forward word loop reads bytes it already
  // overwrote (memcpy-on-overlap corruption), so the copy walks backward in
  // that case, giving memmove semantics on both paths. Returns false on the
  // first faulting access (the copy may be partial, exactly as the
  // word-by-word loop it replaces would have stopped mid-way).
  bool WordCopy(uint32_t src, uint32_t dst, uint32_t n, bool privileged);

  // Snapshot support (DESIGN.md §13): core-peripheral scratch registers,
  // flash and SRAM contents, then every attached device (name-tagged, in
  // address order). LoadState requires the same board and the same device set
  // to be attached; devices are matched by name. With `skip_memory`, the
  // flash/SRAM blobs are skipped instead of copied — the caller restores
  // memory through the dirty-page baseline below.
  void SaveState(StateWriter& w) const;
  void LoadState(StateReader& r, bool skip_memory = false);

  // Warm-start fast path (DESIGN.md §13.3): keep an in-memory copy of
  // flash+SRAM and start dirty-page tracking; RestoreMemoryBaseline copies
  // back only the pages written since — orders of magnitude less traffic
  // than re-loading full memory images for short campaign jobs.
  void CaptureMemoryBaseline();
  bool has_memory_baseline() const { return !baseline_sram_.empty(); }
  void RestoreMemoryBaseline();

  const BoardSpec& board() const { return board_; }
  uint32_t flash_end() const { return kFlashBase + board_.flash_size; }
  uint32_t sram_end() const { return kSramBase + board_.sram_size; }

  // Verdict-cached engine fast path (src/rt/bytecode): raw backing access for
  // plain-memory accesses whose MPU verdict the caller has already established
  // and cached against Mpu::ResolveConfigId(). Behavioral twins of the Read/Write
  // fast paths minus the MPU check; dirty-page tracking stays exact. Callers
  // must have checked InSram/InFlash for the same (addr, size) first.
  bool InSram(uint32_t addr, uint32_t size) const {
    uint32_t off = addr - kSramBase;
    return off < board_.sram_size && off + size <= board_.sram_size;
  }
  bool InFlash(uint32_t addr, uint32_t size) const {
    uint32_t off = addr - kFlashBase;
    return off < board_.flash_size && off + size <= board_.flash_size;
  }
  // Forced inline: these sit on the engine's cached-verdict hit path, where a
  // call costs as much as the access itself.
  [[gnu::always_inline]] uint32_t RawSramRead(uint32_t addr, uint32_t size) const {
    return ReadBacking(sram_, addr - kSramBase, size);
  }
  [[gnu::always_inline]] void RawSramWrite(uint32_t addr, uint32_t size, uint32_t value) {
    uint32_t off = addr - kSramBase;
    WriteBacking(sram_, off, size, value);
    MarkDirty(sram_dirty_, off, size);
  }
  [[gnu::always_inline]] uint32_t RawFlashRead(uint32_t addr, uint32_t size) const {
    return ReadBacking(flash_, addr - kFlashBase, size);
  }

  // Forensics: explains why a BusFault-producing access was rejected (PPB
  // privilege rule, flash W^X, region-end overrun, device rejection, unmapped
  // address). Pure observation; performs no device access and charges nothing.
  std::string ExplainFault(uint32_t addr, uint32_t size, AccessKind kind,
                           bool privileged) const;

 private:
  enum class Target { kFlash, kSram, kDevice, kPpb, kUnmapped };
  // Sorted device interval, for O(log n) routing.
  struct DeviceRange {
    uint32_t base = 0;
    uint32_t end = 0;  // exclusive
    MmioDevice* device = nullptr;
  };
  Target Route(uint32_t addr, MmioDevice** device) const;

  AccessResult ReadSlow(uint32_t addr, uint32_t size, bool privileged);
  AccessResult WriteSlow(uint32_t addr, uint32_t size, uint32_t value, bool privileged);

  uint32_t ReadBacking(const std::vector<uint8_t>& mem, uint32_t offset, uint32_t size) const;
  void WriteBacking(std::vector<uint8_t>& mem, uint32_t offset, uint32_t size, uint32_t value);

  AccessResult PpbRead(uint32_t addr, uint32_t size, bool privileged);
  AccessResult PpbWrite(uint32_t addr, uint32_t size, uint32_t value, bool privileged);

  // Dirty-page granularity for the warm-start memory baseline. 4 KB keeps
  // the maps tiny (SRAM: tens of entries) while a typical campaign job
  // dirties well under 10% of them.
  static constexpr uint32_t kDirtyPageShift = 12;
  static constexpr uint32_t kDirtyPageSize = 1u << kDirtyPageShift;

  static void MarkDirty(std::vector<uint8_t>& map, uint32_t offset, uint32_t len) {
    // Word-sized writes hit one page (two when straddling); BulkCopy ranges
    // need every page in between too.
    uint32_t last = (offset + len - 1) >> kDirtyPageShift;
    for (uint32_t p = offset >> kDirtyPageShift; p <= last; ++p) {
      map[p] = 1;
    }
  }

  BoardSpec board_;
  Mpu* mpu_;
  uint64_t* cycles_;
  std::vector<uint8_t> flash_;
  std::vector<uint8_t> sram_;
  // Per-page write tracking (always on — two byte stores per write) and the
  // baseline images RestoreMemoryBaseline copies clean pages from.
  std::vector<uint8_t> flash_dirty_;
  std::vector<uint8_t> sram_dirty_;
  std::vector<uint8_t> baseline_flash_;
  std::vector<uint8_t> baseline_sram_;
  // Devices sorted by base address; Route binary-searches this and keeps a
  // one-entry last-hit cache (device accesses cluster on one peripheral).
  std::vector<DeviceRange> device_ranges_;
  mutable const DeviceRange* last_device_ = nullptr;
  // Scratch registers for core peripherals we accept writes to but do not
  // decode (SCB, memory-mapped MPU alias; the monitor uses the Mpu object API).
  uint32_t systick_load_ = 0;
  uint32_t systick_ctrl_ = 0;
  // Cycle stamp of the last SYST_CVR write: ARMv7-M clears the current count
  // (and COUNTFLAG) on any write to VAL. -1 encodes the reset state — "a
  // reload happened at cycle 0" — which reproduces the historical free-running
  // counter exactly (VAL(c) = reload - c mod (reload+1)) until the first
  // write.
  int64_t systick_cvr_write_cycle_ = -1;
};

inline uint32_t Bus::ReadBacking(const std::vector<uint8_t>& mem, uint32_t offset,
                                 uint32_t size) const {
  // Backing stores hold guest memory in little-endian order, so on a
  // little-endian host a plain memcpy assembles the value directly.
  if constexpr (std::endian::native == std::endian::little) {
    uint32_t v = 0;
    std::memcpy(&v, mem.data() + offset, size);
    return v;
  }
  uint32_t v = 0;
  for (uint32_t i = 0; i < size; ++i) {
    v |= static_cast<uint32_t>(mem[offset + i]) << (8 * i);
  }
  return v;
}

inline void Bus::WriteBacking(std::vector<uint8_t>& mem, uint32_t offset, uint32_t size,
                              uint32_t value) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(mem.data() + offset, &value, size);
    return;
  }
  for (uint32_t i = 0; i < size; ++i) {
    mem[offset + i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

inline AccessResult Bus::Read(uint32_t addr, uint32_t size, bool privileged) {
  // Fast path: the access lies entirely inside SRAM. The slow path repeats
  // the full route/MPU/bounds sequence, so behavior (including the MPU-check-
  // before-bounds-fault ordering for straddles) is identical either way.
  uint32_t off = addr - kSramBase;
  if (off < board_.sram_size && off + size <= board_.sram_size) {
    if (!mpu_->CheckAccess(addr, size, AccessKind::kRead, privileged)) {
      return AccessResult::MemFault();
    }
    return AccessResult::Ok(ReadBacking(sram_, off, size));
  }
  return ReadSlow(addr, size, privileged);
}

inline AccessResult Bus::Write(uint32_t addr, uint32_t size, uint32_t value, bool privileged) {
  uint32_t off = addr - kSramBase;
  if (off < board_.sram_size && off + size <= board_.sram_size) {
    if (!mpu_->CheckAccess(addr, size, AccessKind::kWrite, privileged)) {
      return AccessResult::MemFault();
    }
    WriteBacking(sram_, off, size, value);
    MarkDirty(sram_dirty_, off, size);
    return AccessResult::Ok();
  }
  return WriteSlow(addr, size, value, privileged);
}

}  // namespace opec_hw

#endif  // SRC_HW_BUS_H_
