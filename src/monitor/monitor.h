// OPEC-Monitor (Section 5): the privileged reference monitor.
//
// Responsibilities, mapped to the paper:
//   * Initialization (5.1): initialize every operation data section's shadow
//     copies, set up the fixed MPU regions, enter the default (main)
//     operation, drop privilege.
//   * Resource isolation (5.2): per-operation MPU configuration; stack
//     protection via sub-region disabling and argument relocation; peripheral
//     MPU-region virtualization (round-robin over regions 4..7, driven by
//     MemManage faults); load/store emulation for core peripherals (driven by
//     BusFaults on unprivileged PPB accesses).
//   * Operation switch (5.3): triggered by the SVCs at instrumented call
//     sites; synchronizes shared shadow copies through the public data
//     section with sanitization, updates the relocation table, redirects
//     pointer fields into the new operation's shadows, and saves/restores the
//     operation context.

#ifndef SRC_MONITOR_MONITOR_H_
#define SRC_MONITOR_MONITOR_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/compiler/policy.h"
#include "src/hw/machine.h"
#include "src/hw/soc.h"
#include "src/rt/engine.h"
#include "src/rt/supervisor.h"

namespace opec_monitor {

struct MonitorStats {
  uint64_t operation_switches = 0;      // enter + exit pairs count as 2
  uint64_t synced_bytes = 0;            // shadow <-> public copies
  uint64_t relocated_stack_bytes = 0;
  uint64_t virtualization_faults = 0;   // peripheral MPU demand-maps
  uint64_t emulated_core_accesses = 0;  // PPB load/store emulations
  uint64_t pointer_redirections = 0;
  uint64_t sanitization_checks = 0;
};

// Cycle costs of monitor work, charged to the machine (the monitor runs on
// the same core as the application).
struct MonitorCosts {
  uint64_t switch_overhead = 100;   // exception entry, context save, MPU writes
  uint64_t per_word_copy = 1;       // ldm/stm burst copy, per 4 bytes
  uint64_t mpu_region_write = 12;   // one region reconfiguration
  uint64_t fault_entry = 60;        // MemManage/BusFault entry + decode
  uint64_t emulation = 30;          // core-peripheral load/store emulation
};

class Monitor : public opec_rt::Supervisor {
 public:
  Monitor(opec_hw::Machine& machine, const opec_compiler::Policy& policy,
          const opec_hw::SocDescription& soc);

  // --- opec_rt::Supervisor ---
  void OnProgramStart(opec_rt::EngineControl* engine) override;
  void OnProgramEnd() override;
  bool OnOperationEnter(int op_id, std::vector<uint32_t>& args) override;
  bool OnOperationExit(int op_id) override;
  bool OnMemFault(uint32_t addr, opec_hw::AccessKind kind) override;
  bool OnBusFault(uint32_t addr, uint32_t size, opec_hw::AccessKind kind, uint32_t write_value,
                  uint32_t* read_value) override;

  const MonitorStats& stats() const { return stats_; }
  const std::string& last_violation() const { return last_violation_; }
  int current_operation() const;

  // Snapshot support (DESIGN.md §13): the full operation-switch bookkeeping —
  // context stack (saved SP/SRD/peripheral regions/relocation entries per
  // nested operation), the active stack-protection SRD, the peripheral
  // round-robin cursor and the statistics counters. The policy itself is
  // immutable compile output and is not serialized; LoadState therefore only
  // restores state into a monitor built from the same compile.
  void SaveState(opec_hw::StateWriter& w) const;
  void LoadState(opec_hw::StateReader& r);

 private:
  struct StackReloc {
    uint32_t original = 0;  // pointer into the previous operation's stack
    uint32_t copy = 0;      // relocated copy on the new operation's stack
    uint32_t size = 0;
  };
  // Saved context of the *previous* operation, restored on exit (5.3).
  struct OpContext {
    int op_id = -1;                // the operation being entered
    int previous_op_id = -1;       // whose context we saved
    uint32_t saved_sp = 0;
    uint8_t saved_srd = 0;
    std::array<opec_hw::MpuRegionConfig, 4> saved_periph{};
    opec_hw::MpuRegionConfig saved_section{};
    int saved_rr = 0;
    std::vector<StackReloc> relocs;
  };

  const opec_compiler::OperationPolicy& Op(int id) const;

  // Privileged memory helpers (charge monitor cycles).
  uint32_t PrivRead(uint32_t addr, uint32_t size);
  void PrivWrite(uint32_t addr, uint32_t size, uint32_t value);
  void CopyBytes(uint32_t src, uint32_t dst, uint32_t n);

  // Shadow synchronization (Figure 7). Returns false on sanitization failure.
  bool WriteBackShadows(int op_id);
  void CopyInShadows(int op_id);
  void UpdateRelocTable(int op_id);
  void RedirectPointerFields(int op_id);
  // Resolves an address that points at (public or shadow) storage of an
  // external variable; returns the variable index and offset, or -1.
  int ResolveExternalStorage(uint32_t addr, uint32_t* offset) const;

  void ConfigureMpuForOperation(int op_id, uint8_t srd);
  void ApplyStackSrd(uint8_t srd);

  bool Sanitize(const opec_compiler::ExternalVar& ev, uint32_t shadow_addr);

  opec_hw::Machine& machine_;
  const opec_compiler::Policy& policy_;
  const opec_hw::SocDescription& soc_;
  opec_rt::EngineControl* engine_ = nullptr;

  std::vector<OpContext> context_stack_;
  std::vector<uint32_t> reloc_targets_;  // UpdateRelocTable scratch
  uint8_t current_srd_ = 0;
  int periph_rr_ = 0;  // round-robin cursor over MPU regions 4..7

  MonitorStats stats_;
  MonitorCosts costs_;
  std::string last_violation_;
};

}  // namespace opec_monitor

#endif  // SRC_MONITOR_MONITOR_H_
