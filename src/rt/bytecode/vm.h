// The bytecode execution tier: a register VM over the code produced by
// Lowerer, implementing the same Engine contract as the tree-walking
// interpreter with bit-identical modeled cycles, statement counts, obs events
// and fault reports (the interpreter remains the differential oracle).
//
// Dispatch is direct-threaded (computed goto) on GCC/Clang with a portable
// switch fallback. Each memory instruction (and each function's parameter
// spill) owns an MPU verdict cache slot: after a successful access to plain
// memory whose verdict is an allow, the maximal uniform-verdict interval
// around the address (Mpu::AllowedRange, clipped to the backing store) is
// cached together with the privilege level and backing kind under the MPU's
// configuration id (Mpu::ResolveConfigId); later executions of the same
// instruction landing anywhere inside the interval skip the shared bus/MPU
// path and touch the backing store directly (plus the identical memory-cycle
// charge). Intervals span whole (sub-)regions, so streaming accesses that
// walk an array stay cached instead of missing at every 32-byte window. The
// id names the whole register file, so an operation switch only makes the
// slots filled under the old configuration miss until it comes back; the
// hit test is inlined into the dispatch loop and only a miss makes a call.

#ifndef SRC_RT_BYTECODE_VM_H_
#define SRC_RT_BYTECODE_VM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/rt/bytecode/bytecode.h"
#include "src/rt/engine.h"

namespace opec_rt {
namespace bytecode {

class VM : public Engine {
 public:
  VM(opec_hw::Machine& machine, const opec_ir::Module& module,
     const AddressAssignment& layout, Supervisor* supervisor = nullptr);

  RunResult Run(const std::string& entry = "main",
                const std::vector<uint32_t>& args = {}) override;

  // The lowered module (lowering happens lazily at first Run and again
  // whenever the cost model changed). For tests and disassembly.
  const BytecodeModule& Bytecode();

  // Adopts a pre-lowered module — the distributed artifact cache (DESIGN.md
  // §16) ships these between workers so a warm worker never re-lowers.
  // Refused (returns false) unless `costs` equals this engine's current cost
  // model and the function table matches this module; lowering is
  // deterministic, so an accepted adoption executes bit-identically to
  // EnsureLowered()'s own output.
  bool AdoptBytecode(BytecodeModule bc, const CostModel& costs);
  // Moves `prev`'s lowered module, if it has one, into this engine under the
  // same checks. AppRun::RestoreBoot rebuilds the engine over an unchanged
  // module, so the lowering carries over instead of being redone per job.
  bool AdoptBytecode(VM&& prev);
  // True once a module is lowered or adopted.
  bool has_bytecode() const { return lowered_; }

 private:
  // One active call frame. Registers live in one preallocated file; each
  // frame's window starts where its caller's ends, so pointers stay stable
  // for the whole run.
  struct VFrame {
    const opec_ir::Function* fn = nullptr;
    const opec_ir::Function* saved_fn = nullptr;
    uint32_t return_pc = 0;
    uint32_t reg_base = 0;
    uint32_t frame_base = 0;
    uint32_t saved_sp = 0;
    uint16_t ret_dst = 0;       // caller register receiving the return value
    bool is_op = false;         // operation-entry call (SVC protocol applies)
    bool via_call = false;      // false only for the entry frame
    int op_id = -1;             // operation entry id when is_op
    int caller_operation = -1;  // restored on exit and on unwind
  };

  // MPU verdict cache entry: an allow interval [lo, hi] (inclusive, already
  // clipped to the backing store) valid under one MPU configuration id and
  // privilege level. Id 0 never matches (ids start at 1, and an unresolved
  // Mpu::config_id() is kUnresolvedConfig).
  struct VCache {
    uint64_t config = 0;
    uint32_t lo = 0;
    uint32_t hi = 0;
    uint8_t priv = 0;
    uint8_t backing = 0;  // 0 = SRAM, 1 = flash (loads only)
  };

  void EnsureLowered();
  // Sizes the verdict caches, register file and frame stack for bc_.
  void InitRunState();
  uint32_t Execute(const opec_ir::Function* entry_fn, const std::vector<uint32_t>& args);

  // Call protocol split (mirrors CallFunction/DoCall): EnterCall performs the
  // pre-side (arg gathering and attacks, SVC charge/events, supervisor entry
  // hooks) and pushes the callee frame; the kRet handler performs the exit
  // side. PushFrame throws with no frame pushed (depth, stack overflow);
  // parameter spill faults happen with the frame pushed, so the unwinder
  // emits this frame's exit event exactly like the interpreter's nested
  // try/catch does.
  void EnterCall(const Insn& ins, const opec_ir::Function* fn, uint32_t ret_pc,
                 const uint32_t* R);
  void PushFrame(const opec_ir::Function* fn, size_t nargs, uint32_t return_pc,
                 uint16_t ret_dst, int op_id, bool is_op, bool via_call,
                 int caller_operation);
  void SpillParams(const uint32_t* args, size_t nargs);
  void UnwindAllFrames();

  // Verdict-cached accesses: the hit test and raw access are inlined at each
  // use; a miss calls the out-of-line LoadMiss/StoreMiss.
  uint32_t CachedLoad(VCache& vc, uint32_t addr, uint32_t size);
  void CachedStore(VCache& vc, uint32_t addr, uint32_t size, uint32_t value);
  uint32_t LoadMiss(VCache& vc, uint32_t addr, uint32_t size);
  void StoreMiss(VCache& vc, uint32_t addr, uint32_t size, uint32_t value);

  // Replays the accounting script of the instruction at `pc` node by node
  // after its statement batch crossed the limit, reproducing the exact
  // interpreter-side cycle count and statements_ == limit + 1 at the abort.
  [[noreturn]] void ReplayAcct(uint32_t pc);

  BytecodeModule bc_;
  bool lowered_ = false;
  CostModel lowered_costs_;

  std::vector<VCache> vcache_;     // one slot per instruction
  std::vector<VCache> spill_vcache_;  // one slot per function (SpillParams)
  std::vector<uint32_t> regs_;     // (kMaxDepth + 1) frame windows
  std::vector<VFrame> frames_;
  std::vector<uint32_t> call_args_;  // scratch; rewritten by OnOperationEnter
};

}  // namespace bytecode
}  // namespace opec_rt

#endif  // SRC_RT_BYTECODE_VM_H_
