// Flat register-based bytecode for the OPEC guest IR (DESIGN.md §14).
//
// The Lowerer translates an opec_ir::Module into one linear instruction
// stream; the VM executes it with direct-threaded dispatch. The design
// constraint that shapes everything here is *bit-identical accounting* with
// the tree-walking interpreter: modeled cycles, statement counts, obs events
// and fault reports must be indistinguishable between tiers.
//
// Accounting model. The interpreter charges cycles and counts statements at
// every AST node, but those accumulators are only observable at three kinds
// of points: bus accesses (devices read the cycle counter), obs-event
// emissions, and run end/abort. Between observables the order of accumulation
// is free. The lowerer therefore folds the per-node accounting of pure
// expression nodes into the *next* instruction that can reach an observable —
// any instruction that touches memory, transfers control, or can abort.
// Those "flushing" instructions carry the batched counts in their `stmt` and
// `charge` fields and apply them before doing their own work. Pure register
// instructions carry none.
//
// Statement-limit exactness. A batched increment can overshoot the statement
// limit mid-batch. Each flushing instruction also records an accounting
// script (the per-node interleaving of increments and charges, in interpreter
// order) in a cold side table; when a batch would cross the limit the VM
// replays the script node by node, reproducing the interpreter's exact cycle
// count and `limit + 1` statement count at the abort.
//
// Superinstructions. The memory opcodes fuse the interpreter's multi-step
// load/store sequence — address formation, MPU access check, bus routing,
// backing access and the memory-cycle charge — into one dispatch, backed by a
// per-instruction MPU verdict cache (see vm.h) keyed on the MPU configuration id.
// The lowerer additionally peephole-fuses pure producers into their sole
// consumer at emission time: a kConst feeding a kBinary becomes kBinaryImm, a
// comparison feeding a conditional branch becomes kBrCmp*, and address
// arithmetic (kAddImm field offsets, kIndexAddr array indexing) folds into
// the indirect load/store addressing modes. Only pure instructions are ever
// fused away, so the accounting batches (and hence every modeled output) are
// unchanged; see lowerer.cc for the label-barrier rule that keeps branch
// targets valid.

#ifndef SRC_RT_BYTECODE_BYTECODE_H_
#define SRC_RT_BYTECODE_BYTECODE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace opec_rt {
namespace bytecode {

enum class Op : uint8_t {
  // --- pure register ops (never flush, no accounting fields) ---
  kConst,      // r[a] = imm
  kMove,       // r[a] = r[b]
  kUnary,      // r[a] = unop<sub>(r[b]), result masked by imm (0xFFFFFFFF = none)
  kBinary,     // r[a] = binop<sub>(r[b], r[c]); imm = result mask,
               // imm2 = (signed << 8) | operand bit width (sign-extension)
  kBinaryImm,  // r[a] = binop<sub>(r[b], imm); imm2 = (mask-sel << 9) |
               // (signed << 8) | bits; result mask = {0xFF,0xFFFF,~0}[mask-sel]
  kLea,        // r[a] = frame_base + imm (address of a local slot)
  kAddImm,     // r[a] = r[b] + imm (field offsets, folded constants)
  kIndexAddr,  // r[a] = r[b] + r[c] * imm (array indexing; imm = element size)
  kSext,       // r[a] = sign_extend<imm2 bits>(r[b]) & imm (widening casts)
  kAndImm,     // r[a] = r[b] & imm (truncating casts)

  // --- flushing ops (apply stmt/charge, then execute; may abort) ---
  kAcct,       // accounting only (join-point flush); falls through
  kDivRem,     // like kBinary but sub ∈ {kDiv, kRem}: aborts on zero divisor
  kLoadLocal,  // r[a] = Mem[frame_base + imm]; sub = size  (verdict-cached)
  kStoreLocal, // Mem[frame_base + imm] = r[a] & imm2; sub = size
  kLoadAbs,    // r[a] = Mem[imm]; sub = size (globals)     (verdict-cached)
  kStoreAbs,   // Mem[imm] = r[a] & imm2; sub = size
  kLoadInd,    // r[a] = Mem[r[b] + imm]; sub = size        (verdict-cached)
  kStoreInd,   // Mem[r[b] + imm] = r[a] & imm2; sub = size
  kLoadIdx,    // r[a] = Mem[r[b] + r[c]*imm]; sub = size   (verdict-cached)
  kStoreIdx,   // Mem[r[b] + r[c]*imm] = r[a] & imm2; sub = size
  kJump,       // pc = imm
  kBrFalse,    // if (r[a] == 0) pc = imm
  kBrTrue,     // if (r[a] != 0) pc = imm
  kBrCmpFalse,     // if (!cmp<sub>(r[b], r[c])) pc = imm; imm2 = sign|bits
  kBrCmpTrue,      // if ( cmp<sub>(r[b], r[c])) pc = imm; imm2 = sign|bits
  kBrCmpImmFalse,  // if (!cmp<sub>(r[b], a | c<<16)) pc = imm; imm2 = sign|bits
  kBrCmpImmTrue,   // if ( cmp<sub>(r[b], a | c<<16)) pc = imm; imm2 = sign|bits
  kCall,       // r[a] = call functions[imm](arg_pool[b .. b+sub));
               // imm2 = operation_entry_id + 1 (0 = plain call)
  kCallInd,    // r[a] = call functions[r[c]](arg_pool[b .. b+sub)); imm2 as kCall
  kICallCheck, // r[a] = ordinal of FuncAt(r[b]); imm = expected param count;
               // aborts on non-function target or signature mismatch
  kRet,        // return r[a] (sub = 1) or 0 (sub = 0) from the current frame
  kAbort,      // abort the run with messages[imm]
};

const char* OpName(Op op);

// One instruction. 32 bytes, 8-aligned; the accounting script lives in the
// cold side table (BytecodeModule::acct), not here.
struct Insn {
  Op op = Op::kAbort;
  uint8_t sub = 0;      // access size / UnaryOp / BinaryOp, per opcode doc
  uint16_t a = 0;
  uint16_t b = 0;
  uint16_t c = 0;
  uint16_t stmt = 0;    // statement increments to apply (flushing ops only)
  uint16_t pad_ = 0;
  uint32_t imm = 0;
  uint32_t imm2 = 0;
  uint64_t charge = 0;  // cycles to charge (flushing ops only)
};
static_assert(sizeof(Insn) == 32, "Insn packs to 32 bytes");

struct BytecodeFunction {
  uint32_t entry = 0;   // pc of the first instruction
  uint16_t nregs = 0;   // virtual registers used
};

// The accounting-script side table entry kinds (see header comment): -1 is
// one statement increment (with limit check); any other value is a charge.
inline constexpr int64_t kAcctStmt = -1;

struct BytecodeModule {
  std::vector<Insn> code;
  std::vector<BytecodeFunction> funcs;   // by Function::ordinal()
  std::vector<uint16_t> arg_pool;        // call argument registers
  std::vector<std::string> messages;     // kAbort reasons
  // Per-instruction accounting scripts: acct[pc] = (offset, length) into
  // acct_pool; length 0 = no script (pure op or empty batch).
  std::vector<std::pair<uint32_t, uint32_t>> acct;
  std::vector<int64_t> acct_pool;
  uint16_t max_regs = 0;                 // max nregs over all functions

  // Human-readable listing of one function (for tests and debugging).
  std::string Disassemble(int func_ordinal) const;
};

}  // namespace bytecode
}  // namespace opec_rt

#endif  // SRC_RT_BYTECODE_BYTECODE_H_
