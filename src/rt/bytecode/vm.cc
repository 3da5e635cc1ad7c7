#include "src/rt/bytecode/vm.h"

#include <algorithm>

#include "src/obs/event.h"
#include "src/rt/bytecode/lowerer.h"
#include "src/support/check.h"
#include "src/support/text.h"

namespace opec_rt {
namespace bytecode {

using opec_hw::AccessKind;
using opec_ir::BinaryOp;
using opec_ir::Function;
using opec_ir::Type;
using opec_ir::UnaryOp;

namespace {

// Sentinel return_pc of the entry frame: returning from it ends the run.
constexpr uint32_t kHaltPc = 0xFFFFFFFFu;

inline int32_t SextBits(uint32_t v, uint32_t bits) {
  if (bits == 32) {
    return static_cast<int32_t>(v);
  }
  uint32_t m = 1u << (bits - 1);
  return static_cast<int32_t>((v ^ m) - m);
}

// Shared arithmetic/comparison core of kBinary, kBinaryImm and the fused
// kBrCmp* branches. imm2 carries (signed << 8) | operand bit width. Forced
// inline: out of line, every arithmetic handler paid a call.
[[gnu::always_inline]] inline uint32_t EvalBinary(BinaryOp op, uint32_t x, uint32_t y,
                                                  uint32_t imm2) {
  uint32_t bits = imm2 & 0xFFu;
  bool sign = (imm2 & 0x100u) != 0;
  switch (op) {
    case BinaryOp::kAdd:
      return x + y;
    case BinaryOp::kSub:
      return x - y;
    case BinaryOp::kMul:
      return x * y;
    case BinaryOp::kAnd:
      return x & y;
    case BinaryOp::kOr:
      return x | y;
    case BinaryOp::kXor:
      return x ^ y;
    case BinaryOp::kShl:
      return x << (y & 31);
    case BinaryOp::kShr:
      return sign ? static_cast<uint32_t>(SextBits(x, bits) >> (y & 31)) : x >> (y & 31);
    case BinaryOp::kEq:
      return x == y;
    case BinaryOp::kNe:
      return x != y;
    case BinaryOp::kLt:
      return sign ? SextBits(x, bits) < SextBits(y, bits) : x < y;
    case BinaryOp::kLe:
      return sign ? SextBits(x, bits) <= SextBits(y, bits) : x <= y;
    case BinaryOp::kGt:
      return sign ? SextBits(x, bits) > SextBits(y, bits) : x > y;
    case BinaryOp::kGe:
      return sign ? SextBits(x, bits) >= SextBits(y, bits) : x >= y;
    case BinaryOp::kDiv:
    case BinaryOp::kRem:
    case BinaryOp::kLogAnd:
    case BinaryOp::kLogOr:
      break;  // lowered to kDivRem / branches
  }
  OPEC_UNREACHABLE("lowered to kDivRem / branches");
}

// kBinaryImm result masks, selected by imm2 bits 10:9.
constexpr uint32_t kMaskTab[4] = {0xFFu, 0xFFFFu, 0xFFFFFFFFu, 0xFFFFFFFFu};

}  // namespace

// Hit path of the verdict caches, inlined into every memory handler: the slot
// was filled under the MPU's current configuration id and privilege level and
// the access lies inside its allow interval, so the region walk's verdict is
// known to be an allow and the access goes straight to the backing store
// with the same single memory charge the shared path makes.
[[gnu::always_inline]] inline uint32_t VM::CachedLoad(VCache& vc, uint32_t addr,
                                                      uint32_t size) {
  if (vc.config == machine_.mpu().config_id() && addr >= vc.lo &&
      addr + static_cast<uint64_t>(size) - 1 <= vc.hi &&
      vc.priv == static_cast<uint8_t>(machine_.privileged())) [[likely]] {
    uint32_t v = vc.backing == 0 ? machine_.bus().RawSramRead(addr, size)
                                 : machine_.bus().RawFlashRead(addr, size);
    Charge(costs_.memory);
    return v;
  }
  return LoadMiss(vc, addr, size);
}

[[gnu::always_inline]] inline void VM::CachedStore(VCache& vc, uint32_t addr, uint32_t size,
                                                   uint32_t value) {
  if (vc.config == machine_.mpu().config_id() && addr >= vc.lo &&
      addr + static_cast<uint64_t>(size) - 1 <= vc.hi &&
      vc.priv == static_cast<uint8_t>(machine_.privileged())) [[likely]] {
    machine_.bus().RawSramWrite(addr, size, value);
    Charge(costs_.memory);
    return;
  }
  StoreMiss(vc, addr, size, value);
}

// Miss: only plain SRAM/flash accesses are cacheable, so anything else
// (devices, PPB, unmapped) goes straight to the shared path without a region
// walk. For plain memory the configuration id is resolved (once per batch of
// reconfigurations) and the slot re-tested under it — a configuration that
// came back still holds its verdict. Otherwise one region walk decides the
// verdict and yields the uniform-verdict interval; an allow whose clipped
// interval covers the whole access fills the slot and completes through the
// raw backing path. Denies and boundary-straddling accesses fall back to
// MemRead/MemWrite's full fault semantics and are never cached.
[[gnu::noinline]] uint32_t VM::LoadMiss(VCache& vc, uint32_t addr, uint32_t size) {
  const opec_hw::Bus& bus = machine_.bus();
  uint8_t backing = 0;  // 0 = SRAM, 1 = flash
  uint32_t mem_lo = opec_hw::kSramBase;
  uint32_t mem_hi = bus.sram_end() - 1;
  if (!bus.InSram(addr, size)) {
    if (!bus.InFlash(addr, size)) {
      return MemRead(addr, size);
    }
    backing = 1;
    mem_lo = opec_hw::kFlashBase;
    mem_hi = bus.flash_end() - 1;
  }
  uint64_t last = addr + static_cast<uint64_t>(size) - 1;
  uint64_t config = machine_.mpu().ResolveConfigId();
  uint8_t priv = static_cast<uint8_t>(machine_.privileged());
  bool hit = vc.config == config && addr >= vc.lo && last <= vc.hi && vc.priv == priv;
  if (!hit) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    if (!machine_.mpu().AllowedRange(addr, AccessKind::kRead, priv != 0, &lo, &hi)) {
      return MemRead(addr, size);  // shared slow path: full fault semantics
    }
    lo = std::max(lo, mem_lo);
    hi = std::min(hi, mem_hi);
    if (addr < lo || last > hi) {
      return MemRead(addr, size);
    }
    vc = VCache{config, lo, hi, priv, backing};
  }
  uint32_t v = vc.backing == 0 ? bus.RawSramRead(addr, size) : bus.RawFlashRead(addr, size);
  Charge(costs_.memory);
  return v;
}

[[gnu::noinline]] void VM::StoreMiss(VCache& vc, uint32_t addr, uint32_t size,
                                     uint32_t value) {
  opec_hw::Bus& bus = machine_.bus();
  if (!bus.InSram(addr, size)) {
    MemWrite(addr, size, value);  // flash is not writable; devices, PPB, unmapped
    return;
  }
  uint64_t last = addr + static_cast<uint64_t>(size) - 1;
  uint64_t config = machine_.mpu().ResolveConfigId();
  uint8_t priv = static_cast<uint8_t>(machine_.privileged());
  bool hit = vc.config == config && addr >= vc.lo && last <= vc.hi && vc.priv == priv;
  if (!hit) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    if (!machine_.mpu().AllowedRange(addr, AccessKind::kWrite, priv != 0, &lo, &hi)) {
      MemWrite(addr, size, value);
      return;
    }
    lo = std::max(lo, opec_hw::kSramBase);
    hi = std::min(hi, bus.sram_end() - 1);
    if (addr < lo || last > hi) {
      MemWrite(addr, size, value);
      return;
    }
    vc = VCache{config, lo, hi, priv, 0};
  }
  bus.RawSramWrite(addr, size, value);
  Charge(costs_.memory);
}

VM::VM(opec_hw::Machine& machine, const opec_ir::Module& module,
       const AddressAssignment& layout, Supervisor* supervisor)
    : Engine(machine, module, layout, supervisor) {}

const BytecodeModule& VM::Bytecode() {
  EnsureLowered();
  return bc_;
}

void VM::EnsureLowered() {
  if (lowered_ && lowered_costs_ == costs_) {
    return;
  }
  bc_ = Lowerer::Lower(*this, costs_);
  InitRunState();
}

void VM::InitRunState() {
  vcache_.assign(bc_.code.size(), VCache{});
  spill_vcache_.assign(bc_.funcs.size(), VCache{});
  // One register window per possible frame, preallocated so register pointers
  // never move mid-run. Zero-filled once: register values are never
  // observable, but deterministic contents keep any latent read-before-write
  // lowering bug deterministic too.
  size_t window = std::max<size_t>(bc_.max_regs, 1);
  regs_.assign(static_cast<size_t>(kMaxDepth + 1) * window + 16, 0);
  frames_.reserve(kMaxDepth + 1);
  lowered_ = true;
  lowered_costs_ = costs_;
}

bool VM::AdoptBytecode(BytecodeModule bc, const CostModel& costs) {
  if (!(costs == costs_) || bc.funcs.size() != module_.functions().size() ||
      bc.acct.size() != bc.code.size()) {
    return false;
  }
  for (const BytecodeFunction& fn : bc.funcs) {
    if (fn.entry >= bc.code.size()) {
      return false;
    }
  }
  bc_ = std::move(bc);
  InitRunState();
  return true;
}

bool VM::AdoptBytecode(VM&& prev) {
  return prev.lowered_ && AdoptBytecode(std::move(prev.bc_), prev.lowered_costs_);
}

void VM::PushFrame(const Function* fn, size_t nargs, uint32_t return_pc,
                   uint16_t ret_dst, int op_id, bool is_op, bool via_call,
                   int caller_operation) {
  if (++depth_ > kMaxDepth) {
    --depth_;
    throw ExecutionAborted{"call depth limit exceeded in " + fn->name()};
  }
  OPEC_CHECK_MSG(static_cast<int>(nargs) == fn->param_count(),
                 "arity mismatch calling " + fn->name());
  const FrameLayout& fl = frame_layouts_[static_cast<size_t>(fn->ordinal())];
  uint32_t saved_sp = sp_;
  uint32_t base = (sp_ - fl.size) & ~7u;
  if (base < layout_.stack_base) {
    --depth_;
    throw ExecutionAborted{"guest stack overflow in " + fn->name()};
  }
  sp_ = base;
  const Function* saved_fn = current_fn_;
  current_fn_ = fn;
  OPEC_OBS_EVENT(opec_obs::EventKind::kFunctionEnter, machine_.cycles(), current_operation_,
                 depth_, static_cast<uint32_t>(fn->ordinal()));
  MaybeFireAttacks(fn);

  VFrame fr;
  fr.fn = fn;
  fr.saved_fn = saved_fn;
  fr.return_pc = return_pc;
  fr.reg_base = frames_.empty()
                    ? 0
                    : frames_.back().reg_base +
                          bc_.funcs[static_cast<size_t>(frames_.back().fn->ordinal())].nregs;
  fr.frame_base = base;
  fr.saved_sp = saved_sp;
  fr.ret_dst = ret_dst;
  fr.is_op = is_op;
  fr.via_call = via_call;
  fr.op_id = op_id;
  fr.caller_operation = caller_operation;
  frames_.push_back(fr);
}

void VM::SpillParams(const uint32_t* args, size_t nargs) {
  // Through the function's verdict slot, with the checked bus on a miss like
  // the interpreter: a disabled stack sub-region faults right here — that is
  // the stack protection.
  const VFrame& fr = frames_.back();
  size_t ord = static_cast<size_t>(fr.fn->ordinal());
  const FrameLayout& fl = frame_layouts_[ord];
  for (size_t i = 0; i < nargs; ++i) {
    const Type* pt = fr.fn->locals()[i].type;
    CachedStore(spill_vcache_[ord], fr.frame_base + fl.offsets[i], pt->size(),
                Truncate(pt, args[i]));
  }
}

void VM::EnterCall(const Insn& ins, const Function* fn, uint32_t ret_pc,
                   const uint32_t* R) {
  size_t nargs = ins.sub;
  call_args_.clear();
  const uint16_t* pool = bc_.arg_pool.data() + ins.b;
  for (size_t i = 0; i < nargs; ++i) {
    call_args_.push_back(R[pool[i]]);
  }

  Charge(costs_.call + costs_.op * nargs);
  int op_entry = static_cast<int>(ins.imm2) - 1;
  bool is_op = op_entry >= 0 && supervisor_ != nullptr;
  int saved_operation = current_operation_;

  if (is_op) {
    if (!arg_attacks_.empty()) {
      int count = ++arg_entry_counts_[op_entry];
      for (ArgAttackSpec& a : arg_attacks_) {
        if (a.fired || a.op_id != op_entry || a.occurrence != count ||
            a.arg_index >= call_args_.size()) {
          continue;
        }
        a.fired = true;
        call_args_[a.arg_index] = a.value;
      }
    }
    Charge(costs_.svc);  // SVC before the call site
    OPEC_OBS_EVENT(opec_obs::EventKind::kSvc, machine_.cycles(), saved_operation, depth_,
                   static_cast<uint32_t>(op_entry), 0);
    if (!supervisor_->OnOperationEnter(op_entry, call_args_)) {
      throw ExecutionAborted{opec_support::StrPrintf(
          "monitor rejected entry into operation %d (%s)", op_entry, fn->name().c_str())};
    }
    current_operation_ = op_entry;
    OPEC_OBS_EVENT(opec_obs::EventKind::kOperationEnter, machine_.cycles(), current_operation_,
                   depth_, static_cast<uint32_t>(op_entry),
                   static_cast<uint32_t>(saved_operation));
  } else if (supervisor_ != nullptr) {
    if (!supervisor_->OnFunctionCall(fn)) {
      throw ExecutionAborted{"supervisor rejected call to " + fn->name()};
    }
  }

  try {
    PushFrame(fn, nargs, ret_pc, ins.a, op_entry, is_op, /*via_call=*/true,
              saved_operation);
  } catch (...) {
    // Depth/overflow rejections throw before the frame exists; restore the
    // operation like CallFunction's catch would. Spill faults below happen
    // with the frame pushed and are restored by the unwinder instead.
    current_operation_ = saved_operation;
    throw;
  }
  SpillParams(call_args_.data(), nargs);
}

void VM::UnwindAllFrames() {
  // Mirrors the interpreter's nested DoCall/CallFunction catch blocks,
  // innermost out: exit event (operation and depth still the frame's), state
  // restore, then the caller's operation.
  while (!frames_.empty()) {
    VFrame& fr = frames_.back();
    OPEC_OBS_EVENT(opec_obs::EventKind::kFunctionExit, machine_.cycles(), current_operation_,
                   depth_, static_cast<uint32_t>(fr.fn->ordinal()));
    current_fn_ = fr.saved_fn;
    --depth_;
    sp_ = fr.saved_sp;
    current_operation_ = fr.caller_operation;
    frames_.pop_back();
  }
}

void VM::ReplayAcct(uint32_t pc) {
  auto [ofs, len] = bc_.acct[pc];
  OPEC_CHECK_MSG(len != 0, "statement batch crossed the limit without a replay script");
  for (uint32_t i = 0; i < len; ++i) {
    int64_t e = bc_.acct_pool[ofs + i];
    if (e == kAcctStmt) {
      if (++statements_ > statement_limit_) {
        throw ExecutionAborted{"statement limit exceeded (possible guest infinite loop)"};
      }
    } else {
      Charge(static_cast<uint64_t>(e));
    }
  }
  OPEC_UNREACHABLE("statement batch crossed the limit but the replay did not");
}

// Direct-threaded dispatch on GCC/Clang; portable switch loop elsewhere. The
// handler bodies are written once and shared between the two modes.
#if defined(__GNUC__) || defined(__clang__)
#define OPEC_VM_THREADED 1
#endif

#ifdef OPEC_VM_THREADED
#define OPEC_VM_CASE(name) L_##name:
#define OPEC_VM_NEXT()                        \
  do {                                        \
    I = &code[pc];                            \
    goto* kDispatch[static_cast<int>(I->op)]; \
  } while (0)
#else
#define OPEC_VM_CASE(name) case Op::name:
#define OPEC_VM_NEXT() break
#endif

// Applies a flushing instruction's batched accounting: statement increments
// (with exact limit replay on crossing and the interpreter's 8192-statement
// cancellation poll cadence), then the batched cycle charge.
#define OPEC_VM_FLUSH()                                                      \
  do {                                                                       \
    if (I->stmt != 0) {                                                      \
      uint64_t before_ = statements_;                                        \
      statements_ += I->stmt;                                                \
      if (statements_ > statement_limit_) [[unlikely]] {                     \
        statements_ = before_;                                               \
        ReplayAcct(static_cast<uint32_t>(I - code));                         \
      }                                                                      \
      if (cancel_ != nullptr && ((before_ ^ statements_) & ~0x1FFFull) != 0) \
          [[unlikely]] {                                                     \
        if (cancel_->load(std::memory_order_relaxed)) {                      \
          throw ExecutionAborted{"canceled: wall-clock deadline exceeded"};  \
        }                                                                    \
      }                                                                      \
    }                                                                        \
    if (I->charge != 0) {                                                    \
      Charge(I->charge);                                                     \
    }                                                                        \
  } while (0)

uint32_t VM::Execute(const Function* entry_fn, const std::vector<uint32_t>& args) {
  const Insn* const code = bc_.code.data();

  // Entry frame: pushed directly, like Run -> DoCall in the interpreter — no
  // call charge, no operation-entry protocol, no supervisor call hooks.
  PushFrame(entry_fn, args.size(), kHaltPc, 0, /*op_id=*/-1, /*is_op=*/false,
            /*via_call=*/false, current_operation_);
  SpillParams(args.data(), args.size());

  uint32_t pc = bc_.funcs[static_cast<size_t>(entry_fn->ordinal())].entry;
  uint32_t* R = regs_.data() + frames_.back().reg_base;
  uint32_t fp = frames_.back().frame_base;
  const Insn* I = nullptr;

#ifdef OPEC_VM_THREADED
  static const void* const kDispatch[] = {
      &&L_kConst,     &&L_kMove,       &&L_kUnary,      &&L_kBinary,
      &&L_kBinaryImm, &&L_kLea,        &&L_kAddImm,     &&L_kIndexAddr,
      &&L_kSext,      &&L_kAndImm,     &&L_kAcct,       &&L_kDivRem,
      &&L_kLoadLocal, &&L_kStoreLocal, &&L_kLoadAbs,    &&L_kStoreAbs,
      &&L_kLoadInd,   &&L_kStoreInd,   &&L_kLoadIdx,    &&L_kStoreIdx,
      &&L_kJump,      &&L_kBrFalse,    &&L_kBrTrue,     &&L_kBrCmpFalse,
      &&L_kBrCmpTrue, &&L_kBrCmpImmFalse, &&L_kBrCmpImmTrue, &&L_kCall,
      &&L_kCallInd,   &&L_kICallCheck, &&L_kRet,        &&L_kAbort,
  };
  static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) ==
                static_cast<size_t>(Op::kAbort) + 1);
  OPEC_VM_NEXT();
#else
  for (;;) {
    I = &code[pc];
    switch (I->op) {
#endif

      OPEC_VM_CASE(kConst) {
        R[I->a] = I->imm;
        ++pc;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kMove) {
        R[I->a] = R[I->b];
        ++pc;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kUnary) {
        uint32_t v = R[I->b];
        uint32_t r = 0;
        switch (static_cast<UnaryOp>(I->sub)) {
          case UnaryOp::kNeg:
            r = 0u - v;
            break;
          case UnaryOp::kBitNot:
            r = ~v;
            break;
          case UnaryOp::kLogNot:
            r = v == 0 ? 1u : 0u;
            break;
        }
        R[I->a] = r & I->imm;
        ++pc;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kBinary) {
        R[I->a] =
            EvalBinary(static_cast<BinaryOp>(I->sub), R[I->b], R[I->c], I->imm2) & I->imm;
        ++pc;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kBinaryImm) {
        R[I->a] = EvalBinary(static_cast<BinaryOp>(I->sub), R[I->b], I->imm, I->imm2) &
                  kMaskTab[(I->imm2 >> 9) & 3];
        ++pc;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kLea) {
        R[I->a] = fp + I->imm;
        ++pc;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kAddImm) {
        R[I->a] = R[I->b] + I->imm;
        ++pc;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kIndexAddr) {
        R[I->a] = R[I->b] + R[I->c] * I->imm;
        ++pc;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kSext) {
        R[I->a] = static_cast<uint32_t>(SextBits(R[I->b], I->imm2)) & I->imm;
        ++pc;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kAndImm) {
        R[I->a] = R[I->b] & I->imm;
        ++pc;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kAcct) {
        OPEC_VM_FLUSH();
        ++pc;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kDivRem) {
        OPEC_VM_FLUSH();
        uint32_t x = R[I->b];
        uint32_t y = R[I->c];
        bool div = static_cast<BinaryOp>(I->sub) == BinaryOp::kDiv;
        if (y == 0) {
          throw ExecutionAborted{div ? "division by zero" : "remainder by zero"};
        }
        uint32_t r;
        if ((I->imm2 & 0x100u) != 0) {
          uint32_t bits = I->imm2 & 0xFFu;
          int32_t sx = SextBits(x, bits);
          int32_t sy = SextBits(y, bits);
          r = static_cast<uint32_t>(div ? sx / sy : sx % sy);
        } else {
          r = div ? x / y : x % y;
        }
        R[I->a] = r & I->imm;
        ++pc;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kLoadLocal) {
        OPEC_VM_FLUSH();
        R[I->a] = CachedLoad(vcache_[pc], fp + I->imm, I->sub);
        ++pc;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kStoreLocal) {
        OPEC_VM_FLUSH();
        CachedStore(vcache_[pc], fp + I->imm, I->sub,
                    R[I->a] & I->imm2);
        ++pc;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kLoadAbs) {
        OPEC_VM_FLUSH();
        R[I->a] = CachedLoad(vcache_[pc], I->imm, I->sub);
        ++pc;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kStoreAbs) {
        OPEC_VM_FLUSH();
        CachedStore(vcache_[pc], I->imm, I->sub, R[I->a] & I->imm2);
        ++pc;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kLoadInd) {
        OPEC_VM_FLUSH();
        R[I->a] = CachedLoad(vcache_[pc], R[I->b] + I->imm, I->sub);
        ++pc;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kStoreInd) {
        OPEC_VM_FLUSH();
        CachedStore(vcache_[pc], R[I->b] + I->imm, I->sub,
                    R[I->a] & I->imm2);
        ++pc;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kLoadIdx) {
        OPEC_VM_FLUSH();
        R[I->a] =
            CachedLoad(vcache_[pc], R[I->b] + R[I->c] * I->imm, I->sub);
        ++pc;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kStoreIdx) {
        OPEC_VM_FLUSH();
        CachedStore(vcache_[pc], R[I->b] + R[I->c] * I->imm, I->sub,
                    R[I->a] & I->imm2);
        ++pc;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kJump) {
        OPEC_VM_FLUSH();
        pc = I->imm;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kBrFalse) {
        OPEC_VM_FLUSH();
        pc = R[I->a] == 0 ? I->imm : pc + 1;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kBrTrue) {
        OPEC_VM_FLUSH();
        pc = R[I->a] != 0 ? I->imm : pc + 1;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kBrCmpFalse) {
        OPEC_VM_FLUSH();
        pc = EvalBinary(static_cast<BinaryOp>(I->sub), R[I->b], R[I->c], I->imm2) == 0
                 ? I->imm
                 : pc + 1;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kBrCmpTrue) {
        OPEC_VM_FLUSH();
        pc = EvalBinary(static_cast<BinaryOp>(I->sub), R[I->b], R[I->c], I->imm2) != 0
                 ? I->imm
                 : pc + 1;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kBrCmpImmFalse) {
        OPEC_VM_FLUSH();
        uint32_t y = I->a | static_cast<uint32_t>(I->c) << 16;
        pc = EvalBinary(static_cast<BinaryOp>(I->sub), R[I->b], y, I->imm2) == 0
                 ? I->imm
                 : pc + 1;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kBrCmpImmTrue) {
        OPEC_VM_FLUSH();
        uint32_t y = I->a | static_cast<uint32_t>(I->c) << 16;
        pc = EvalBinary(static_cast<BinaryOp>(I->sub), R[I->b], y, I->imm2) != 0
                 ? I->imm
                 : pc + 1;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kCall) {
        OPEC_VM_FLUSH();
        const Function* fn = module_.functions()[I->imm].get();
        EnterCall(*I, fn, pc + 1, R);
        const VFrame& fr = frames_.back();
        R = regs_.data() + fr.reg_base;
        fp = fr.frame_base;
        pc = bc_.funcs[static_cast<size_t>(fn->ordinal())].entry;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kCallInd) {
        OPEC_VM_FLUSH();
        const Function* fn = module_.functions()[R[I->c]].get();
        EnterCall(*I, fn, pc + 1, R);
        const VFrame& fr = frames_.back();
        R = regs_.data() + fr.reg_base;
        fp = fr.frame_base;
        pc = bc_.funcs[static_cast<size_t>(fn->ordinal())].entry;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kICallCheck) {
        OPEC_VM_FLUSH();
        uint32_t target = R[I->b];
        const Function* fn = FuncAt(target);
        if (fn == nullptr) {
          throw ExecutionAborted{"indirect call to non-function address " +
                                 opec_support::HexAddr(target)};
        }
        if (fn->type()->params().size() != I->imm) {
          throw ExecutionAborted{"indirect call signature mismatch calling " + fn->name()};
        }
        R[I->a] = static_cast<uint32_t>(fn->ordinal());
        ++pc;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kRet) {
        OPEC_VM_FLUSH();
        uint32_t rv = I->sub != 0 ? R[I->a] : 0;
        VFrame fr = frames_.back();
        Charge(costs_.ret);
        OPEC_OBS_EVENT(opec_obs::EventKind::kFunctionExit, machine_.cycles(),
                       current_operation_, depth_, static_cast<uint32_t>(fr.fn->ordinal()));
        current_fn_ = fr.saved_fn;
        --depth_;
        sp_ = fr.saved_sp;
        frames_.pop_back();
        if (fr.is_op) {
          Charge(costs_.svc);  // SVC after the call site
          OPEC_OBS_EVENT(opec_obs::EventKind::kSvc, machine_.cycles(), fr.op_id, depth_,
                         static_cast<uint32_t>(fr.op_id), 1);
          current_operation_ = fr.caller_operation;
          if (!supervisor_->OnOperationExit(fr.op_id)) {
            throw ExecutionAborted{opec_support::StrPrintf(
                "monitor aborted at exit of operation %d (%s) — data sanitization failed",
                fr.op_id, fr.fn->name().c_str())};
          }
          OPEC_OBS_EVENT(opec_obs::EventKind::kOperationExit, machine_.cycles(),
                         current_operation_, depth_, static_cast<uint32_t>(fr.op_id),
                         static_cast<uint32_t>(fr.caller_operation));
        } else if (fr.via_call && supervisor_ != nullptr) {
          if (!supervisor_->OnFunctionReturn(fr.fn)) {
            throw ExecutionAborted{"supervisor rejected return from " + fr.fn->name()};
          }
        }
        if (frames_.empty()) {
          return rv;
        }
        const VFrame& caller = frames_.back();
        R = regs_.data() + caller.reg_base;
        fp = caller.frame_base;
        R[fr.ret_dst] = rv;
        pc = fr.return_pc;
        OPEC_VM_NEXT();
      }
      OPEC_VM_CASE(kAbort) {
        OPEC_VM_FLUSH();
        throw ExecutionAborted{bc_.messages[I->imm]};
      }

#ifndef OPEC_VM_THREADED
    }
  }
#endif
}

#undef OPEC_VM_FLUSH
#undef OPEC_VM_CASE
#undef OPEC_VM_NEXT

RunResult VM::Run(const std::string& entry, const std::vector<uint32_t>& args) {
  EnsureLowered();
  RunResult result;
  const Function* fn = module_.FindFunction(entry);
  if (fn == nullptr) {
    result.violation = "no such entry function: " + entry;
    return result;
  }
  ResetRunState();
  frames_.clear();

  uint64_t start_cycles = machine_.cycles();
  if (supervisor_ != nullptr) {
    supervisor_->OnProgramStart(this);
  }
  try {
    result.return_value = Execute(fn, args);
    result.ok = true;
    if (supervisor_ != nullptr) {
      supervisor_->OnProgramEnd();
    }
  } catch (const ExecutionAborted& aborted) {
    UnwindAllFrames();
    result.ok = false;
    result.violation = aborted.reason;
  }
  result.cycles = machine_.cycles() - start_cycles;
  result.statements = statements_;
  return result;
}

}  // namespace bytecode
}  // namespace opec_rt
