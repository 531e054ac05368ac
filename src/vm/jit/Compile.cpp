//===- Compile.cpp - DInstr-to-x86-64 template compiler -----------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// The baseline JIT compiler: one pass over the pre-decoded DInstr slots of
// a ProgramImage, emitting a fixed native template per opcode into a
// single contiguous function. The scheme (full contract in docs/JIT.md):
//
//  - PC labels. Every slot gets a label bound at its step check, so a
//    resolved branch target PC becomes one rel32 jump. Non-terminator
//    slots fall through to the next slot, like the interpreter's PC++.
//  - Pinned registers. rbx = JitState, r12 = step budget (counted down),
//    r13 = input base, r14 = current frame's register base, r15 = heap
//    cells base, rbp = coverage map (null disables probes). VM registers
//    are memory slots [r14 + reg*8] — the "spill-free register map" over
//    the high-water register stack: no allocation, loads fold into
//    operands, and frames switch by rebasing r14.
//  - Superinstructions are de-fused. Fusion only cut dispatch, which
//    native code has none of; the paired/chained slots are still in the
//    stream verbatim, so BinBr compiles as Bin falling through to the
//    CondBr slot, chain ops compile as their first op. Step accounting
//    is per-slot either way, so counts and trip points are unchanged.
//  - Behavior flags (map, shadow edges, path signature, call hash, cmp
//    logging) are runtime-tested from the state, so one compiled program
//    serves every campaign configuration and the cache key stays the
//    image's own.
//  - Bailouts are terminal and out of line: every fault site jumps to a
//    cold stub recording (FaultKind, BailPC) and returning through the
//    epilogue; the wrapper rebuilds the Fault from PcInfo. Fault stubs
//    record the *advanced* PC (slot + 1) and step stubs the pending PC,
//    reproducing the reference's post-increment coordinates exactly.
//  - Calls are inlined frame pushes: the callee's entry is a direct
//    jump, the return address is a RIP-relative native label stored in
//    the frame next to the bytecode resume PC (faults walk the latter,
//    returns jump through the former).
//
// Only pfJitAlloc / pfJitLogCmp / pfJitCallHash (Runtime.cpp) are called
// out of line — allocation grows vectors and raises trace events, the
// other two are off by default and cold.
//
//===----------------------------------------------------------------------===//

#include "vm/jit/Jit.h"

#include "vm/Image.h"
#include "vm/jit/Emitter.h"
#include "vm/jit/Runtime.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#if defined(__x86_64__) && !defined(_WIN32)
#define PF_JIT_SUPPORTED 1
#else
#define PF_JIT_SUPPORTED 0
#endif

#if PF_JIT_SUPPORTED
#include <sys/mman.h>
#endif

namespace pathfuzz {
namespace vm {
namespace jit {

//===----------------------------------------------------------------------===//
// ExecBuffer: W^X lifecycle
//===----------------------------------------------------------------------===//

ExecBuffer::~ExecBuffer() {
#if PF_JIT_SUPPORTED
  if (Base)
    munmap(Base, MapSize);
#endif
}

bool ExecBuffer::allocate(size_t Size) {
#if PF_JIT_SUPPORTED
  assert(!Base && "buffer already allocated");
  const size_t Page = 4096;
  MapSize = (Size + Page - 1) & ~(Page - 1);
  if (MapSize == 0)
    MapSize = Page;
  void *P = mmap(nullptr, MapSize, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (P == MAP_FAILED) {
    Base = nullptr;
    MapSize = 0;
    return false;
  }
  Base = P;
  return true;
#else
  (void)Size;
  return false;
#endif
}

bool ExecBuffer::seal() {
#if PF_JIT_SUPPORTED
  assert(Base && !Sealed);
  if (mprotect(Base, MapSize, PROT_READ | PROT_EXEC) != 0)
    return false;
  Sealed = true;
  return true;
#else
  return false;
#endif
}

bool available() {
#if PF_JIT_SUPPORTED
  // One-time probe of the full W^X cycle: hardened kernels can refuse the
  // RW->RX flip, in which case every mode resolves away from the JIT.
  static const bool Ok = [] {
    ExecBuffer B;
    if (!B.allocate(1))
      return false;
    B.data()[0] = 0xC3; // ret
    if (!B.seal())
      return false;
    reinterpret_cast<void (*)()>(B.data())();
    return true;
  }();
  return Ok;
#else
  return false;
#endif
}

#if PF_JIT_SUPPORTED

namespace {

/// Tagged pointer base; must match Vm.cpp / Exec.cpp.
constexpr int64_t PtrBase = int64_t(1) << 56;

int32_t stOff(size_t Off) { return static_cast<int32_t>(Off); }

#define PF_ST(Field) mem(RBX, stOff(offsetof(JitState, Field)))

bool isComparison(mir::BinOp Op) {
  switch (Op) {
  case mir::BinOp::Eq:
  case mir::BinOp::Ne:
  case mir::BinOp::Lt:
  case mir::BinOp::Le:
  case mir::BinOp::Gt:
  case mir::BinOp::Ge:
    return true;
  default:
    return false;
  }
}

Cond condFor(mir::BinOp Op) {
  switch (Op) {
  case mir::BinOp::Eq:
    return CC_E;
  case mir::BinOp::Ne:
    return CC_NE;
  case mir::BinOp::Lt:
    return CC_L;
  case mir::BinOp::Le:
    return CC_LE;
  case mir::BinOp::Gt:
    return CC_G;
  default:
    return CC_GE;
  }
}

bool fitsI32(int64_t V) { return V >= INT32_MIN && V <= INT32_MAX; }

class Compiler {
public:
  Compiler(Emitter &E, const ProgramImage &P) : E(E), P(P) {}

  void run() {
    const size_t N = P.codeSize();
    PcLab.resize(N);
    for (size_t I = 0; I < N; ++I)
      PcLab[I] = E.label();
    LExit = E.label();

    emitPrologue();
    const DInstr *Code = P.code();
    for (uint32_t Pc = 0; Pc < N; ++Pc) {
      E.bind(PcLab[Pc]);
      // Step budget: one countdown + borrow check per slot, terminators
      // included, matching the reference's ++Steps > StepLimit exactly.
      E.aluRI(Emitter::SUB, R12, 1);
      E.jcc(CC_B, stepStub(Pc));
      emitSlot(Pc, Code[Pc]);
    }
    emitEpilogue();
    emitColdStubs();
  }

  uint32_t edgeWords() const { return EdgeWords; }

private:
  Emitter &E;
  const ProgramImage &P;
  std::vector<uint32_t> PcLab;
  uint32_t LExit = 0;

  struct Stub {
    uint32_t Label;
    int32_t Kind; ///< FaultKind to record; -1 = already set by a helper
    uint32_t Pc;
  };
  std::vector<Stub> Stubs;
  /// Edge-bitset words the emitted code indexes (see emitEdgeRecord).
  uint32_t EdgeWords = 0;

  Mem reg(uint32_t Idx) const {
    return mem(R14, static_cast<int32_t>(Idx * 8));
  }

  uint32_t stepStub(uint32_t Pc) {
    uint32_t L = E.label();
    Stubs.push_back({L, static_cast<int32_t>(FaultKind::StepLimit), Pc});
    return L;
  }
  uint32_t faultStub(FaultKind K, uint32_t Pc) {
    uint32_t L = E.label();
    Stubs.push_back({L, static_cast<int32_t>(K), Pc});
    return L;
  }
  uint32_t allocFaultStub(uint32_t Pc) {
    uint32_t L = E.label();
    Stubs.push_back({L, -1, Pc});
    return L;
  }

  void emitPrologue() {
    E.push(RBP);
    E.push(RBX);
    E.push(R12);
    E.push(R13);
    E.push(R14);
    E.push(R15);
    E.aluRI(Emitter::SUB, RSP, 8); // 16-byte alignment for helper calls
    E.movRR(RBX, RDI);
    E.movRM(R12, PF_ST(StepsRemaining));
    E.movRM(R13, PF_ST(Input));
    E.movRM(R14, PF_ST(RegStack)); // @main's frame starts at RegBase 0
    E.movRM(R15, PF_ST(Cells));
    E.movRM(RBP, PF_ST(Map));
    E.jmp(PcLab[P.mainEntryPC()]);
  }

  void emitEpilogue() {
    E.bind(LExit);
    E.movMR(PF_ST(StepsRemaining), R12);
    E.aluRI(Emitter::ADD, RSP, 8);
    E.pop(R15);
    E.pop(R14);
    E.pop(R13);
    E.pop(R12);
    E.pop(RBX);
    E.pop(RBP);
    E.ret();
  }

  void emitColdStubs() {
    for (const Stub &S : Stubs) {
      E.bind(S.Label);
      if (S.Kind >= 0)
        E.movMI32(PF_ST(FaultKind), S.Kind);
      E.movMI32(PF_ST(BailPC), static_cast<int32_t>(S.Pc));
      E.jmp(LExit);
    }
  }

  /// Store a compile-time constant into a memory slot.
  void emitConstStore(const Mem &Dst, int64_t V) {
    if (fitsI32(V)) {
      E.movMI(Dst, static_cast<int32_t>(V));
    } else {
      E.movImm64(RAX, V);
      E.movMR(Dst, RAX);
    }
  }

  /// NeverZero map bump of Map[rax] — add 1, then fold the carry back in,
  /// which is exactly `V = Map[i]+1; Map[i] = V ? V : 1` — then the
  /// map-line mark MapLines[rax >> MapLineShift] = 1. Clobbers rax, rcx.
  void emitBump() {
    E.aluMI8(Emitter::ADD, mem(RBP, RAX, 1, 0), 1);
    E.aluMI8(Emitter::ADC, mem(RBP, RAX, 1, 0), 0);
    E.shrI(RAX, MapLineShift);
    E.movRM(RCX, PF_ST(MapLines));
    E.movMI8(mem(RCX, RAX, 1, 0), 1);
  }

  /// Shadow-edge record for a compile-time edge id (the caller has
  /// already excluded the UINT32_MAX skip sentinel): one unconditional
  /// `or byte [EdgeBits + (Id >> 3)], 1 << (Id & 7)`. Clobbers rax.
  void emitEdgeRecord(uint32_t Id) {
    assert(Id <= INT32_MAX && "edge id exceeds disp32 addressing");
    EdgeWords = std::max(EdgeWords, Id / 64 + 1);
    E.movRM(RAX, PF_ST(EdgeBits));
    E.aluMI8(Emitter::OR, mem(RAX, static_cast<int32_t>(Id >> 3)),
             static_cast<uint8_t>(1u << (Id & 7)));
  }

  /// Path-signature update with a compile-time decision value:
  /// Sig = mix64(Sig ^ (V + K + (Sig << 6) + (Sig >> 2))).
  void emitSigUpdate(uint64_t V) {
    uint32_t Skip = E.label();
    E.aluMI8(Emitter::CMP, PF_ST(FlagDoSig), 0);
    E.jcc(CC_E, Skip);
    E.movRM(RAX, PF_ST(Sig));
    E.movRR(RCX, RAX);
    E.shlI(RCX, 6);
    E.movRR(RDX, RAX);
    E.shrI(RDX, 2);
    E.aluRR(Emitter::ADD, RCX, RDX);
    E.movImm64(RDX, static_cast<int64_t>(V + 0x9e3779b97f4a7c15ULL));
    E.aluRR(Emitter::ADD, RCX, RDX);
    E.aluRR(Emitter::XOR, RAX, RCX);
    // mix64: two xorshift-multiply rounds plus a final fold.
    E.movRR(RCX, RAX);
    E.shrI(RCX, 30);
    E.aluRR(Emitter::XOR, RAX, RCX);
    E.movImm64(RCX, static_cast<int64_t>(0xbf58476d1ce4e5b9ULL));
    E.imulRR(RAX, RCX);
    E.movRR(RCX, RAX);
    E.shrI(RCX, 27);
    E.aluRR(Emitter::XOR, RAX, RCX);
    E.movImm64(RCX, static_cast<int64_t>(0x94d049bb133111ebULL));
    E.imulRR(RAX, RCX);
    E.movRR(RCX, RAX);
    E.shrI(RCX, 31);
    E.aluRR(Emitter::XOR, RAX, RCX);
    E.movMR(PF_ST(Sig), RAX);
    E.bind(Skip);
  }

  /// Jump to a slot label, eliding the jump when the target is the very
  /// next slot (fallthrough).
  void jmpToPc(uint32_t Target, uint32_t Pc) {
    if (Target != Pc + 1)
      E.jmp(PcLab[Target]);
  }

  void emitSlot(uint32_t Pc, const DInstr &I) {
    // De-fuse superinstructions: the paired/chained slots follow in the
    // stream verbatim, so compiling the canonical first op and falling
    // through reproduces the fused semantics slot for slot.
    switch (I.Op) {
    case DOp::Const:
    case DOp::ConstCondBr:
    case DOp::ConstBin:
    case DOp::ConstBinBr:
      emitConstStore(reg(I.A), I.Imm);
      break;
    case DOp::Move:
      E.movRM(RAX, reg(I.B));
      E.movMR(reg(I.A), RAX);
      break;
    case DOp::Bin:
    case DOp::BinBr:
      emitBin(Pc, I, /*ImmForm=*/false);
      break;
    case DOp::BinImm:
    case DOp::BinImmBr:
      emitBin(Pc, I, /*ImmForm=*/true);
      break;
    case DOp::Neg:
      E.movRM(RAX, reg(I.B));
      E.neg(RAX);
      E.movMR(reg(I.A), RAX);
      break;
    case DOp::Not:
      E.aluMI(Emitter::CMP, reg(I.B), 0);
      E.setcc(CC_E, RAX);
      E.movzxRR8(RAX, RAX);
      E.movMR(reg(I.A), RAX);
      break;
    case DOp::InLen:
      E.movRM(RAX, PF_ST(Len));
      E.movMR(reg(I.A), RAX);
      break;
    case DOp::InByte:
      emitInByte(I);
      break;
    case DOp::Alloc:
      emitAlloc(Pc, I);
      break;
    case DOp::GlobalAddr:
      emitConstStore(reg(I.A), PtrBase + I.Imm);
      break;
    case DOp::Load:
      emitLoad(Pc, I);
      break;
    case DOp::Store:
      emitStore(Pc, I);
      break;
    case DOp::Free:
      emitFree(Pc, I);
      break;
    case DOp::Abort:
      E.jmp(faultStub(FaultKind::Abort, Pc + 1));
      break;
    case DOp::Call:
      emitCall(Pc, I);
      break;
    case DOp::EdgeProbe:
      emitEdgeProbe(I);
      break;
    case DOp::BlockProbe:
      emitBlockProbe(I);
      break;
    case DOp::PathAdd:
    case DOp::PathAddBr:
      emitPathAdd(I);
      break;
    case DOp::PathFlushRet:
    case DOp::FlushRetRet:
      emitPathFlush(I, /*ResetBack=*/false);
      break;
    case DOp::PathFlushBack:
      emitPathFlush(I, /*ResetBack=*/true);
      break;
    case DOp::Br:
      if (I.Y != UINT32_MAX)
        emitEdgeRecord(I.Y);
      jmpToPc(I.X, Pc);
      break;
    case DOp::CondBr:
      emitCondBr(Pc, I);
      break;
    case DOp::Switch:
      emitSwitch(Pc, I);
      break;
    case DOp::Ret:
      emitRet(I);
      break;
    case DOp::Nop:
      break; // elided probe: the step check above is its whole effect
    }
  }

  void emitBin(uint32_t Pc, const DInstr &I, bool ImmForm) {
    const bool IsCmp = isComparison(I.BOp);
    if (IsCmp) {
      // Cmp-operand capture, off the hot path: argument registers are
      // loaded fresh so the compute sequence below stays independent.
      uint32_t Skip = E.label();
      E.aluMI8(Emitter::CMP, PF_ST(FlagLogCmps), 0);
      E.jcc(CC_E, Skip);
      E.movRR(RDI, RBX);
      E.movRM(RSI, reg(I.B));
      if (ImmForm)
        E.movImm64(RDX, I.Imm);
      else
        E.movRM(RDX, reg(I.C));
      E.movImm64(R11, reinterpret_cast<int64_t>(&pfJitLogCmp));
      E.callR(R11);
      E.bind(Skip);
    }

    switch (I.BOp) {
    case mir::BinOp::Div:
    case mir::BinOp::Rem:
      emitDivRem(Pc, I, ImmForm);
      return;
    case mir::BinOp::Eq:
    case mir::BinOp::Ne:
    case mir::BinOp::Lt:
    case mir::BinOp::Le:
    case mir::BinOp::Gt:
    case mir::BinOp::Ge:
      E.movRM(RAX, reg(I.B));
      if (ImmForm && fitsI32(I.Imm)) {
        E.aluRI(Emitter::CMP, RAX, static_cast<int32_t>(I.Imm));
      } else {
        loadRhs(RCX, I, ImmForm);
        E.aluRR(Emitter::CMP, RAX, RCX);
      }
      E.setcc(condFor(I.BOp), RAX);
      E.movzxRR8(RAX, RAX);
      E.movMR(reg(I.A), RAX);
      return;
    case mir::BinOp::Shl:
    case mir::BinOp::Shr:
      E.movRM(RAX, reg(I.B));
      if (ImmForm) {
        const uint8_t N = static_cast<uint8_t>(static_cast<uint64_t>(I.Imm) & 63);
        if (I.BOp == mir::BinOp::Shl)
          E.shlI(RAX, N);
        else
          E.sarI(RAX, N);
      } else {
        E.movRM(RCX, reg(I.C));
        // Hardware masks the cl count to 63 for 64-bit shifts, which is
        // exactly the reference's `& 63`.
        if (I.BOp == mir::BinOp::Shl)
          E.shlCl(RAX);
        else
          E.sarCl(RAX);
      }
      E.movMR(reg(I.A), RAX);
      return;
    case mir::BinOp::Mul:
      E.movRM(RAX, reg(I.B));
      if (ImmForm && fitsI32(I.Imm)) {
        E.imulRRI(RAX, RAX, static_cast<int32_t>(I.Imm));
      } else {
        loadRhs(RCX, I, ImmForm);
        E.imulRR(RAX, RCX);
      }
      E.movMR(reg(I.A), RAX);
      return;
    default:
      break; // Add/Sub/And/Or/Xor below
    }

    const Emitter::Alu Op = I.BOp == mir::BinOp::Add   ? Emitter::ADD
                            : I.BOp == mir::BinOp::Sub ? Emitter::SUB
                            : I.BOp == mir::BinOp::And ? Emitter::AND
                            : I.BOp == mir::BinOp::Or  ? Emitter::OR
                                                       : Emitter::XOR;
    if (ImmForm && fitsI32(I.Imm) && I.A == I.B) {
      // In-place read-modify-write, the hottest BinImm shape (induction
      // increments, accumulators).
      E.aluMI(Op, reg(I.A), static_cast<int32_t>(I.Imm));
      return;
    }
    E.movRM(RAX, reg(I.B));
    if (ImmForm && fitsI32(I.Imm))
      E.aluRI(Op, RAX, static_cast<int32_t>(I.Imm));
    else {
      loadRhs(RCX, I, ImmForm);
      E.aluRR(Op, RAX, RCX);
    }
    E.movMR(reg(I.A), RAX);
  }

  void loadRhs(Gpr Dst, const DInstr &I, bool ImmForm) {
    if (ImmForm)
      E.movImm64(Dst, I.Imm);
    else
      E.movRM(Dst, reg(I.C));
  }

  void emitDivRem(uint32_t Pc, const DInstr &I, bool ImmForm) {
    const bool IsRem = I.BOp == mir::BinOp::Rem;
    E.movRM(RAX, reg(I.B));
    loadRhs(RCX, I, ImmForm);
    E.testRR(RCX, RCX);
    E.jcc(CC_E, faultStub(FaultKind::DivByZero, Pc + 1));
    // INT64_MIN / -1 would #DE under idiv; the reference defines it as
    // INT64_MIN (Div) / 0 (Rem).
    uint32_t LDiv = E.label(), LDone = E.label();
    E.aluRI(Emitter::CMP, RCX, -1);
    E.jcc(CC_NE, LDiv);
    E.movImm64(RDX, INT64_MIN);
    E.aluRR(Emitter::CMP, RAX, RDX);
    E.jcc(CC_NE, LDiv);
    if (IsRem)
      E.aluRR(Emitter::XOR, RAX, RAX);
    // Div corner: rax already holds INT64_MIN.
    E.jmp(LDone);
    E.bind(LDiv);
    E.cqo();
    E.idiv(RCX);
    if (IsRem)
      E.movRR(RAX, RDX);
    E.bind(LDone);
    E.movMR(reg(I.A), RAX);
  }

  void emitInByte(const DInstr &I) {
    uint32_t Done = E.label();
    E.movRM(RCX, reg(I.B));
    E.movImm64(RAX, -1);
    // One unsigned compare covers both `Idx >= 0` and `Idx < Len`: a
    // negative index is huge unsigned, and Len never exceeds INT64_MAX.
    E.aluRM(Emitter::CMP, RCX, PF_ST(Len));
    E.jcc(CC_AE, Done);
    E.movzxRM8(RAX, mem(R13, RCX, 1, 0));
    E.bind(Done);
    E.movMR(reg(I.A), RAX);
  }

  void emitAlloc(uint32_t Pc, const DInstr &I) {
    E.movRR(RDI, RBX);
    E.movRM(RSI, reg(I.B));
    E.movImm64(RAX, reinterpret_cast<int64_t>(&pfJitAlloc));
    E.callR(RAX);
    E.aluMI32(Emitter::CMP, PF_ST(FaultKind), 0);
    E.jcc(CC_NE, allocFaultStub(Pc + 1));
    E.movMR(reg(I.A), RAX);
    // Growth may have reallocated the cells vector; re-pin the base.
    E.movRM(R15, PF_ST(Cells));
  }

  /// Shared head of Load/Store/Free: untag Regs[PtrReg] into rax (object
  /// index) and bounds-check it, then point rcx at the HeapObject.
  /// A single unsigned compare against NumObjs replaces both signed
  /// bounds tests: Ptr < PtrBase wraps huge.
  void emitPtrCheck(uint32_t Pc, uint32_t PtrReg, FaultKind BadKind) {
    E.movRM(RAX, reg(PtrReg));
    E.movImm64(RDX, PtrBase);
    E.aluRR(Emitter::SUB, RAX, RDX);
    E.aluRM(Emitter::CMP, RAX, PF_ST(NumObjs));
    E.jcc(CC_AE, faultStub(BadKind, Pc + 1));
  }
  void emitObjAddr() {
    static_assert(sizeof(HeapObject) == 12, "templates hardcode the stride");
    E.movRM(RCX, PF_ST(Objects));
    E.lea(RDX, mem(RAX, RAX, 2, 0)); // idx*3
    E.lea(RCX, mem(RCX, RDX, 4, 0)); // Objects + idx*12
  }

  void emitLoad(uint32_t Pc, const DInstr &I) {
    emitPtrCheck(Pc, I.B, FaultKind::BadPointer);
    emitObjAddr();
    E.aluMI8(Emitter::CMP, mem(RCX, 8), 0); // Freed
    E.jcc(CC_NE, faultStub(FaultKind::UseAfterFree, Pc + 1));
    E.movRM(RDX, reg(I.C));   // Idx
    E.movRM32(RSI, mem(RCX, 0)); // Size, zero-extended
    E.aluRR(Emitter::CMP, RDX, RSI);
    E.jcc(CC_AE, faultStub(FaultKind::OobRead, Pc + 1));
    E.movRM32(RSI, mem(RCX, 4)); // CellBase
    E.aluRR(Emitter::ADD, RSI, RDX);
    E.movRM(RAX, mem(R15, RSI, 8, 0));
    E.movMR(reg(I.A), RAX);
  }

  void emitStore(uint32_t Pc, const DInstr &I) {
    emitPtrCheck(Pc, I.A, FaultKind::BadPointer);
    emitObjAddr();
    E.aluMI8(Emitter::CMP, mem(RCX, 8), 0);
    E.jcc(CC_NE, faultStub(FaultKind::UseAfterFree, Pc + 1));
    E.movRM(RDX, reg(I.B));
    E.movRM32(RSI, mem(RCX, 0));
    E.aluRR(Emitter::CMP, RDX, RSI);
    E.jcc(CC_AE, faultStub(FaultKind::OobWrite, Pc + 1));
    E.movRM32(RSI, mem(RCX, 4));
    E.aluRR(Emitter::ADD, RSI, RDX); // CellAddr
    // Dirty-page tracking for the snapshot reset: global cells are the
    // [0, NumGlobalCells) prefix.
    uint32_t Write = E.label();
    E.aluRM(Emitter::CMP, RSI, PF_ST(NumGlobalCells));
    E.jcc(CC_AE, Write);
    E.movRR(RDX, RSI);
    E.shrI(RDX, SnapshotPageShift);
    E.movRM(RCX, PF_ST(DirtyPage));
    E.aluMI8(Emitter::CMP, mem(RCX, RDX, 1, 0), 0);
    E.jcc(CC_NE, Write);
    E.movMI8(mem(RCX, RDX, 1, 0), 1);
    E.movRM(RCX, PF_ST(DirtyList));
    E.movRM(RDI, PF_ST(DirtyN));
    E.movMR32(mem(RCX, RDI, 4, 0), RDX);
    E.aluRI(Emitter::ADD, RDI, 1);
    E.movMR(PF_ST(DirtyN), RDI);
    E.bind(Write);
    E.movRM(RAX, reg(I.C));
    E.movMR(mem(R15, RSI, 8, 0), RAX);
  }

  void emitFree(uint32_t Pc, const DInstr &I) {
    emitPtrCheck(Pc, I.A, FaultKind::InvalidFree);
    // Globals are immutable: freeing one is invalid before Freed is ever
    // consulted, matching the reference's check order.
    E.aluRM(Emitter::CMP, RAX, PF_ST(NumGlobals));
    E.jcc(CC_B, faultStub(FaultKind::InvalidFree, Pc + 1));
    emitObjAddr();
    E.aluMI8(Emitter::CMP, mem(RCX, 8), 0);
    E.jcc(CC_NE, faultStub(FaultKind::DoubleFree, Pc + 1));
    E.movMI8(mem(RCX, 8), 1);
  }

  void emitEdgeProbe(const DInstr &I) {
    uint32_t Skip = E.label();
    E.testRR(RBP, RBP);
    E.jcc(CC_E, Skip);
    E.movImm32(RAX, static_cast<uint32_t>(I.Imm));
    E.aluRM32(Emitter::AND, RAX, PF_ST(MapMask));
    emitBump();
    E.bind(Skip);
  }

  void emitBlockProbe(const DInstr &I) {
    uint32_t Skip = E.label();
    E.testRR(RBP, RBP);
    E.jcc(CC_E, Skip);
    E.movRM32(RAX, PF_ST(PrevLoc)); // (u32)PrevLoc
    E.aluRI32(Emitter::XOR, RAX,
              static_cast<int32_t>(static_cast<uint32_t>(I.Imm)));
    E.aluRM32(Emitter::AND, RAX, PF_ST(MapMask));
    emitBump();
    const uint64_t NewPrev = static_cast<uint64_t>(I.Imm) >> 1;
    if (NewPrev <= INT32_MAX) {
      E.movMI(PF_ST(PrevLoc), static_cast<int32_t>(NewPrev));
    } else {
      E.movImm64(RCX, static_cast<int64_t>(NewPrev));
      E.movMR(PF_ST(PrevLoc), RCX);
    }
    E.bind(Skip);
  }

  void emitPathAdd(const DInstr &I) {
    if (fitsI32(I.Imm)) {
      E.aluMI(Emitter::ADD, reg(I.A), static_cast<int32_t>(I.Imm));
    } else {
      E.movRM(RAX, reg(I.A));
      E.movImm64(RCX, I.Imm);
      E.aluRR(Emitter::ADD, RAX, RCX);
      E.movMR(reg(I.A), RAX);
    }
  }

  void emitPathFlush(const DInstr &I, bool ResetBack) {
    uint32_t Skip = E.label();
    E.testRR(RBP, RBP);
    E.jcc(CC_E, Skip);
    E.movRM(RAX, reg(I.A));
    if (fitsI32(I.Imm)) {
      E.aluRI(Emitter::ADD, RAX, static_cast<int32_t>(I.Imm));
    } else {
      E.movImm64(RCX, I.Imm);
      E.aluRR(Emitter::ADD, RAX, RCX);
    }
    uint32_t NoKey = E.label();
    E.movRM(RCX, PF_ST(FuncKeys));
    E.testRR(RCX, RCX);
    E.jcc(CC_E, NoKey);
    E.aluRM(Emitter::XOR, RAX, mem(RCX, static_cast<int32_t>(I.Y * 8)));
    E.bind(NoKey);
    // (u32)(PathId ^ Key) & MapMask: the 32-bit AND both truncates and
    // zero-extends for the map index.
    E.aluRM32(Emitter::AND, RAX, PF_ST(MapMask));
    emitBump();
    E.bind(Skip);
    if (ResetBack)
      emitConstStore(reg(I.A), P.constPool()[I.X]);
  }

  void emitCondBr(uint32_t Pc, const DInstr &I) {
    E.aluMI(Emitter::CMP, reg(I.A), 0);
    uint32_t NotTaken = E.label();
    E.jcc(CC_E, NotTaken);
    emitSigUpdate(0);
    const uint32_t TakenId = static_cast<uint32_t>(I.Imm);
    if (TakenId != UINT32_MAX)
      emitEdgeRecord(TakenId);
    E.jmp(PcLab[I.X]);
    E.bind(NotTaken);
    emitSigUpdate(1);
    const uint32_t NotId = static_cast<uint32_t>(static_cast<uint64_t>(I.Imm) >> 32);
    if (NotId != UINT32_MAX)
      emitEdgeRecord(NotId);
    jmpToPc(I.Y, Pc);
  }

  void emitSwitch(uint32_t Pc, const DInstr &I) {
    const uint32_t NumSuccs = I.Y;
    const int64_t *CaseVals = P.constPool() + static_cast<uint64_t>(I.Imm);
    const SuccEntry *Succs = P.succs() + I.X;
    E.movRM(RAX, reg(I.A));
    std::vector<uint32_t> CaseLab(NumSuccs > 0 ? NumSuccs - 1 : 0);
    for (uint32_t K = 0; K + 1 < NumSuccs; ++K) {
      CaseLab[K] = E.label();
      if (fitsI32(CaseVals[K])) {
        E.aluRI(Emitter::CMP, RAX, static_cast<int32_t>(CaseVals[K]));
      } else {
        E.movImm64(RCX, CaseVals[K]);
        E.aluRR(Emitter::CMP, RAX, RCX);
      }
      E.jcc(CC_E, CaseLab[K]);
    }
    // Default slot falls out of the compare chain. Only the tail emitted
    // LAST in the stream is followed by slot Pc+1's code, so only it may
    // elide its jump; every other tail is followed by a sibling tail and
    // must jump explicitly even when its target is Pc+1.
    auto EmitSlotTail = [&](uint32_t Slot, bool IsLastEmitted) {
      emitSigUpdate(Slot);
      const SuccEntry &SE = Succs[Slot];
      if (SE.EdgeId != UINT32_MAX)
        emitEdgeRecord(SE.EdgeId);
      if (IsLastEmitted)
        jmpToPc(SE.TargetPC, Pc);
      else
        E.jmp(PcLab[SE.TargetPC]);
    };
    // Emission order: default tail first (it catches the compare-chain
    // fallthrough), then the case tails in order.
    if (NumSuccs > 0)
      EmitSlotTail(NumSuccs - 1, /*IsLastEmitted=*/NumSuccs == 1);
    for (uint32_t K = 0; K + 1 < NumSuccs; ++K) {
      E.bind(CaseLab[K]);
      EmitSlotTail(K, /*IsLastEmitted=*/K + 2 == NumSuccs);
    }
  }

  void emitCall(uint32_t Pc, const DInstr &I) {
    const ImageFunc &CF = P.funcs()[I.Y];
    E.movRM(RAX, PF_ST(FrameTop));
    E.aluRM(Emitter::CMP, RAX, PF_ST(MaxCallDepth));
    E.jcc(CC_AE, faultStub(FaultKind::StackOverflow, Pc + 1));
    if (I.Flags & DInstr::FlagCallSelected) {
      uint32_t NoHash = E.label();
      E.aluMI8(Emitter::CMP, PF_ST(FlagDoCallHash), 0);
      E.jcc(CC_E, NoHash);
      E.movRR(RDI, RBX);
      E.movImm32(RSI, I.Y);
      E.movImm64(RAX, reinterpret_cast<int64_t>(&pfJitCallHash));
      E.callR(RAX);
      E.bind(NoHash);
    }
    // Callee register window at the high-water mark. The window is
    // disjoint from the caller's live registers, so zero-fill, path-reg
    // init and argument copies follow in the reference's order without
    // any snapshot.
    E.movRM(RSI, PF_ST(RegStack));
    E.movRM(RDX, PF_ST(RegTop));
    E.lea(RSI, mem(RSI, RDX, 8, 0));
    E.aluRR(Emitter::XOR, RAX, RAX);
    if (CF.NumRegs <= 16) {
      for (uint32_t K = 0; K < CF.NumRegs; ++K)
        E.movMR(mem(RSI, static_cast<int32_t>(K * 8)), RAX);
    } else {
      E.movImm32(RCX, CF.NumRegs);
      uint32_t Loop = E.label();
      E.bind(Loop);
      E.movMR(mem(RSI, RCX, 8, -8), RAX);
      E.aluRI(Emitter::SUB, RCX, 1);
      E.jcc(CC_NE, Loop);
    }
    if (CF.HasPathReg) {
      if (fitsI32(CF.PathRegInit)) {
        E.movMI(mem(RSI, static_cast<int32_t>(CF.PathReg * 8)),
                static_cast<int32_t>(CF.PathRegInit));
      } else {
        E.movImm64(RAX, CF.PathRegInit);
        E.movMR(mem(RSI, static_cast<int32_t>(CF.PathReg * 8)), RAX);
      }
    }
    for (unsigned K = 0; K < I.NumArgs; ++K) {
      E.movRM(RAX, reg(I.arg(K)));
      E.movMR(mem(RSI, static_cast<int32_t>(K * 8)), RAX);
    }
    // Frame bookkeeping: rax = &Frames[FrameTop] (the new frame); the
    // caller's frame sits 24 bytes below and records both resume
    // addresses — the native one for Ret's indirect jump, the bytecode
    // one for fault-stack walks.
    E.movRM(RAX, PF_ST(Frames));
    E.movRM(RCX, PF_ST(FrameTop));
    E.lea(RDX, mem(RCX, RCX, 2, 0));
    E.lea(RAX, mem(RAX, RDX, 8, 0));
    uint32_t RetLab = E.label();
    E.leaRip(RDX, RetLab);
    E.movMR(mem(RAX, -24 + static_cast<int32_t>(offsetof(JitFrame, NativeRet))),
            RDX);
    E.movMI32(mem(RAX, -24 + static_cast<int32_t>(offsetof(JitFrame, SavedPC))),
              static_cast<int32_t>(Pc + 1));
    E.movRM(RDX, PF_ST(RegTop));
    E.movMR32(mem(RAX, static_cast<int32_t>(offsetof(JitFrame, RegBase))), RDX);
    E.movMI32(mem(RAX, static_cast<int32_t>(offsetof(JitFrame, RetReg))), I.A);
    E.aluRI(Emitter::ADD, RCX, 1);
    E.movMR(PF_ST(FrameTop), RCX);
    E.aluMI(Emitter::ADD, PF_ST(RegTop), static_cast<int32_t>(CF.NumRegs));
    E.movRR(R14, RSI);
    E.jmp(PcLab[CF.EntryPC]);
    E.bind(RetLab);
  }

  void emitRet(const DInstr &I) {
    E.movRM(RAX, reg(I.A)); // return value
    E.movRM(RCX, PF_ST(FrameTop));
    E.aluRI(Emitter::SUB, RCX, 1);
    E.movMR(PF_ST(FrameTop), RCX);
    E.movRM(RDX, PF_ST(Frames));
    E.lea(RDI, mem(RCX, RCX, 2, 0));
    E.lea(RDI, mem(RDX, RDI, 8, 0)); // &Frames[new top] == popped frame
    E.movRM32(RDX, mem(RDI, static_cast<int32_t>(offsetof(JitFrame, RegBase))));
    E.movMR(PF_ST(RegTop), RDX); // RegTop = Top.RegBase
    uint32_t Caller = E.label();
    E.testRR(RCX, RCX);
    E.jcc(CC_NE, Caller);
    E.movMR(PF_ST(RetVal), RAX);
    E.jmp(LExit); // FaultKind is still None
    E.bind(Caller);
    E.movRM32(RSI, mem(RDI, static_cast<int32_t>(offsetof(JitFrame, RetReg))));
    E.movRM32(RCX,
              mem(RDI, -24 + static_cast<int32_t>(offsetof(JitFrame, RegBase))));
    E.movRM(RDX, PF_ST(RegStack));
    E.lea(R14, mem(RDX, RCX, 8, 0)); // caller's register window
    E.movMR(mem(R14, RSI, 8, 0), RAX);
    E.jmpM(mem(RDI, -24 + static_cast<int32_t>(offsetof(JitFrame, NativeRet))));
  }
};

} // namespace

#endif // PF_JIT_SUPPORTED

std::unique_ptr<JitProgram> JitProgram::compile(const ProgramImage &Image) {
#if PF_JIT_SUPPORTED
  if (!available())
    return nullptr;
  Emitter E;
  uint32_t EdgeWords = 0;
  {
    Compiler C(E, Image);
    C.run();
    EdgeWords = C.edgeWords();
  }
  E.finalize();

  std::unique_ptr<JitProgram> Prog(new JitProgram());
  if (!Prog->Buf.allocate(E.size()))
    return nullptr;
  std::memcpy(Prog->Buf.data(), E.bytes().data(), E.size());
  if (!Prog->Buf.seal())
    return nullptr;
  Prog->Img = &Image;
  Prog->Entry = reinterpret_cast<EntryFn>(
      reinterpret_cast<void (*)()>(Prog->Buf.data()));
  Prog->Stats.CodeBytes = E.size();
  Prog->Stats.NumFuncs = static_cast<uint32_t>(Image.numFuncs());
  Prog->Stats.NumSlots = static_cast<uint32_t>(Image.codeSize());
  uint32_t MaxRegs = 0;
  for (size_t F = 0; F < Image.numFuncs(); ++F)
    MaxRegs = std::max<uint32_t>(MaxRegs, Image.funcs()[F].NumRegs);
  Prog->MaxRegs = MaxRegs;
  Prog->EdgeWords = EdgeWords;
  return Prog;
#else
  (void)Image;
  return nullptr;
#endif
}

} // namespace jit
} // namespace vm
} // namespace pathfuzz
