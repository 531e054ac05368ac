//===- Exec.cpp - Threaded-dispatch snapshot-reset VM fast path --------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// The fast-path executor: runs a pre-decoded ProgramImage (Image.h) with
// direct-threaded dispatch and persistent-mode global state, producing
// results bit-identical to the reference interpreter in Vm.cpp. Three
// mechanisms carry the speedup:
//
//  1. Flat fetch. The decoded instruction stream is one contiguous array;
//     fetching is `&Code[PC++]` instead of three dependent vector lookups,
//     and taken branches assign a PC instead of re-walking blocks.
//
//  2. Threaded dispatch. With PATHFUZZ_THREADED_DISPATCH on a GNU-C
//     compiler each handler jumps straight to the next handler through a
//     computed goto, giving the branch predictor one indirect jump per
//     opcode site instead of a single shared switch jump. A portable
//     for/switch loop compiles otherwise — same handlers, same semantics.
//
//  3. Snapshot reset (the fork-server/persistent-mode analogue). Globals
//     are materialized once from the image's pristine copy and kept as a
//     persistent prefix of Objects/Cells across executions; stores into
//     global cells mark 64-cell pages dirty, and the inter-exec reset
//     restores only those pages instead of reconstructing the world.
//
// Semantics notes (the identity contract with Vm.cpp, enforced by
// tests/VmFastPathTest.cpp):
//
//  - Step accounting: one ++Steps check precedes every slot, terminators
//    included, so Steps and the StepLimit trip point match exactly.
//  - Fault coordinates come from the PcInfo side table at the *current*
//    PC: the fetch already advanced it past a faulting instruction, which
//    reproduces the reference's post-increment InstrIdx normalization,
//    and a pending (step-limit) slot is the un-advanced PC — also exact.
//    Caller frames report their saved resume PCs, which sit just past
//    their Call instructions, matching the reference stack walk.
//  - Everything observable is replicated: NeverZero map bumps, PrevLoc
//    shifting, PathAFL call-hash mixing order, fault-injection probe
//    order, cmp-operand capture rules, unsigned wrap arithmetic,
//    INT64_MIN division corners, and shadow-edge dedup ordering.
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "support/FaultInjection.h"
#include "telemetry/Trace.h"
#include "vm/Image.h"

#include <algorithm>
#include <cassert>

// Threaded dispatch needs the GNU address-of-label extension; anything
// else gets the portable switch loop regardless of the CMake option.
#if defined(PATHFUZZ_THREADED_DISPATCH) &&                                     \
    (defined(__GNUC__) || defined(__clang__))
#define PF_THREADED 1
#else
#define PF_THREADED 0
#endif

namespace pathfuzz {
namespace vm {

namespace {

/// Tagged pointer base; must match Vm.cpp.
constexpr int64_t PtrBase = int64_t(1) << 56;

/// AFL++-style "NeverZero" saturating counter bump plus the map-line mark;
/// must match Vm.cpp.
inline void bump(uint8_t *Map, uint8_t *Lines, uint32_t Index) {
  uint8_t V = static_cast<uint8_t>(Map[Index] + 1);
  Map[Index] = V ? V : 1;
  Lines[Index >> MapLineShift] = 1;
}

/// Comparison-operand capture for the cmplog stage; the filter (only
/// comparisons, only values outside [-1, 1]) matches Vm.cpp.
inline void logCmpOperands(mir::BinOp Op, int64_t L, int64_t Rv,
                           std::vector<int64_t> &Out) {
  switch (Op) {
  case mir::BinOp::Eq:
  case mir::BinOp::Ne:
  case mir::BinOp::Lt:
  case mir::BinOp::Le:
  case mir::BinOp::Gt:
  case mir::BinOp::Ge:
    if (L > 1 || L < -1)
      Out.push_back(L);
    if (Rv > 1 || Rv < -1)
      Out.push_back(Rv);
    break;
  default:
    break;
  }
}

/// Shadow edge ID of a CondBr slot's successor (Imm packs the taken ID in
/// the low half and the not-taken ID in the high half).
inline uint32_t condBrEdge(const DInstr *I, bool Taken) {
  const uint64_t Packed = static_cast<uint64_t>(I->Imm);
  return static_cast<uint32_t>(Taken ? Packed : Packed >> 32);
}

/// The 16-way ALU; returns false on division by zero. Wrap-around and
/// INT64_MIN corner handling match Vm.cpp.
inline bool evalBin(mir::BinOp Op, int64_t L, int64_t Rv, int64_t &Out) {
  switch (Op) {
  case mir::BinOp::Add:
    Out = static_cast<int64_t>(static_cast<uint64_t>(L) +
                               static_cast<uint64_t>(Rv));
    break;
  case mir::BinOp::Sub:
    Out = static_cast<int64_t>(static_cast<uint64_t>(L) -
                               static_cast<uint64_t>(Rv));
    break;
  case mir::BinOp::Mul:
    Out = static_cast<int64_t>(static_cast<uint64_t>(L) *
                               static_cast<uint64_t>(Rv));
    break;
  case mir::BinOp::Div:
    if (Rv == 0)
      return false;
    Out = (L == INT64_MIN && Rv == -1) ? INT64_MIN : L / Rv;
    break;
  case mir::BinOp::Rem:
    if (Rv == 0)
      return false;
    Out = (L == INT64_MIN && Rv == -1) ? 0 : L % Rv;
    break;
  case mir::BinOp::And:
    Out = L & Rv;
    break;
  case mir::BinOp::Or:
    Out = L | Rv;
    break;
  case mir::BinOp::Xor:
    Out = L ^ Rv;
    break;
  case mir::BinOp::Shl:
    Out = static_cast<int64_t>(static_cast<uint64_t>(L)
                               << (static_cast<uint64_t>(Rv) & 63));
    break;
  case mir::BinOp::Shr:
    Out = L >> (static_cast<uint64_t>(Rv) & 63);
    break;
  case mir::BinOp::Eq:
    Out = L == Rv;
    break;
  case mir::BinOp::Ne:
    Out = L != Rv;
    break;
  case mir::BinOp::Lt:
    Out = L < Rv;
    break;
  case mir::BinOp::Le:
    Out = L <= Rv;
    break;
  case mir::BinOp::Gt:
    Out = L > Rv;
    break;
  case mir::BinOp::Ge:
    Out = L >= Rv;
    break;
  }
  return true;
}

} // namespace

bool threadedDispatch() { return PF_THREADED != 0; }

void Vm::resetGlobalsFromImage() {
  const ProgramImage &P = *Img;
  const uint64_t NumCells = P.globalCells();
  const uint32_t NumGlobals = P.numGlobals();

  if (!GlobalsLive) {
    // First run on this image: materialize the whole prefix.
    Objects.clear();
    Objects.reserve(NumGlobals);
    for (uint32_t G = 0; G < NumGlobals; ++G) {
      HeapObject O;
      O.Size = P.globalSizes()[G];
      O.CellBase = P.globalCellBases()[G];
      Objects.push_back(O);
    }
    Cells.assign(P.pristineGlobalCells().begin(),
                 P.pristineGlobalCells().end());
    DirtyPage.assign((NumCells + SnapshotPageCells - 1) >> SnapshotPageShift,
                     0);
    DirtyList.clear();
    GlobalsLive = true;
    return;
  }

  // Persistent-mode reset: drop the heap suffix, then restore only the
  // global pages the previous execution wrote. Global objects themselves
  // are immutable (Free on a global faults before setting Freed), so only
  // cells need restoring.
  Objects.resize(NumGlobals);
  Cells.resize(NumCells);
  ++RStats.Resets;
  const int64_t *Pristine = P.pristineGlobalCells().data();
  for (uint32_t Page : DirtyList) {
    const uint64_t Base = static_cast<uint64_t>(Page) << SnapshotPageShift;
    const uint64_t N = std::min<uint64_t>(SnapshotPageCells, NumCells - Base);
    std::copy(Pristine + Base, Pristine + Base + N, Cells.data() + Base);
    DirtyPage[Page] = 0;
    ++RStats.DirtyPagesReset;
    RStats.DirtyCellsReset += N;
  }
  DirtyList.clear();
}

void Vm::runImage(const uint8_t *Input, size_t Len, const ExecOptions &Opts,
                  FeedbackContext *Fb, ExecResult &R) {
  const ProgramImage &P = *Img;

  FFrames.clear();
  resetGlobalsFromImage();

  uint8_t *Map = Fb ? Fb->Map : nullptr;
  const uint32_t MapMask = Fb ? Fb->MapMask : 0;
  uint8_t *const Lines = mapLines(Fb);
  uint64_t PrevLoc = 0;
  uint64_t CallHash = 0x50a7af1dULL;
  uint64_t *const Edges =
      Opts.RecordShadowEdges && Shadow ? EdgeBits.data() : nullptr;
  const bool DoCallHash = Fb && Fb->CallPathHash && Map;
  const bool DoSig = Fb && Fb->PathSig;
  uint64_t Sig = 0;

  // Hoisted once: the coverage-map writes go through uint8_t*, which may
  // alias anything, so loads left behind Opts./this-> would be re-issued
  // on every step of the loop.
  const uint64_t StepLimit = Opts.StepLimit;
  const bool LogCmps = Opts.LogCmps;
  const size_t MaxCmpLog = Opts.MaxCmpLog;
  const uint64_t HeapCellLimit = Opts.HeapCellLimit;
  const size_t MaxObjects = Opts.MaxObjects;
  const size_t MaxCallDepth = Opts.MaxCallDepth;

  const DInstr *const Code = P.code();
  const PcInfo *const Pcs = P.pcInfo();
  const ImageFunc *const IFuncs = P.funcs();
  const SuccEntry *const SuccPool = P.succs();
  const int64_t *const Pool = P.constPool();
  const uint64_t NumGlobalCells = P.globalCells();
  const uint32_t NumGlobals = P.numGlobals();

  // Heap views, hoisted for the same aliasing reason. Only Alloc changes
  // them (growth can reallocate); it re-derives all four.
  HeapObject *ObjsP = Objects.data();
  size_t NumObjs = Objects.size();
  int64_t *CellsP = Cells.data();
  size_t CellsN = Cells.size();

  // The register stack is managed as a high-water buffer: RegTop tracks
  // the live extent, RegStack only ever grows, and frame setup zero-fills
  // its slice in place. This keeps the per-call cost at one small memset
  // instead of a vector resize (which libstdc++ services out of line).
  size_t RegTop = 0;

  // Entry frame for @main, exactly as the reference pushFrame does it.
  {
    const ImageFunc &MainF = IFuncs[P.mainIndex()];
    FastFrame Fr;
    Fr.RegBase = 0;
    Fr.RetReg = 0;
    FFrames.push_back(Fr);
    if (RegStack.size() < MainF.NumRegs + size_t(3))
      RegStack.resize(MainF.NumRegs + size_t(3));
    std::fill_n(RegStack.data(), MainF.NumRegs, 0);
    RegTop = MainF.NumRegs;
    if (MainF.HasPathReg)
      RegStack[MainF.PathReg] = MainF.PathRegInit;
  }

  uint64_t Steps = 0;
  uint32_t PC = P.mainEntryPC();
  int64_t *Regs = RegStack.data();
  const DInstr *I = nullptr;
  FaultKind Fk = FaultKind::None;

#if PF_THREADED
#define PF_NEXT()                                                              \
  do {                                                                         \
    if (++Steps > StepLimit)                                                   \
      goto HitStepLimit;                                                       \
    I = &Code[PC++];                                                           \
    goto *JumpTable[static_cast<unsigned>(I->Op)];                             \
  } while (0)
#define PF_OP(Name) L_##Name:
// Chain-target ops: in threaded mode every handler already has a label.
#define PF_OP_CT(Name) L_##Name:
  // Indexed by DOp, which the decoder emits densely from 0.
  static const void *const JumpTable[NumDOps] = {
      &&L_Const,     &&L_Move,       &&L_Bin,          &&L_BinImm,
      &&L_Neg,       &&L_Not,        &&L_InLen,        &&L_InByte,
      &&L_Alloc,     &&L_GlobalAddr, &&L_Load,         &&L_Store,
      &&L_Free,      &&L_Abort,      &&L_Call,         &&L_EdgeProbe,
      &&L_BlockProbe, &&L_PathAdd,   &&L_PathFlushRet, &&L_PathFlushBack,
      &&L_Br,        &&L_CondBr,     &&L_Switch,       &&L_Ret,
      &&L_BinBr,     &&L_BinImmBr,   &&L_PathAddBr,    &&L_FlushRetRet,
      &&L_ConstCondBr, &&L_ConstBin, &&L_ConstBinBr,   &&L_Nop,
  };
  PF_NEXT();
#else
#define PF_NEXT() continue
#define PF_OP(Name) case DOp::Name:
// Chain-target ops additionally carry a goto label so PF_CHAIN can reach
// them from inside other cases (a legal jump within the switch block).
#define PF_OP_CT(Name) case DOp::Name: L_##Name:
  for (;;) {
    if (++Steps > StepLimit)
      goto HitStepLimit;
    I = &Code[PC++];
    switch (I->Op) {
#endif

// Chain tail for fused pairs: account the second slot's step, fetch it,
// and jump *directly* to its handler — the dispatch a plain PF_NEXT would
// do through the indirect jump, minus the indirection. Identical step
// counts and trip coordinates by construction.
#define PF_CHAIN(Name)                                                         \
  do {                                                                         \
    if (++Steps > StepLimit)                                                   \
      goto HitStepLimit;                                                       \
    I = &Code[PC++];                                                           \
    goto L_##Name;                                                             \
  } while (0)

  PF_OP(Const) { Regs[I->A] = I->Imm; }
  PF_NEXT();

  PF_OP(Move) { Regs[I->A] = Regs[I->B]; }
  PF_NEXT();

  PF_OP_CT(Bin) {
    int64_t L = Regs[I->B];
    int64_t Rv = Regs[I->C];
    if (LogCmps && R.CmpOperands.size() < MaxCmpLog)
      logCmpOperands(I->BOp, L, Rv, R.CmpOperands);
    int64_t Out = 0;
    if (!evalBin(I->BOp, L, Rv, Out)) {
      Fk = FaultKind::DivByZero;
      goto RaiseFault;
    }
    Regs[I->A] = Out;
  }
  PF_NEXT();

  PF_OP(BinImm) {
    int64_t L = Regs[I->B];
    int64_t Rv = I->Imm;
    if (LogCmps && R.CmpOperands.size() < MaxCmpLog)
      logCmpOperands(I->BOp, L, Rv, R.CmpOperands);
    int64_t Out = 0;
    if (!evalBin(I->BOp, L, Rv, Out)) {
      Fk = FaultKind::DivByZero;
      goto RaiseFault;
    }
    Regs[I->A] = Out;
  }
  PF_NEXT();

  PF_OP(Neg) {
    Regs[I->A] = static_cast<int64_t>(0 - static_cast<uint64_t>(Regs[I->B]));
  }
  PF_NEXT();

  PF_OP(Not) { Regs[I->A] = Regs[I->B] == 0; }
  PF_NEXT();

  PF_OP(InLen) { Regs[I->A] = static_cast<int64_t>(Len); }
  PF_NEXT();

  PF_OP(InByte) {
    int64_t Idx = Regs[I->B];
    Regs[I->A] =
        (Idx >= 0 && static_cast<uint64_t>(Idx) < Len) ? Input[Idx] : -1;
  }
  PF_NEXT();

  PF_OP(Alloc) {
    int64_t Size = Regs[I->B];
    // Injected heap exhaustion first, then the real limits — probe order
    // (and thus fault-site hit counting) must match the reference.
    if (pathfuzz::fault::enabled() &&
        pathfuzz::fault::shouldFail("vm.heap.alloc")) {
      if (Fb)
        PF_TRACE_EVENT(
            Fb->Trace, telemetry::EventKind::FaultInjected, Fb->TraceExec,
            static_cast<uint32_t>(telemetry::VmFaultSite::HeapAlloc),
            static_cast<uint64_t>(Size < 0 ? 0 : Size));
      Fk = FaultKind::OutOfMemory;
      goto RaiseFault;
    }
    if (Size < 0 || CellsN + static_cast<uint64_t>(Size) > HeapCellLimit ||
        NumObjs >= MaxObjects) {
      Fk = FaultKind::OutOfMemory;
      goto RaiseFault;
    }
    HeapObject O;
    O.Size = static_cast<uint32_t>(Size);
    O.CellBase = static_cast<uint32_t>(CellsN);
    Cells.resize(CellsN + static_cast<size_t>(Size), 0);
    Regs[I->A] = PtrBase + static_cast<int64_t>(NumObjs);
    Objects.push_back(O);
    ObjsP = Objects.data();
    NumObjs = Objects.size();
    CellsP = Cells.data();
    CellsN = Cells.size();
    ++R.HeapAllocs;
    R.HeapCellsAllocated += static_cast<uint64_t>(Size);
  }
  PF_NEXT();

  PF_OP(GlobalAddr) { Regs[I->A] = PtrBase + I->Imm; }
  PF_NEXT();

  PF_OP(Load) {
    int64_t Ptr = Regs[I->B];
    if (Ptr < PtrBase || Ptr >= PtrBase + static_cast<int64_t>(NumObjs)) {
      Fk = FaultKind::BadPointer;
      goto RaiseFault;
    }
    const HeapObject &O = ObjsP[static_cast<size_t>(Ptr - PtrBase)];
    if (O.Freed) {
      Fk = FaultKind::UseAfterFree;
      goto RaiseFault;
    }
    int64_t Idx = Regs[I->C];
    if (Idx < 0 || static_cast<uint64_t>(Idx) >= O.Size) {
      Fk = FaultKind::OobRead;
      goto RaiseFault;
    }
    Regs[I->A] = CellsP[O.CellBase + static_cast<size_t>(Idx)];
  }
  PF_NEXT();

  PF_OP(Store) {
    int64_t Ptr = Regs[I->A];
    if (Ptr < PtrBase || Ptr >= PtrBase + static_cast<int64_t>(NumObjs)) {
      Fk = FaultKind::BadPointer;
      goto RaiseFault;
    }
    const HeapObject &O = ObjsP[static_cast<size_t>(Ptr - PtrBase)];
    if (O.Freed) {
      Fk = FaultKind::UseAfterFree;
      goto RaiseFault;
    }
    int64_t Idx = Regs[I->B];
    if (Idx < 0 || static_cast<uint64_t>(Idx) >= O.Size) {
      Fk = FaultKind::OobWrite;
      goto RaiseFault;
    }
    const size_t CellAddr = O.CellBase + static_cast<size_t>(Idx);
    // Global cells are the [0, NumGlobalCells) prefix; a write there is
    // what the inter-exec snapshot reset must undo.
    if (CellAddr < NumGlobalCells) {
      const uint32_t Page = static_cast<uint32_t>(CellAddr >> SnapshotPageShift);
      if (!DirtyPage[Page]) {
        DirtyPage[Page] = 1;
        DirtyList.push_back(Page);
      }
    }
    CellsP[CellAddr] = Regs[I->C];
  }
  PF_NEXT();

  PF_OP(Free) {
    int64_t Ptr = Regs[I->A];
    if (Ptr < PtrBase || Ptr >= PtrBase + static_cast<int64_t>(NumObjs) ||
        static_cast<uint64_t>(Ptr - PtrBase) < NumGlobals) {
      Fk = FaultKind::InvalidFree;
      goto RaiseFault;
    }
    HeapObject &O = ObjsP[static_cast<size_t>(Ptr - PtrBase)];
    if (O.Freed) {
      Fk = FaultKind::DoubleFree;
      goto RaiseFault;
    }
    O.Freed = true;
  }
  PF_NEXT();

  PF_OP(Abort) {
    Fk = FaultKind::Abort;
    goto RaiseFault;
  }

  PF_OP(Call) {
    if (FFrames.size() >= MaxCallDepth) {
      Fk = FaultKind::StackOverflow;
      goto RaiseFault;
    }
    if (DoCallHash && (I->Flags & DInstr::FlagCallSelected)) {
      CallHash = mix64(CallHash ^ (I->Y + 0x517cc1b727220a95ULL));
      bump(Map, Lines, static_cast<uint32_t>(CallHash) & MapMask);
    }
    int64_t ArgVals[mir::MaxCallArgs];
    const unsigned NumArgs = I->NumArgs;
    for (unsigned K = 0; K < NumArgs; ++K)
      ArgVals[K] = Regs[I->arg(K)];
    FFrames.back().SavedPC = PC; // resume just past the call
    const ImageFunc &CF = IFuncs[I->Y];
    FastFrame Fr;
    Fr.RegBase = static_cast<uint32_t>(RegTop);
    Fr.RetReg = I->A;
    FFrames.push_back(Fr);
    const size_t NewTop = RegTop + CF.NumRegs;
    // +3 slack lets the zero loop run 4-wide past the live extent instead
    // of dropping into an out-of-line memset on every call.
    if (NewTop + 3 > RegStack.size())
      RegStack.resize(NewTop + (NewTop >> 1) + 3);
    Regs = RegStack.data() + RegTop;
    for (unsigned K = 0; K < CF.NumRegs; K += 4) {
      Regs[K] = 0;
      Regs[K + 1] = 0;
      Regs[K + 2] = 0;
      Regs[K + 3] = 0;
    }
    RegTop = NewTop;
    if (CF.HasPathReg)
      Regs[CF.PathReg] = CF.PathRegInit;
    for (unsigned K = 0; K < NumArgs; ++K)
      Regs[K] = ArgVals[K];
    PC = CF.EntryPC;
  }
  PF_NEXT();

  PF_OP(EdgeProbe) {
    if (Map)
      bump(Map, Lines, static_cast<uint32_t>(I->Imm) & MapMask);
  }
  PF_NEXT();

  PF_OP(BlockProbe) {
    if (Map) {
      bump(Map, Lines,
           (static_cast<uint32_t>(I->Imm) ^ static_cast<uint32_t>(PrevLoc)) &
               MapMask);
      PrevLoc = static_cast<uint64_t>(I->Imm) >> 1;
    }
  }
  PF_NEXT();

  PF_OP(PathAdd) { Regs[I->A] += I->Imm; }
  PF_NEXT();

  PF_OP(PathFlushRet) {
    if (Map) {
      int64_t PathId = Regs[I->A] + I->Imm;
      uint64_t Key = Fb->FuncKeys ? Fb->FuncKeys[I->Y] : 0;
      bump(Map, Lines,
           static_cast<uint32_t>(static_cast<uint64_t>(PathId) ^ Key) &
               MapMask);
    }
  }
  PF_NEXT();

  PF_OP(PathFlushBack) {
    if (Map) {
      int64_t PathId = Regs[I->A] + I->Imm;
      uint64_t Key = Fb->FuncKeys ? Fb->FuncKeys[I->Y] : 0;
      bump(Map, Lines,
           static_cast<uint32_t>(static_cast<uint64_t>(PathId) ^ Key) &
               MapMask);
    }
    Regs[I->A] = Pool[I->X];
  }
  PF_NEXT();

  PF_OP_CT(Br) {
    markEdge(Edges, I->Y);
    PC = I->X;
  }
  PF_NEXT();

  PF_OP_CT(CondBr) {
    const bool Taken = Regs[I->A] != 0;
    // Decision-slot signature: CondBr contributes its taken slot (0/1),
    // matching the interpreter's terminator Slot value exactly.
    if (DoSig)
      Sig = hashCombine(Sig, static_cast<uint64_t>(Taken ? 0 : 1));
    markEdge(Edges, condBrEdge(I, Taken));
    PC = Taken ? I->X : I->Y;
  }
  PF_NEXT();

  PF_OP(Switch) {
    const int64_t V = Regs[I->A];
    const uint32_t NumSuccs = I->Y;
    const int64_t *CaseVals = Pool + static_cast<uint64_t>(I->Imm);
    uint32_t Slot = NumSuccs - 1; // default
    for (uint32_t K = 0; K + 1 < NumSuccs; ++K) {
      if (CaseVals[K] == V) {
        Slot = K;
        break;
      }
    }
    if (DoSig)
      Sig = hashCombine(Sig, static_cast<uint64_t>(Slot));
    const SuccEntry &SE = SuccPool[I->X + Slot];
    markEdge(Edges, SE.EdgeId);
    PC = SE.TargetPC;
  }
  PF_NEXT();

  PF_OP_CT(BinBr) {
    int64_t L = Regs[I->B];
    int64_t Rv = Regs[I->C];
    if (LogCmps && R.CmpOperands.size() < MaxCmpLog)
      logCmpOperands(I->BOp, L, Rv, R.CmpOperands);
    int64_t Out = 0;
    evalBin(I->BOp, L, Rv, Out); // fused ops are comparisons: cannot fault
    Regs[I->A] = Out;
    // Second half: the adjacent CondBr slot. PC names it right now, so a
    // step-limit trip here reports its coordinates — exactly as unfused.
    if (++Steps > StepLimit)
      goto HitStepLimit;
    I = &Code[PC++];
    {
      const bool Taken = Out != 0;
      if (DoSig)
        Sig = hashCombine(Sig, static_cast<uint64_t>(Taken ? 0 : 1));
      markEdge(Edges, condBrEdge(I, Taken));
      PC = Taken ? I->X : I->Y;
    }
  }
  PF_NEXT();

  PF_OP(BinImmBr) {
    int64_t L = Regs[I->B];
    int64_t Rv = I->Imm;
    if (LogCmps && R.CmpOperands.size() < MaxCmpLog)
      logCmpOperands(I->BOp, L, Rv, R.CmpOperands);
    int64_t Out = 0;
    evalBin(I->BOp, L, Rv, Out); // fused ops are comparisons: cannot fault
    Regs[I->A] = Out;
    if (++Steps > StepLimit)
      goto HitStepLimit;
    I = &Code[PC++];
    {
      const bool Taken = Out != 0;
      if (DoSig)
        Sig = hashCombine(Sig, static_cast<uint64_t>(Taken ? 0 : 1));
      markEdge(Edges, condBrEdge(I, Taken));
      PC = Taken ? I->X : I->Y;
    }
  }
  PF_NEXT();

  PF_OP(PathAddBr) { Regs[I->A] += I->Imm; }
  PF_CHAIN(Br);

  PF_OP(FlushRetRet) {
    if (Map) {
      int64_t PathId = Regs[I->A] + I->Imm;
      uint64_t Key = Fb->FuncKeys ? Fb->FuncKeys[I->Y] : 0;
      bump(Map, Lines,
           static_cast<uint32_t>(static_cast<uint64_t>(PathId) ^ Key) &
               MapMask);
    }
  }
  PF_CHAIN(Ret);

  PF_OP(ConstCondBr) { Regs[I->A] = I->Imm; }
  PF_CHAIN(CondBr);

  PF_OP(ConstBin) { Regs[I->A] = I->Imm; }
  PF_CHAIN(Bin);

  PF_OP(ConstBinBr) { Regs[I->A] = I->Imm; }
  PF_CHAIN(BinBr);

  // Elided probe slot of a cheap (selective) image: consumes its step and
  // does nothing else, preserving PC layout and step accounting exactly.
  PF_OP(Nop) {}
  PF_NEXT();

  PF_OP_CT(Ret) {
    const int64_t Value = Regs[I->A];
    const FastFrame Top = FFrames.back();
    FFrames.pop_back();
    RegTop = Top.RegBase;
    if (FFrames.empty()) {
      R.ReturnValue = Value;
      goto Finish;
    }
    const FastFrame &Caller = FFrames.back();
    Regs = RegStack.data() + Caller.RegBase;
    Regs[Top.RetReg] = Value;
    PC = Caller.SavedPC;
  }
  PF_NEXT();

#if !PF_THREADED
    } // switch
  }   // for
#endif
#undef PF_NEXT
#undef PF_OP
#undef PF_OP_CT
#undef PF_CHAIN

HitStepLimit:
  Fk = FaultKind::StepLimit;
  // fall through — PC is the pending slot, which is exactly the site the
  // reference reports for a step-limit trip.

RaiseFault: {
  R.TheFault.Kind = Fk;
  const PcInfo &FP = Pcs[PC];
  R.TheFault.Func = FP.Func;
  R.TheFault.Block = FP.Block;
  R.TheFault.InstrIdx = FP.Norm;
  R.TheFault.Stack.push_back({FP.Func, FP.Block, FP.Norm});
  for (size_t K = FFrames.size() - 1; K-- > 0;) {
    const PcInfo &CP = Pcs[FFrames[K].SavedPC];
    R.TheFault.Stack.push_back({CP.Func, CP.Block, CP.Norm});
  }
}

Finish:
  R.Steps = Steps;
  if (DoSig)
    *Fb->PathSig = Sig;
  if (Edges)
    drainEdges(R.ShadowEdges);
  // Dirty accounting happens at exec end, not reset time, so the value is
  // a deterministic function of this execution alone (a checkpoint-resumed
  // Vm reports the same series even though its first reset restores
  // nothing).
  uint64_t Dirty = 0;
  for (uint32_t Page : DirtyList) {
    const uint64_t Base = static_cast<uint64_t>(Page) << SnapshotPageShift;
    Dirty += std::min<uint64_t>(SnapshotPageCells, NumGlobalCells - Base);
  }
  R.DirtyGlobalCells = Dirty;
}

} // namespace vm
} // namespace pathfuzz
