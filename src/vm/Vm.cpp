//===- Vm.cpp - MIR interpreter with memory-safety checking ------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "support/FaultInjection.h"
#include "telemetry/Trace.h"
#include "vm/Image.h"
#include "vm/jit/Jit.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace pathfuzz {
namespace vm {

namespace {

/// Tagged pointer base: heap/global pointers are PtrBase + object index.
/// Arithmetic-mangled pointers land outside the object table and fault as
/// BadPointer, the wild-pointer analogue.
constexpr int64_t PtrBase = int64_t(1) << 56;

/// AFL++-style "NeverZero" saturating counter bump, plus the map-line mark
/// (FeedbackContext::MapLines).
inline void bump(uint8_t *Map, uint8_t *Lines, uint32_t Index) {
  uint8_t V = static_cast<uint8_t>(Map[Index] + 1);
  Map[Index] = V ? V : 1;
  Lines[Index >> MapLineShift] = 1;
}

} // namespace

const char *faultKindName(FaultKind K) {
  switch (K) {
  case FaultKind::None:
    return "none";
  case FaultKind::OobRead:
    return "oob-read";
  case FaultKind::OobWrite:
    return "oob-write";
  case FaultKind::UseAfterFree:
    return "use-after-free";
  case FaultKind::DoubleFree:
    return "double-free";
  case FaultKind::InvalidFree:
    return "invalid-free";
  case FaultKind::BadPointer:
    return "bad-pointer";
  case FaultKind::DivByZero:
    return "div-by-zero";
  case FaultKind::Abort:
    return "abort";
  case FaultKind::StackOverflow:
    return "stack-overflow";
  case FaultKind::OutOfMemory:
    return "out-of-memory";
  case FaultKind::StepLimit:
    return "step-limit";
  }
  return "<bad-fault>";
}

uint64_t Fault::stackHash(unsigned Frames) const {
  uint64_t H = 0x811c9dc5a55aULL ^ static_cast<uint64_t>(Kind);
  unsigned N = std::min<unsigned>(Frames, static_cast<unsigned>(Stack.size()));
  for (unsigned I = 0; I < N; ++I) {
    H = hashCombine(H, (static_cast<uint64_t>(Stack[I].Func) << 32) |
                           Stack[I].Block);
    H = hashCombine(H, Stack[I].InstrIdx);
  }
  return H;
}

Vm::Vm(const mir::Module &M, const instr::ShadowEdgeIndex *Shadow)
    : M(M), Shadow(Shadow) {
  MainIndex = M.findFunction("main");
  assert(MainIndex >= 0 && "module has no @main");
  if (Shadow)
    EdgeBits.assign((Shadow->numEdges() + 63) / 64, 0);
}

void Vm::attachImage(const ProgramImage *Image) {
  assert((!Image || Image->module() == &M) &&
         "image decoded from a different module");
  assert((!Image || !Shadow || Image->builtWithShadow()) &&
         "shadow-recording Vm needs an image with resolved edge IDs");
  Img = Image;
  // A compiled program is bound to its image: switching (or dropping) the
  // image detaches it.
  if (Jp && Jp->image() != Image)
    Jp = nullptr;
  // The persistent globals prefix belongs to the previous image (or to the
  // reference interpreter's last run); force re-materialization.
  GlobalsLive = false;
  DirtyPage.clear();
  DirtyList.clear();
}

void Vm::attachJit(const jit::JitProgram *J) {
  if (!J) {
    Jp = nullptr;
    return;
  }
  attachImage(J->image());
  Jp = J;
}

uint8_t *Vm::mapLines(const FeedbackContext *Fb) {
  if (!Fb || !Fb->Map)
    return nullptr;
  if (Fb->MapLines)
    return Fb->MapLines;
  const size_t N = (static_cast<size_t>(Fb->MapMask) >> MapLineShift) + 1;
  if (LineSink.size() < N)
    LineSink.resize(N);
  return LineSink.data();
}

void Vm::drainEdges(std::vector<uint32_t> &Out) {
  uint64_t *const Bits = EdgeBits.data();
  for (size_t W = 0, N = EdgeBits.size(); W < N; ++W) {
    uint64_t Word = Bits[W];
    if (!Word)
      continue;
    Bits[W] = 0;
    const uint32_t Base = static_cast<uint32_t>(W) << 6;
    do {
      Out.push_back(Base + static_cast<uint32_t>(std::countr_zero(Word)));
      Word &= Word - 1;
    } while (Word);
  }
}

void Vm::run(const uint8_t *Input, size_t Len, const ExecOptions &Opts,
             FeedbackContext *Fb, ExecResult &Out) {
  Out.clear();
  if (Jp)
    runJit(Input, Len, Opts, Fb, Out);
  else if (Img)
    runImage(Input, Len, Opts, Fb, Out);
  else
    runInterp(Input, Len, Opts, Fb, Out);
}

void Vm::runInterp(const uint8_t *Input, size_t Len, const ExecOptions &Opts,
                   FeedbackContext *Fb, ExecResult &R) {
  // An interpreter run rebuilds Objects/Cells from scratch below, clobbering
  // any persistent globals prefix a fast-path run may have left behind.
  GlobalsLive = false;

  Frames.clear();
  RegStack.clear();
  Objects.clear();
  Cells.clear();

  uint8_t *Map = Fb ? Fb->Map : nullptr;
  uint32_t MapMask = Fb ? Fb->MapMask : 0;
  uint8_t *Lines = mapLines(Fb);
  uint64_t PrevLoc = 0;
  uint64_t CallHash = 0x50a7af1dULL;
  uint64_t *const Edges =
      Opts.RecordShadowEdges && Shadow ? EdgeBits.data() : nullptr;
  const bool DoSig = Fb && Fb->PathSig;
  uint64_t Sig = 0;

  // Materialize globals as the first heap objects (object index == global
  // index), re-initialized on every execution.
  for (const mir::Global &G : M.Globals) {
    HeapObject O;
    O.Size = G.Size;
    O.CellBase = static_cast<uint32_t>(Cells.size());
    Cells.resize(Cells.size() + G.Size, 0);
    for (size_t I = 0; I < G.Init.size() && I < G.Size; ++I)
      Cells[O.CellBase + I] = G.Init[I];
    Objects.push_back(O);
  }

  auto pushFrame = [&](uint32_t Func, mir::Reg RetReg) {
    const mir::Function &Fn = M.Funcs[Func];
    Frame Fr;
    Fr.Func = Func;
    Fr.RegBase = static_cast<uint32_t>(RegStack.size());
    Fr.RetReg = RetReg;
    RegStack.resize(RegStack.size() + Fn.NumRegs, 0);
    if (Fn.HasPathReg)
      RegStack[Fr.RegBase + Fn.PathReg] = Fn.PathRegInit;
    Frames.push_back(Fr);
  };

  pushFrame(static_cast<uint32_t>(MainIndex), 0);

  bool Done = false;
  // Fault coordinates are normalized to *probe-free* instruction indices so
  // that bug identities and stack hashes are invariant across feedback
  // instrumentations: the paper compares the bug sets of differently
  // instrumented binaries, which is only meaningful if a crash site names
  // the same source construct in all of them. Probes never fault, original
  // block indices survive instrumentation (trampolines are appended), and
  // prepended/interleaved probes are skipped by the count below.
  auto normalizedIdx = [&](uint32_t Func, uint32_t Block, uint32_t InstrIdx) {
    const std::vector<mir::Instr> &Instrs =
        M.Funcs[Func].Blocks[Block].Instrs;
    uint32_t N = 0;
    for (uint32_t I = 0; I < InstrIdx && I < Instrs.size(); ++I)
      N += !Instrs[I].isProbe();
    return N;
  };
  auto fault = [&](FaultKind Kind) {
    R.TheFault.Kind = Kind;
    const Frame &Top = Frames.back();
    R.TheFault.Func = Top.Func;
    R.TheFault.Block = Top.Block;
    R.TheFault.InstrIdx = normalizedIdx(Top.Func, Top.Block, Top.InstrIdx);
    for (auto It = Frames.rbegin(); It != Frames.rend(); ++It)
      R.TheFault.Stack.push_back(
          {It->Func, It->Block,
           normalizedIdx(It->Func, It->Block, It->InstrIdx)});
    Done = true;
  };

  // Pointer checking helpers. Kind selects the fault reported on a bounds
  // violation (read vs write).
  auto checkObject = [&](int64_t Ptr) -> int64_t {
    if (Ptr < PtrBase || Ptr >= PtrBase + static_cast<int64_t>(Objects.size()))
      return -1;
    return Ptr - PtrBase;
  };

  uint64_t Steps = 0;

  while (!Done && !Frames.empty()) {
    if (++Steps > Opts.StepLimit) {
      fault(FaultKind::StepLimit);
      break;
    }

    Frame &Fr = Frames.back();
    const mir::Function &Fn = M.Funcs[Fr.Func];
    const mir::BasicBlock &BB = Fn.Blocks[Fr.Block];
    int64_t *Regs = RegStack.data() + Fr.RegBase;

    if (Fr.InstrIdx < BB.Instrs.size()) {
      const mir::Instr &I = BB.Instrs[Fr.InstrIdx];
      ++Fr.InstrIdx;
      switch (I.Op) {
      case mir::Opcode::Const:
        Regs[I.A] = I.Imm;
        break;
      case mir::Opcode::Move:
        Regs[I.A] = Regs[I.B];
        break;
      case mir::Opcode::Bin:
      case mir::Opcode::BinImm: {
        int64_t L = Regs[I.B];
        int64_t Rv = (I.Op == mir::Opcode::Bin) ? Regs[I.C] : I.Imm;
        if (Opts.LogCmps && R.CmpOperands.size() < Opts.MaxCmpLog) {
          switch (I.BOp) {
          case mir::BinOp::Eq:
          case mir::BinOp::Ne:
          case mir::BinOp::Lt:
          case mir::BinOp::Le:
          case mir::BinOp::Gt:
          case mir::BinOp::Ge:
            // Operand values become mutation dictionary material; tiny
            // values are noise.
            if (L > 1 || L < -1)
              R.CmpOperands.push_back(L);
            if (Rv > 1 || Rv < -1)
              R.CmpOperands.push_back(Rv);
            break;
          default:
            break;
          }
        }
        int64_t Out = 0;
        switch (I.BOp) {
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
          if (Rv == 0) {
            fault(FaultKind::DivByZero);
            continue;
          }
          Out = (L == INT64_MIN && Rv == -1) ? INT64_MIN : L / Rv;
          break;
        case mir::BinOp::Rem:
          if (Rv == 0) {
            fault(FaultKind::DivByZero);
            continue;
          }
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
        Regs[I.A] = Out;
        break;
      }
      case mir::Opcode::Neg:
        Regs[I.A] =
            static_cast<int64_t>(0 - static_cast<uint64_t>(Regs[I.B]));
        break;
      case mir::Opcode::Not:
        Regs[I.A] = Regs[I.B] == 0;
        break;
      case mir::Opcode::InLen:
        Regs[I.A] = static_cast<int64_t>(Len);
        break;
      case mir::Opcode::InByte: {
        int64_t Idx = Regs[I.B];
        Regs[I.A] = (Idx >= 0 && static_cast<uint64_t>(Idx) < Len)
                        ? Input[Idx]
                        : -1;
        break;
      }
      case mir::Opcode::Alloc: {
        int64_t Size = Regs[I.B];
        // The injected variant of heap exhaustion: lets tests drive the
        // OutOfMemory path on any allocation without tuning real limits.
        // (`fault` names the local fault-raising lambda here, hence the
        // fully qualified registry calls.)
        if (pathfuzz::fault::enabled() &&
            pathfuzz::fault::shouldFail("vm.heap.alloc")) {
          if (Fb)
            PF_TRACE_EVENT(
                Fb->Trace, telemetry::EventKind::FaultInjected, Fb->TraceExec,
                static_cast<uint32_t>(telemetry::VmFaultSite::HeapAlloc),
                static_cast<uint64_t>(Size < 0 ? 0 : Size));
          fault(FaultKind::OutOfMemory);
          continue;
        }
        if (Size < 0 ||
            Cells.size() + static_cast<uint64_t>(Size) > Opts.HeapCellLimit ||
            Objects.size() >= Opts.MaxObjects) {
          fault(FaultKind::OutOfMemory);
          continue;
        }
        HeapObject O;
        O.Size = static_cast<uint32_t>(Size);
        O.CellBase = static_cast<uint32_t>(Cells.size());
        Cells.resize(Cells.size() + static_cast<size_t>(Size), 0);
        Regs[I.A] = PtrBase + static_cast<int64_t>(Objects.size());
        Objects.push_back(O);
        ++R.HeapAllocs;
        R.HeapCellsAllocated += static_cast<uint64_t>(Size);
        break;
      }
      case mir::Opcode::GlobalAddr:
        Regs[I.A] = PtrBase + I.Imm;
        break;
      case mir::Opcode::Load: {
        int64_t Obj = checkObject(Regs[I.B]);
        if (Obj < 0) {
          fault(FaultKind::BadPointer);
          continue;
        }
        const HeapObject &O = Objects[static_cast<size_t>(Obj)];
        if (O.Freed) {
          fault(FaultKind::UseAfterFree);
          continue;
        }
        int64_t Idx = Regs[I.C];
        if (Idx < 0 || static_cast<uint64_t>(Idx) >= O.Size) {
          fault(FaultKind::OobRead);
          continue;
        }
        Regs[I.A] = Cells[O.CellBase + static_cast<size_t>(Idx)];
        break;
      }
      case mir::Opcode::Store: {
        int64_t Obj = checkObject(Regs[I.A]);
        if (Obj < 0) {
          fault(FaultKind::BadPointer);
          continue;
        }
        const HeapObject &O = Objects[static_cast<size_t>(Obj)];
        if (O.Freed) {
          fault(FaultKind::UseAfterFree);
          continue;
        }
        int64_t Idx = Regs[I.B];
        if (Idx < 0 || static_cast<uint64_t>(Idx) >= O.Size) {
          fault(FaultKind::OobWrite);
          continue;
        }
        Cells[O.CellBase + static_cast<size_t>(Idx)] = Regs[I.C];
        break;
      }
      case mir::Opcode::Free: {
        int64_t Obj = checkObject(Regs[I.A]);
        if (Obj < 0 || static_cast<size_t>(Obj) < M.Globals.size()) {
          // Freeing a wild pointer or a global is an invalid free.
          fault(FaultKind::InvalidFree);
          continue;
        }
        HeapObject &O = Objects[static_cast<size_t>(Obj)];
        if (O.Freed) {
          fault(FaultKind::DoubleFree);
          continue;
        }
        O.Freed = true;
        break;
      }
      case mir::Opcode::Abort:
        fault(FaultKind::Abort);
        continue;
      case mir::Opcode::Call: {
        if (Frames.size() >= Opts.MaxCallDepth) {
          fault(FaultKind::StackOverflow);
          continue;
        }
        if (Fb && Fb->CallPathHash && Map) {
          // PathAFL-style partial whole-program path hashing: ~1/4 of
          // functions are "selected"; each selected call event extends a
          // running hash indexed into the map.
          if ((mix64(I.Callee * 0x9e3779b97f4a7c15ULL) & 3) == 0) {
            CallHash = mix64(CallHash ^ (I.Callee + 0x517cc1b727220a95ULL));
            bump(Map, Lines, static_cast<uint32_t>(CallHash) & MapMask);
          }
        }
        int64_t ArgVals[mir::MaxCallArgs];
        for (unsigned K = 0; K < I.NumArgs; ++K)
          ArgVals[K] = Regs[I.Args[K]];
        pushFrame(I.Callee, I.A);
        // pushFrame may reallocate RegStack; re-derive the callee base.
        Frame &Callee = Frames.back();
        for (unsigned K = 0; K < I.NumArgs; ++K)
          RegStack[Callee.RegBase + K] = ArgVals[K];
        continue; // switch to the callee frame
      }
      case mir::Opcode::EdgeProbe:
        if (Map)
          bump(Map, Lines, static_cast<uint32_t>(I.Imm) & MapMask);
        break;
      case mir::Opcode::BlockProbe:
        if (Map) {
          bump(Map, Lines,
               (static_cast<uint32_t>(I.Imm) ^ static_cast<uint32_t>(PrevLoc)) &
                   MapMask);
          PrevLoc = static_cast<uint64_t>(I.Imm) >> 1;
        }
        break;
      case mir::Opcode::PathAdd:
        Regs[Fn.PathReg] += I.Imm;
        break;
      case mir::Opcode::PathFlushRet:
      case mir::Opcode::PathFlushBack: {
        int64_t PathId = Regs[Fn.PathReg] + I.Imm;
        if (Map) {
          uint64_t Key = Fb->FuncKeys ? Fb->FuncKeys[Fr.Func] : 0;
          bump(Map, Lines,
               static_cast<uint32_t>(static_cast<uint64_t>(PathId) ^ Key) &
                   MapMask);
        }
        if (I.Op == mir::Opcode::PathFlushBack)
          Regs[Fn.PathReg] = I.Imm2;
        break;
      }
      }
      continue;
    }

    // Terminator.
    const mir::Terminator &T = BB.Term;
    if (T.Kind == mir::TermKind::Ret) {
      int64_t Value = Regs[T.Cond];
      uint32_t RegBase = Fr.RegBase;
      mir::Reg RetReg = Fr.RetReg;
      Frames.pop_back();
      RegStack.resize(RegBase);
      if (Frames.empty()) {
        R.ReturnValue = Value;
        break;
      }
      Frame &Caller = Frames.back();
      RegStack[Caller.RegBase + RetReg] = Value;
      continue;
    }

    uint32_t Slot = 0;
    switch (T.Kind) {
    case mir::TermKind::Br:
      Slot = 0;
      break;
    case mir::TermKind::CondBr:
      Slot = Regs[T.Cond] != 0 ? 0 : 1;
      break;
    case mir::TermKind::Switch: {
      int64_t V = Regs[T.Cond];
      Slot = static_cast<uint32_t>(T.Succs.size() - 1); // default
      for (uint32_t K = 0; K + 1 < T.Succs.size(); ++K) {
        if (T.CaseValues[K] == V) {
          Slot = K;
          break;
        }
      }
      break;
    }
    case mir::TermKind::Ret:
      break; // handled above
    }
    // The exec-path signature hashes only *decisions*: slots of CondBr and
    // Switch. Br/Ret are forced transfers — including them would add
    // nothing, and excluding them keeps the fast path's per-handler
    // accumulation sites identical to these.
    if (DoSig && T.Kind != mir::TermKind::Br)
      Sig = hashCombine(Sig, Slot);

    if (Edges)
      markEdge(Edges, Shadow->edgeId(Fr.Func, Fr.Block, Slot));
    Fr.Block = T.Succs[Slot];
    Fr.InstrIdx = 0;
  }

  R.Steps = Steps;
  if (DoSig)
    *Fb->PathSig = Sig;
  if (Edges)
    drainEdges(R.ShadowEdges);
}

} // namespace vm
} // namespace pathfuzz
