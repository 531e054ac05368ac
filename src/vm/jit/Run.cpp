//===- Run.cpp - Vm::runJit, the JIT engine wrapper ----------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// The C++ side of a JIT execution: pre-reserve the worst-case register
// stack and frame array (compiled code never grows them — that is the
// per-exec capacity guard's job to ensure), seed a JitState, enter the
// compiled function once, and rebuild the ExecResult exactly as
// Exec.cpp's RaiseFault/Finish tail does:
//
//  - Steps falls out of the countdown: StepLimit - StepsRemaining, and a
//    step-limit trip leaves StepsRemaining at -1 so the unsigned wrap
//    yields StepLimit + 1 — the reference's post-increment count.
//  - Fault coordinates come from PcInfo at the recorded BailPC (already
//    advanced past a faulting slot, un-advanced for a step trip) and the
//    stack walk reads bytecode SavedPCs out of the JitFrame array with
//    the reference's exact loop shape.
//  - Shadow edges are drained from the Vm's edge bitset in ascending
//    order (clearing it), and the dirty-page list is adopted so the next
//    snapshot reset (shared with the fast path) works unchanged.
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "vm/Image.h"
#include "vm/jit/Jit.h"
#include "vm/jit/Runtime.h"

#include <algorithm>

namespace pathfuzz {
namespace vm {

void Vm::runJit(const uint8_t *Input, size_t Len, const ExecOptions &Opts,
                FeedbackContext *Fb, ExecResult &R) {
  const jit::JitProgram &J = *Jp;
  const ProgramImage &P = *Img;

  // Capacity guard: compiled code indexes the register stack and frame
  // array without bounds checks, so both are sized for the worst case up
  // front. Options that would make that reservation absurd (a pathological
  // MaxCallDepth) route this execution to the fast-path executor instead —
  // same results, no reservation.
  const uint64_t MaxDepth = Opts.MaxCallDepth;
  const uint64_t WorstRegs =
      (MaxDepth + 1) * static_cast<uint64_t>(J.maxFrameRegs()) + 8;
  if (MaxDepth > (uint64_t(1) << 20) || WorstRegs > (uint64_t(1) << 22)) {
    ++JStats.Fallbacks;
    runImage(Input, Len, Opts, Fb, R);
    return;
  }

  resetGlobalsFromImage();

  if (RegStack.size() < WorstRegs)
    RegStack.resize(WorstRegs);
  const size_t FrameBytes =
      static_cast<size_t>(MaxDepth + 1) * sizeof(jit::JitFrame);
  if (JitFrames.size() < FrameBytes)
    JitFrames.resize(FrameBytes);
  // Compiled code sets edge bits unconditionally, so the bitset covers
  // every ID the program emits even when this run records none (the bits
  // are then cleared unread).
  const bool RecordEdges = Opts.RecordShadowEdges && Shadow;
  if (EdgeBits.size() < J.edgeWords())
    EdgeBits.resize(J.edgeWords());
  if (JitDirty.size() < DirtyPage.size())
    JitDirty.resize(DirtyPage.size());

  jit::JitFrame *FramesP = reinterpret_cast<jit::JitFrame *>(JitFrames.data());
  const ImageFunc &MainF = P.funcs()[P.mainIndex()];

  // Frame 0 = @main, exactly as the reference pushFrame does it (its
  // NativeRet and SavedPC are dead: Ret from frame 0 exits, and the fault
  // walk never reads the innermost frame's SavedPC).
  FramesP[0] = jit::JitFrame{};
  std::fill_n(RegStack.data(), MainF.NumRegs, 0);
  if (MainF.HasPathReg)
    RegStack[MainF.PathReg] = MainF.PathRegInit;

  const bool DoCallHash = Fb && Fb->CallPathHash && Fb->Map;
  const bool DoSig = Fb && Fb->PathSig;

  jit::JitState S;
  S.RegStack = RegStack.data();
  S.Frames = FramesP;
  S.FrameTop = 1;
  S.RegTop = MainF.NumRegs;
  S.Objects = Objects.data();
  S.NumObjs = Objects.size();
  S.Cells = Cells.data();
  S.CellsN = Cells.size();
  S.Map = Fb ? Fb->Map : nullptr;
  S.MapMask = Fb ? Fb->MapMask : 0;
  S.MapLines = mapLines(Fb);
  S.PrevLoc = 0;
  S.CallHash = 0x50a7af1dULL;
  S.Sig = 0;
  S.Input = Input;
  S.Len = Len;
  S.StepsRemaining = Opts.StepLimit;
  S.MaxCallDepth = MaxDepth;
  S.FuncKeys = Fb ? Fb->FuncKeys : nullptr;
  S.EdgeBits = reinterpret_cast<uint8_t *>(EdgeBits.data());
  S.DirtyPage = DirtyPage.data();
  S.DirtyList = JitDirty.data();
  S.DirtyN = 0;
  S.NumGlobalCells = P.globalCells();
  S.NumGlobals = P.numGlobals();
  S.FlagLogCmps = Opts.LogCmps ? 1 : 0;
  S.FlagDoCallHash = DoCallHash ? 1 : 0;
  S.FlagDoSig = DoSig ? 1 : 0;
  S.ObjectsVec = &Objects;
  S.CellsVec = &Cells;
  S.Result = &R;
  S.Fb = Fb;
  S.HeapCellLimit = Opts.HeapCellLimit;
  S.MaxObjects = Opts.MaxObjects;
  S.MaxCmpLog = Opts.MaxCmpLog;

  J.entry()(&S);
  ++JStats.Execs;

  // Steps executed: the countdown wraps to -1 on a step-limit trip, so
  // the subtraction reproduces the reference's StepLimit + 1 there too.
  R.Steps = Opts.StepLimit - S.StepsRemaining;
  R.ReturnValue = S.RetVal;

  const FaultKind Fk = static_cast<FaultKind>(S.FaultKind);
  if (Fk != FaultKind::None) {
    ++JStats.Bailouts;
    const PcInfo *const Pcs = P.pcInfo();
    R.TheFault.Kind = Fk;
    const PcInfo &FP = Pcs[S.BailPC];
    R.TheFault.Func = FP.Func;
    R.TheFault.Block = FP.Block;
    R.TheFault.InstrIdx = FP.Norm;
    R.TheFault.Stack.push_back({FP.Func, FP.Block, FP.Norm});
    for (uint64_t K = S.FrameTop - 1; K-- > 0;) {
      const PcInfo &CP = Pcs[FramesP[K].SavedPC];
      R.TheFault.Stack.push_back({CP.Func, CP.Block, CP.Norm});
    }
  }

  if (DoSig)
    *Fb->PathSig = S.Sig;
  if (RecordEdges)
    drainEdges(R.ShadowEdges);
  else
    std::fill(EdgeBits.begin(), EdgeBits.end(), 0);
  // Adopt the dirty-page list so resetGlobalsFromImage (shared with the
  // fast path) restores exactly these pages before the next run.
  DirtyList.assign(JitDirty.begin(), JitDirty.begin() + S.DirtyN);
  uint64_t Dirty = 0;
  for (uint32_t Page : DirtyList) {
    const uint64_t Base = static_cast<uint64_t>(Page) << SnapshotPageShift;
    Dirty += std::min<uint64_t>(SnapshotPageCells, S.NumGlobalCells - Base);
  }
  R.DirtyGlobalCells = Dirty;
}

} // namespace vm
} // namespace pathfuzz
