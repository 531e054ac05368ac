//===- Vm.h - MIR interpreter with memory-safety checking -------*- C++ -*-===//
//
// Part of the pathfuzz project: a reproduction of "Towards Path-Aware
// Coverage-Guided Fuzzing" (CGO 2026).
//
//===----------------------------------------------------------------------===//
//
// The VM executes (instrumented) MIR programs on fuzz inputs, standing in
// for native execution under AddressSanitizer in the paper's setup:
//
//  - A simulated heap with per-object bounds, free-state tracking and
//    pointer validation turns memory-safety violations into deterministic
//    Fault records carrying the faulting site and the call stack, enabling
//    the paper's triage pipeline (stack-hash "unique crashes" and
//    root-cause "unique bugs").
//  - Coverage probes inserted by src/instrument are interpreted against a
//    caller-provided coverage map (the AFL++ shared-memory map analogue).
//  - Independent of the feedback mode, the VM can record the set of
//    *shadow* edges traversed (see instrument/ShadowEdges.h), the
//    afl-showmap analogue used for the paper's coverage study and for the
//    culling strategy.
//  - Comparison operands can be logged, feeding the input-to-state
//    mutation stage (the cmplog/RedQueen analogue the paper enables).
//  - A step budget bounds runaway executions (the timeout analogue); step
//    exhaustion is a hang, not a crash.
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_VM_VM_H
#define PATHFUZZ_VM_VM_H

#include "instrument/ShadowEdges.h"
#include "mir/Mir.h"
#include "support/Hashing.h"

#include <cstdint>
#include <vector>

namespace pathfuzz {
namespace telemetry {
class InstanceTrace;
} // namespace telemetry
namespace vm {

class ProgramImage;
namespace jit {
class JitProgram;
} // namespace jit

/// One simulated heap object: globals occupy the [0, numGlobals) prefix,
/// dynamic allocations follow. At namespace scope (rather than nested in
/// Vm) because the JIT runtime helpers grow the object table directly.
struct HeapObject {
  uint32_t Size = 0;
  uint32_t CellBase = 0; ///< offset into Cells
  bool Freed = false;
};

/// Execution outcome kinds. Everything except None and StepLimit is a
/// crash (StepLimit is the hang/timeout analogue).
enum class FaultKind : uint8_t {
  None,
  OobRead,
  OobWrite,
  UseAfterFree,
  DoubleFree,
  InvalidFree,
  BadPointer,
  DivByZero,
  Abort,
  StackOverflow,
  OutOfMemory,
  StepLimit,
};

/// Whether the fault kind counts as a crash for the fuzzer.
inline bool isCrash(FaultKind K) {
  return K != FaultKind::None && K != FaultKind::StepLimit;
}

const char *faultKindName(FaultKind K);

/// One frame of the call stack at fault time.
struct StackFrameRef {
  uint32_t Func = 0;
  uint32_t Block = 0;
  uint32_t InstrIdx = 0;
};

/// A crash report: the faulting site plus the call stack (innermost
/// first).
struct Fault {
  FaultKind Kind = FaultKind::None;
  uint32_t Func = 0;
  uint32_t Block = 0;
  uint32_t InstrIdx = 0;
  std::vector<StackFrameRef> Stack;

  /// Ground-truth bug identity: the faulting site and kind. This is the
  /// analogue of the paper's *manual* crash-to-bug deduplication — with
  /// planted bugs the root cause is known exactly.
  uint64_t bugId() const {
    uint64_t Id = (static_cast<uint64_t>(Func) << 40) |
                  (static_cast<uint64_t>(Block) << 16) | InstrIdx;
    return hashCombine(Id, static_cast<uint64_t>(Kind));
  }

  /// Stack-trace hash over the top `Frames` frames (default 5, as the
  /// paper's crash clustering does): the "unique crash" identity.
  uint64_t stackHash(unsigned Frames = 5) const;
};

/// log2 of the coverage-map bytes one FeedbackContext::MapLines byte
/// summarizes (cov::CoverageMap::LineShift).
constexpr uint32_t MapLineShift = 6;

/// Feedback plumbing: where probes write. Null Map disables feedback.
struct FeedbackContext {
  uint8_t *Map = nullptr;
  uint32_t MapMask = 0; ///< map size minus one (size is a power of two)
  /// Line summary of Map: every probe write to Map[I] also stores
  /// MapLines[I >> MapLineShift] = 1, so the map's owner can reset and scan
  /// only the lines an execution touched. Null when the caller tracks no
  /// lines; the engines then mark a Vm-owned sink, keeping the store
  /// branch-free.
  uint8_t *MapLines = nullptr;
  /// Per-function keys for path-map indexing: (path_id ^ key) & MapMask,
  /// the paper's (path_id XOR function) % map_size scheme.
  const uint64_t *FuncKeys = nullptr;
  /// PathAFL-style assist: hash the sequence of *selected* function calls
  /// into the map (coarse whole-program path tracking).
  bool CallPathHash = false;
  /// Flight recorder for events raised below the fuzzer (injected
  /// faults); null disables recording. TraceExec is the instance-local
  /// exec index stamped on those events.
  telemetry::InstanceTrace *Trace = nullptr;
  uint64_t TraceExec = 0;
  /// Exec-path signature sink for the selective (two-tier) mode: when
  /// non-null, the engine hashes the sequence of taken successor slots at
  /// every multi-successor terminator (CondBr taken/not-taken, Switch case
  /// selection) into *PathSig. Both engines compute the identical value —
  /// it is a pure function of the branch decisions, which on this
  /// deterministic VM fully determine the executed instruction stream and
  /// therefore every coverage-map write. Equal signatures on clean execs
  /// imply byte-identical coverage traces; the two-tier fuzzer uses that
  /// to skip the novelty check for already-seen paths (see fuzz/Fuzzer.cpp).
  uint64_t *PathSig = nullptr;
};

/// Per-execution limits and switches.
struct ExecOptions {
  uint64_t StepLimit = 500000;
  uint32_t MaxCallDepth = 192;
  uint64_t HeapCellLimit = 1 << 22; ///< total allocatable cells per run
  uint32_t MaxObjects = 1 << 16;
  bool RecordShadowEdges = true;
  bool LogCmps = false;
  uint32_t MaxCmpLog = 128;
};

/// Result of one execution.
struct ExecResult {
  Fault TheFault;
  uint64_t Steps = 0;
  int64_t ReturnValue = 0;
  /// Unique shadow edges covered, ascending by construction (drained
  /// from a bitset word by word); empty if not recorded.
  std::vector<uint32_t> ShadowEdges;
  /// Logged comparison operand values (for the cmplog stage).
  std::vector<int64_t> CmpOperands;
  /// Heap pressure of this execution (successful allocations only).
  uint64_t HeapAllocs = 0;
  uint64_t HeapCellsAllocated = 0;
  /// Fast path only: global cells this execution dirtied (page-granular;
  /// what the snapshot reset will restore before the next run). Always 0
  /// on the reference interpreter — a bookkeeping observation, not part
  /// of the execution semantics or the identity contract.
  uint64_t DirtyGlobalCells = 0;

  bool crashed() const { return isCrash(TheFault.Kind); }
  bool hung() const { return TheFault.Kind == FaultKind::StepLimit; }

  /// Reset to a default-constructed result, keeping the vectors' capacity
  /// (Vm::run's out-parameter form reuses one result across executions).
  void clear() {
    TheFault.Kind = FaultKind::None;
    TheFault.Func = TheFault.Block = TheFault.InstrIdx = 0;
    TheFault.Stack.clear();
    Steps = 0;
    ReturnValue = 0;
    ShadowEdges.clear();
    CmpOperands.clear();
    HeapAllocs = HeapCellsAllocated = DirtyGlobalCells = 0;
  }
};

/// Cumulative snapshot-reset accounting of one fast-path Vm: how much of
/// the global image the persistent-mode reset actually had to restore.
struct ResetStats {
  uint64_t Resets = 0;          ///< dirty-page resets performed
  uint64_t DirtyPagesReset = 0; ///< pages restored from the pristine image
  uint64_t DirtyCellsReset = 0; ///< cells those pages span
};

/// Cumulative JIT-engine accounting of one Vm: how executions were
/// actually served while a compiled program was attached. Engine-local
/// bookkeeping (like ResetStats), never part of the identity contract.
struct JitRunStats {
  uint64_t Execs = 0;     ///< executions served by compiled code
  uint64_t Bailouts = 0;  ///< of those, exits through a bail stub
                          ///< (fault or step limit — terminal by design)
  uint64_t Fallbacks = 0; ///< executions the capacity guard routed to the
                          ///< fast-path executor instead
};

/// The interpreter. One Vm per module; run() is reentrant per input and
/// reuses internal buffers across executions for speed.
class Vm {
public:
  /// Shadow may be null to disable shadow-edge recording entirely.
  Vm(const mir::Module &M, const instr::ShadowEdgeIndex *Shadow = nullptr);

  /// Execute @main on the given input into Out, which is cleared first
  /// but keeps its vectors' capacity: a caller that reuses one result
  /// runs without heap allocation once the buffers have grown.
  void run(const uint8_t *Input, size_t Len, const ExecOptions &Opts,
           FeedbackContext *Fb, ExecResult &Out);

  /// Execute @main on the given input.
  ExecResult run(const uint8_t *Input, size_t Len, const ExecOptions &Opts,
                 FeedbackContext *Fb = nullptr) {
    ExecResult R;
    run(Input, Len, Opts, Fb, R);
    return R;
  }

  /// Attach a pre-decoded image of this Vm's module: run() switches to the
  /// threaded-dispatch, snapshot-reset executor (Exec.cpp), which produces
  /// bit-identical results to the reference interpreter. The image must
  /// have been built from the same module (and with a shadow index if this
  /// Vm has one); it is borrowed, not owned, and may be shared read-only
  /// across Vms. Pass null to detach and fall back to the interpreter.
  void attachImage(const ProgramImage *Image);
  bool usingImage() const { return Img != nullptr; }

  /// Attach a compiled native program (vm/jit/Jit.h): run() dispatches to
  /// the JIT engine (Run.cpp), which produces bit-identical results to
  /// both interpreters. Implies attachImage(J->image()) — the image
  /// provides the PcInfo fault coordinates and the snapshot-reset
  /// pristine state; executions the per-exec capacity guard rejects fall
  /// back to the fast path transparently. Borrowed, not owned; pass null
  /// to detach (the image stays attached).
  void attachJit(const jit::JitProgram *J);
  bool usingJit() const { return Jp != nullptr; }

  /// JIT-engine accounting since the program was attached.
  const JitRunStats &jitRunStats() const { return JStats; }

  /// Snapshot-reset accounting since the image was attached.
  const ResetStats &resetStats() const { return RStats; }

  const mir::Module &module() const { return M; }

private:
  struct Frame {
    uint32_t Func = 0;
    uint32_t Block = 0;
    uint32_t InstrIdx = 0;
    uint32_t RegBase = 0; ///< offset into RegStack
    mir::Reg RetReg = 0;  ///< caller register receiving the return value
  };

  /// Fast-path call frame: the reference Frame with (Block, InstrIdx)
  /// collapsed into one saved PC. SavedPC of the *top* frame is dead (the
  /// live PC is an executor local); below it, each frame's SavedPC is its
  /// resume point just past the call.
  struct FastFrame {
    uint32_t SavedPC = 0;
    uint32_t RegBase = 0;
    mir::Reg RetReg = 0;
  };

  /// The reference interpreter (Vm.cpp).
  void runInterp(const uint8_t *Input, size_t Len, const ExecOptions &Opts,
                 FeedbackContext *Fb, ExecResult &R);

  /// The fast-path executor (Exec.cpp). Requires Img.
  void runImage(const uint8_t *Input, size_t Len, const ExecOptions &Opts,
                FeedbackContext *Fb, ExecResult &R);

  /// The JIT engine (jit/Run.cpp). Requires Jp; falls back to runImage
  /// when the per-exec capacity guard rejects the options.
  void runJit(const uint8_t *Input, size_t Len, const ExecOptions &Opts,
              FeedbackContext *Fb, ExecResult &R);

  /// Record shadow edge Id (UINT32_MAX = no edge) in an edge bitset; Bits
  /// is null when the execution records no edges. Setting a bit twice is
  /// harmless, so recording needs no seen-test.
  static void markEdge(uint64_t *Bits, uint32_t Id) {
    if (Bits && Id != UINT32_MAX)
      Bits[Id >> 6] |= uint64_t(1) << (Id & 63);
  }

  /// Append the shadow edges set in EdgeBits to Out in ascending order,
  /// clearing every word it visits; the bitset is all-zero afterwards.
  void drainEdges(std::vector<uint32_t> &Out);

  /// Snapshot reset: restore the persistent globals prefix of
  /// Objects/Cells to the image's pristine state, touching only pages the
  /// previous execution dirtied.
  void resetGlobalsFromImage();

  /// Where this run's map-line marks go: Fb->MapLines, or LineSink when
  /// the caller tracks none. Null when the run writes no map.
  uint8_t *mapLines(const FeedbackContext *Fb);

  const mir::Module &M;
  const instr::ShadowEdgeIndex *Shadow;
  int MainIndex = -1;

  // Reused per-execution state.
  std::vector<int64_t> RegStack;
  std::vector<Frame> Frames;
  std::vector<HeapObject> Objects;
  std::vector<int64_t> Cells;
  /// Shadow edges of the running execution, one bit per edge ID (bit
  /// Id & 63 of word Id >> 6); all-zero between executions.
  std::vector<uint64_t> EdgeBits;
  /// Line-mark target for untracked maps (see mapLines); never read.
  std::vector<uint8_t> LineSink;

  // Fast-path state (meaningful only while Img is attached).
  const ProgramImage *Img = nullptr;
  std::vector<FastFrame> FFrames;
  /// Whether the persistent globals prefix of Objects/Cells is live (set
  /// after the first fast-path run materializes it).
  bool GlobalsLive = false;
  std::vector<uint8_t> DirtyPage;  ///< per 64-cell page of the globals
  std::vector<uint32_t> DirtyList; ///< pages dirtied by the last run
  ResetStats RStats;

  // JIT state (meaningful only while Jp is attached). The scratch
  // vectors are pre-reserved flat buffers native code appends into with
  // pointer bumps; JitFrames holds jit::JitFrame records as raw bytes so
  // this header needs no jit types.
  const jit::JitProgram *Jp = nullptr;
  std::vector<uint8_t> JitFrames;
  std::vector<uint32_t> JitDirty;
  JitRunStats JStats;
};

} // namespace vm
} // namespace pathfuzz

#endif // PATHFUZZ_VM_VM_H
