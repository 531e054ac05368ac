//===- Jit.h - Baseline template JIT over ProgramImage ----------*- C++ -*-===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// The baseline (template) JIT: compiles the pre-decoded DInstr slots of a
// vm::ProgramImage into one contiguous native x86-64 function, executed
// by Vm::runJit with results bit-identical to both interpreters. The
// codegen contract — per-op templates, terminal bailouts, PcInfo-exact
// fault coordinates, W^X buffer lifecycle and cache keying — is
// documented in docs/JIT.md; the compiler lives in Compile.cpp and the
// runtime ABI in Runtime.h.
//
// A JitProgram is immutable after compile() and carries no mutable
// execution state, so one program is shared read-only by any number of
// Vms across threads, exactly like the image it was compiled from (the
// build cache stores them side by side).
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_VM_JIT_JIT_H
#define PATHFUZZ_VM_JIT_JIT_H

#include <cstddef>
#include <cstdint>
#include <memory>

namespace pathfuzz {
namespace vm {

class ProgramImage;

namespace jit {

struct JitState;

/// Whether this build/platform can JIT at all (x86-64 with a working
/// W^X mmap/mprotect cycle). When false, compile() returns null and
/// every VmExecMode resolves away from the JIT engine.
bool available();

/// A page-aligned executable code buffer with W^X discipline: allocated
/// read-write for emission, sealed read-execute before first use, never
/// writable again. Unmapped on destruction.
class ExecBuffer {
public:
  ExecBuffer() = default;
  ~ExecBuffer();
  ExecBuffer(const ExecBuffer &) = delete;
  ExecBuffer &operator=(const ExecBuffer &) = delete;

  /// Map a fresh RW region of at least Size bytes. False on mmap failure.
  bool allocate(size_t Size);
  /// Flip the region RX. False on mprotect failure.
  bool seal();

  uint8_t *data() const { return static_cast<uint8_t *>(Base); }
  size_t size() const { return MapSize; }
  bool sealed() const { return Sealed; }

private:
  void *Base = nullptr;
  size_t MapSize = 0;
  bool Sealed = false;
};

/// Compile-time footprint of one program, for telemetry and reporting.
struct JitStats {
  uint64_t CodeBytes = 0; ///< native bytes emitted (before page rounding)
  uint32_t NumFuncs = 0;  ///< MiniLang functions compiled
  uint32_t NumSlots = 0;  ///< DInstr slots covered
};

/// One compiled image: a single native function entered once per
/// execution plus the metadata Run.cpp needs to drive it.
class JitProgram {
public:
  /// Signature of the generated entry point. The state struct carries
  /// everything in and out; see Runtime.h.
  using EntryFn = void (*)(JitState *);

  /// Compile Image. Returns null when the platform is unsupported or the
  /// executable mapping fails — callers fall back to the interpreters.
  /// The image is borrowed and must outlive the program.
  static std::unique_ptr<JitProgram> compile(const ProgramImage &Image);

  const ProgramImage *image() const { return Img; }
  EntryFn entry() const { return Entry; }
  const JitStats &stats() const { return Stats; }
  /// Largest per-function register frame in the image, for the worst-case
  /// register-stack pre-reservation in Run.cpp.
  uint32_t maxFrameRegs() const { return MaxRegs; }
  /// 64-bit words of edge bitset that cover every shadow edge ID the
  /// compiled code records (0 when the image resolved none).
  uint32_t edgeWords() const { return EdgeWords; }

private:
  JitProgram() = default;

  const ProgramImage *Img = nullptr;
  ExecBuffer Buf;
  EntryFn Entry = nullptr;
  JitStats Stats;
  uint32_t MaxRegs = 0;
  uint32_t EdgeWords = 0;
};

} // namespace jit
} // namespace vm
} // namespace pathfuzz

#endif // PATHFUZZ_VM_JIT_JIT_H
