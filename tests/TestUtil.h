//===- TestUtil.h - Shared test helpers -------------------------*- C++ -*-===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_TESTS_TESTUTIL_H
#define PATHFUZZ_TESTS_TESTUTIL_H

#include "cov/CoverageMap.h"
#include "mir/Builder.h"
#include "mir/Mir.h"
#include "support/Rng.h"

#include <string>
#include <vector>

namespace pathfuzz {
namespace test {

/// Generate a random but well-formed register-only function: Const /
/// BinImm / InByte / InLen instructions, Br / CondBr / Switch / Ret
/// terminators. No memory ops, so execution either returns or hits the
/// step limit — ideal for semantics-preservation and Ball-Larus property
/// tests on arbitrary CFG shapes (including loops and unreachable
/// blocks).
inline mir::Function randomFunction(Rng &R, unsigned MaxBlocks = 12) {
  unsigned NumBlocks = 2 + static_cast<unsigned>(R.below(MaxBlocks - 1));
  mir::FunctionBuilder FB("random", /*NumParams=*/1);

  // Pre-create the blocks so terminators can target any of them.
  std::vector<uint32_t> Blocks;
  Blocks.push_back(0);
  for (unsigned I = 1; I < NumBlocks; ++I)
    Blocks.push_back(FB.newBlock());

  // A pool of registers written before use.
  std::vector<mir::Reg> Pool = {0};

  for (unsigned B = 0; B < NumBlocks; ++B) {
    FB.setInsertPoint(Blocks[B]);
    unsigned NumInstrs = static_cast<unsigned>(R.below(4));
    for (unsigned I = 0; I < NumInstrs; ++I) {
      switch (R.below(4)) {
      case 0:
        Pool.push_back(FB.emitConst(R.range(-8, 200)));
        break;
      case 1:
        Pool.push_back(FB.emitBinImm(
            static_cast<mir::BinOp>(R.below(3)), // Add/Sub/Mul
            Pool[R.index(Pool.size())], R.range(-3, 3)));
        break;
      case 2:
        Pool.push_back(FB.emitInByte(Pool[R.index(Pool.size())]));
        break;
      case 3:
        Pool.push_back(FB.emitInLen());
        break;
      }
    }
    // Terminator: bias towards forward control flow so most blocks are
    // reachable, but allow arbitrary targets (back edges, self loops).
    uint32_t T1 = Blocks[R.index(NumBlocks)];
    uint32_t T2 = Blocks[R.index(NumBlocks)];
    switch (R.below(8)) {
    case 0:
    case 1:
      FB.setRet(Pool[R.index(Pool.size())]);
      break;
    case 2:
      FB.setBr(T1);
      break;
    case 3: {
      std::vector<int64_t> Cases = {R.range(0, 4), R.range(5, 9)};
      std::vector<uint32_t> Targets = {T1, T2};
      FB.setSwitch(Pool[R.index(Pool.size())], Cases, Targets,
                   Blocks[R.index(NumBlocks)]);
      break;
    }
    default:
      FB.setCondBr(Pool[R.index(Pool.size())], T1, T2);
      break;
    }
  }
  return FB.take();
}

/// The first nonzero byte of a tracked map that lies in a line its engine
/// did not mark, or -1 when the line summary covers the whole trace.
inline int64_t firstUnmarkedByte(const cov::CoverageMap &Map) {
  for (uint32_t I = 0; I < Map.size(); ++I)
    if (Map.data()[I] && !Map.lines()[I >> cov::CoverageMap::LineShift])
      return I;
  return -1;
}

/// Wrap a function into a module whose main calls it once.
inline mir::Module moduleWith(mir::Function F) {
  mir::Module M;
  M.Name = "test";
  F.Name = "callee";
  M.Funcs.push_back(std::move(F));

  mir::FunctionBuilder Main("main", 0);
  mir::Reg Arg = Main.emitInLen();
  mir::Reg Ret = Main.emitCall(0, {Arg});
  Main.setRet(Ret);
  M.Funcs.push_back(Main.take());
  return M;
}

} // namespace test
} // namespace pathfuzz

#endif // PATHFUZZ_TESTS_TESTUTIL_H
