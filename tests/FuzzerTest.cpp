//===- FuzzerTest.cpp - Fuzzing loop integration -------------------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "lang/Compile.h"
#include "vm/Image.h"
#include "vm/jit/Jit.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

// Global allocation counter for Fuzzer.ExecLoopDoesNotAllocate. Every
// non-aligned form of operator new/delete is replaced, so each allocation
// and its release go through malloc/free (also under ASan, which would
// otherwise pair its own forms with these); aligned forms are untouched.
static std::atomic<bool> CountAllocs{false};
static std::atomic<uint64_t> Allocs{0};

static void *countedAlloc(std::size_t N) noexcept {
  if (CountAllocs.load(std::memory_order_relaxed))
    Allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(N ? N : 1);
}
void *operator new(std::size_t N) {
  if (void *P = countedAlloc(N))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) { return ::operator new(N); }
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  return countedAlloc(N);
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  return countedAlloc(N);
}
// GCC pairs the inlined free with the library's operator new, not this
// replacement, and warns; the pairing here is malloc/free throughout.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

using namespace pathfuzz;
using namespace pathfuzz::fuzz;

namespace {

struct Harness {
  mir::Module Mod;
  instr::ShadowEdgeIndex Shadow;
  instr::InstrumentReport Report;

  Harness(const char *Src, instr::Feedback Mode) {
    lang::CompileResult CR = lang::compileSource(Src, "t");
    EXPECT_TRUE(CR.ok()) << CR.message();
    Mod = std::move(*CR.Mod);
    // Shadow numbering comes from the original module, pre-probes.
    Shadow = instr::ShadowEdgeIndex::build(Mod);
    instr::InstrumentOptions IO;
    IO.Mode = Mode;
    Report = instr::instrumentModule(Mod, IO);
  }
};

const char *EasyBug = R"ml(
fn main() {
  var a[4];
  if (in(0) == 'B') {
    if (in(1) == 'U') {
      a[in(2) % 8] = 1;   // OOB for in(2) % 8 >= 4
    }
  }
  return 0;
}
)ml";

TEST(Fuzzer, FindsAShallowBug) {
  Harness H(EasyBug, instr::Feedback::EdgePrecise);
  FuzzerOptions FO;
  FO.Seed = 3;
  Fuzzer F(H.Mod, H.Report, H.Shadow, FO);
  F.addSeed({'B', 'U', 'G'});
  F.run(20000);
  EXPECT_GE(F.bugIds().size(), 1u);
  EXPECT_GE(F.uniqueCrashes().size(), 1u);
  EXPECT_GT(F.stats().Crashes, 0u);
  // Crashing inputs are never queued.
  for (const QueueEntry &E : F.corpus().entries()) {
    vm::ExecResult R = F.executeRaw(E.Data);
    EXPECT_FALSE(R.crashed());
  }
}

TEST(Fuzzer, DeterministicCampaigns) {
  for (instr::Feedback Mode :
       {instr::Feedback::EdgePrecise, instr::Feedback::Path}) {
    Harness H1(EasyBug, Mode);
    Harness H2(EasyBug, Mode);
    FuzzerOptions FO;
    FO.Seed = 99;
    Fuzzer F1(H1.Mod, H1.Report, H1.Shadow, FO);
    Fuzzer F2(H2.Mod, H2.Report, H2.Shadow, FO);
    F1.addSeed({'B', 'x'});
    F2.addSeed({'B', 'x'});
    F1.run(5000);
    F2.run(5000);
    EXPECT_EQ(F1.stats().Execs, F2.stats().Execs);
    EXPECT_EQ(F1.corpus().size(), F2.corpus().size());
    EXPECT_EQ(F1.stats().Crashes, F2.stats().Crashes);
    EXPECT_EQ(F1.edgesCovered(), F2.edgesCovered());
    EXPECT_EQ(F1.bugIds(), F2.bugIds());
  }
}

TEST(Fuzzer, CrashingSeedIsRecordedNotQueued) {
  Harness H(EasyBug, instr::Feedback::EdgePrecise);
  FuzzerOptions FO;
  Fuzzer F(H.Mod, H.Report, H.Shadow, FO);
  F.addSeed({'B', 'U', 0x07}); // 7 % 8 = 7 >= 4: crashes
  EXPECT_EQ(F.corpus().size(), 0u);
  EXPECT_EQ(F.uniqueCrashes().size(), 1u);
}

TEST(Fuzzer, RunsWithoutSeeds) {
  Harness H(EasyBug, instr::Feedback::EdgePrecise);
  FuzzerOptions FO;
  Fuzzer F(H.Mod, H.Report, H.Shadow, FO);
  F.run(2000);
  EXPECT_GE(F.stats().Execs, 2000u);
  EXPECT_GE(F.corpus().size(), 1u);
}

TEST(Fuzzer, PathFeedbackRetainsMorePathDiversity) {
  // A function whose two decisions produce 4 paths over the same edges
  // once each branch direction was seen: the path feedback must keep more
  // entries than edge feedback.
  const char *Src = R"ml(
fn f(a, b) {
  var x;
  if (a) { x = 1; } else { x = 2; }
  if (b) { x = x + 10; } else { x = x * 3; }
  return x;
}
fn main() {
  return f(in(0) & 1, in(1) & 1);
}
)ml";
  uint64_t QueueSizes[2];
  int I = 0;
  for (instr::Feedback Mode :
       {instr::Feedback::EdgePrecise, instr::Feedback::Path}) {
    Harness H(Src, Mode);
    FuzzerOptions FO;
    FO.Seed = 7;
    Fuzzer F(H.Mod, H.Report, H.Shadow, FO);
    F.addSeed({0, 0});
    F.run(4000);
    QueueSizes[I++] = F.corpus().size();
  }
  EXPECT_GT(QueueSizes[1], QueueSizes[0]);
}

TEST(Fuzzer, CycleSchedulerLatchesCycleEndAtCycleStart) {
  // Regression for the queue-cycle wrap bug: the old cursor advanced
  // modulo the *live* queue size, so growth mid-cycle made it wrap early
  // and starve the new tail entries for an entire pass. The cycle length
  // must be latched when the cycle starts and the grown tail picked up by
  // the very next cycle.
  CycleScheduler S;
  EXPECT_EQ(S.next(3), 0u);
  EXPECT_EQ(S.next(3), 1u);
  // Queue grows from 3 to 6 mid-cycle: the current cycle still ends at 3.
  EXPECT_EQ(S.next(6), 2u);
  EXPECT_EQ(S.completedCycles(), 0u);
  // Next cycle re-latches and covers all six entries exactly once.
  for (size_t I = 0; I < 6; ++I)
    EXPECT_EQ(S.next(6), I);
  EXPECT_EQ(S.completedCycles(), 1u);
  // A cursor that wrapped modulo live size would never hand out 6 here.
  EXPECT_EQ(S.next(7), 0u);
  EXPECT_EQ(S.next(7), 1u);
  for (size_t I = 2; I < 7; ++I)
    EXPECT_EQ(S.next(7), I);
  EXPECT_EQ(S.completedCycles(), 2u);
}

TEST(Fuzzer, QueueCyclesAdvanceDuringARun) {
  Harness H(EasyBug, instr::Feedback::EdgePrecise);
  FuzzerOptions FO;
  FO.Seed = 11;
  Fuzzer F(H.Mod, H.Report, H.Shadow, FO);
  F.addSeed({'B', 'U'});
  F.run(20000);
  // Small corpus + big budget: the cursor must complete many full passes.
  EXPECT_GE(F.stats().QueueCycles, 2u);
}

const char *HangProne = R"ml(
fn main() {
  if (in(0) == 'L') {
    var i = 0;
    while (i >= 0) { i = i + 1; }
  }
  return 0;
}
)ml";

TEST(Fuzzer, HangsAreRecordedAndDeduplicated) {
  Harness H(HangProne, instr::Feedback::EdgePrecise);
  FuzzerOptions FO;
  FO.Exec.StepLimit = 500;
  Fuzzer F(H.Mod, H.Report, H.Shadow, FO);

  F.addSeed({'L'});
  EXPECT_EQ(F.corpus().size(), 0u); // hung seeds are not queued
  ASSERT_EQ(F.uniqueHangs().size(), 1u);
  EXPECT_EQ(F.stats().Hangs, 1u);
  EXPECT_GE(F.uniqueHangs()[0].Steps, 500u);
  EXPECT_EQ(F.uniqueHangs()[0].Data, Input({'L'}));

  F.addSeed({'L'}); // same input: counted, not re-recorded
  EXPECT_EQ(F.stats().Hangs, 2u);
  EXPECT_EQ(F.uniqueHangs().size(), 1u);

  F.addSeed({'L', 'x'}); // distinct hanging input: new record
  EXPECT_EQ(F.stats().Hangs, 3u);
  EXPECT_EQ(F.uniqueHangs().size(), 2u);
}

TEST(Fuzzer, GrowthSamplesAccumulate) {
  Harness H(EasyBug, instr::Feedback::EdgePrecise);
  FuzzerOptions FO;
  FO.GrowthSampleInterval = 512;
  Fuzzer F(H.Mod, H.Report, H.Shadow, FO);
  F.addSeed({'B'});
  F.run(5000);
  EXPECT_GE(F.stats().QueueGrowth.size(), 5u);
  for (size_t I = 1; I < F.stats().QueueGrowth.size(); ++I)
    EXPECT_LE(F.stats().QueueGrowth[I - 1].first,
              F.stats().QueueGrowth[I].first);
}

// The steady-state exec loop — mutate into the reused buffer, execute into
// the reused result, check novelty — allocates nothing. Executions that
// queue an input, record a crash or hang, or grow the dictionary do
// allocate (they keep copies), so the loop is stepped one execution at a
// time and only executions with none of those effects are counted. The
// subject has no calls and no heap, so the VM's own stacks cannot grow
// past their first high-water mark either.
TEST(Fuzzer, ExecLoopDoesNotAllocate) {
  const char *Src = R"ml(
fn main() {
  var s = 0;
  var i = 0;
  while (i < len()) {
    var c = in(i);
    if (c > 200) { s = s + 2; } else { if (c < 50) { s = s - 1; } }
    i = i + 1;
  }
  return s;
}
)ml";
  for (int Engine = 0; Engine < 3; ++Engine) {
    if (Engine == 2 && !vm::jit::available())
      continue;
    Harness H(Src, instr::Feedback::EdgePrecise);
    vm::ProgramImage Image = vm::ProgramImage::build(H.Mod, &H.Shadow);
    std::unique_ptr<vm::jit::JitProgram> J =
        Engine == 2 ? vm::jit::JitProgram::compile(Image) : nullptr;
    FuzzerOptions FO;
    FO.Seed = 11;
    FO.GrowthSampleInterval = 0;
    FO.Image = Engine >= 1 ? &Image : nullptr;
    FO.Jit = J.get();
    Fuzzer F(H.Mod, H.Report, H.Shadow, FO);
    F.addSeed({'a', 0xff, 7, 'q'});
    F.run(3000);

    uint64_t Clean = 0, Allocating = 0;
    for (int K = 0; K < 3000; ++K) {
      const size_t Queue = F.corpus().size(), Dict = F.cmpDict().size();
      const uint64_t Crashes = F.stats().Crashes, Hangs = F.stats().Hangs;
      Allocs = 0;
      CountAllocs = true;
      F.run(F.stats().Execs + 1);
      CountAllocs = false;
      if (F.corpus().size() != Queue || F.cmpDict().size() != Dict ||
          F.stats().Crashes != Crashes || F.stats().Hangs != Hangs)
        continue;
      ++Clean;
      Allocating += Allocs != 0;
    }
    EXPECT_GT(Clean, 2500u) << "engine " << Engine;
    EXPECT_EQ(Allocating, 0u) << "engine " << Engine;
  }
}

} // namespace
