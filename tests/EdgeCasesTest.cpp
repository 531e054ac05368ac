//===- EdgeCasesTest.cpp - Cross-module edge cases -----------------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Mutator.h"
#include "instrument/Instrument.h"
#include "lang/Compile.h"
#include "lang/Lexer.h"
#include "lang/Parser.h"
#include "strategy/Campaign.h"
#include "support/Bytes.h"
#include "targets/Targets.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

using namespace pathfuzz;

namespace {

TEST(LexerEdge, BadHexAndUnterminatedComment) {
  {
    lang::Lexer L("0x");
    L.lexAll();
    EXPECT_FALSE(L.errors().empty());
  }
  {
    lang::Lexer L("fn /* never closed");
    L.lexAll();
    EXPECT_FALSE(L.errors().empty());
  }
  {
    lang::Lexer L("'a");
    L.lexAll();
    EXPECT_FALSE(L.errors().empty());
  }
}

TEST(ParserEdge, GlobalDeclarations) {
  {
    lang::Parser P("global g[4] = {1, -2, 3}; fn main() { return g[1]; }");
    auto Prog = P.parseProgram();
    ASSERT_TRUE(Prog.has_value()) << "negative initializers must parse";
    ASSERT_EQ(Prog->Globals.size(), 1u);
    EXPECT_EQ(Prog->Globals[0].Init[1], -2);
  }
  {
    lang::Parser P("global g[x]; fn main() { return 0; }");
    EXPECT_FALSE(P.parseProgram().has_value())
        << "global sizes must be literals";
  }
}

TEST(CompileEdge, HugeGlobalRejected) {
  lang::CompileResult CR = lang::compileSource(
      "global g[99999999]; fn main() { return 0; }", "t");
  EXPECT_FALSE(CR.ok());
}

TEST(VmEdge, GlobalInitLongerThanSizeIsTruncated) {
  // The frontend can't produce this, but hand-built modules can; the VM
  // must clamp rather than scribble.
  lang::CompileResult CR =
      lang::compileSource("global g[2]; fn main() { return g[1]; }", "t");
  ASSERT_TRUE(CR.ok());
  mir::Module Mod = std::move(*CR.Mod);
  Mod.Globals[0].Init = {7, 8, 9, 10}; // oversized on purpose
  vm::Vm Machine(Mod);
  vm::ExecOptions EO;
  vm::ExecResult R = Machine.run(nullptr, 0, EO, nullptr);
  EXPECT_FALSE(R.crashed());
  EXPECT_EQ(R.ReturnValue, 8);
}

TEST(VmEdge, HeapCellLimitTriggersOom) {
  lang::CompileResult CR = lang::compileSource(R"ml(
fn main() {
  var i = 0;
  while (i < 1000) {
    var a[4096];
    a[0] = i;
    i = i + 1;
  }
  return i;
}
)ml",
                                               "t");
  ASSERT_TRUE(CR.ok());
  vm::Vm Machine(*CR.Mod);
  vm::ExecOptions EO;
  EO.HeapCellLimit = 64 * 1024;
  vm::ExecResult R = Machine.run(nullptr, 0, EO, nullptr);
  EXPECT_EQ(R.TheFault.Kind, vm::FaultKind::OutOfMemory);
}

TEST(VmEdge, ObjectCountLimitTriggersOom) {
  // Many tiny allocations exhaust MaxObjects long before the cell limit.
  lang::CompileResult CR = lang::compileSource(R"ml(
fn main() {
  var i = 0;
  while (i < 100) {
    var a[1];
    a[0] = i;
    i = i + 1;
  }
  return i;
}
)ml",
                                               "t");
  ASSERT_TRUE(CR.ok());
  vm::Vm Machine(*CR.Mod);
  vm::ExecOptions EO;
  EO.MaxObjects = 16;
  vm::ExecResult R = Machine.run(nullptr, 0, EO, nullptr);
  EXPECT_EQ(R.TheFault.Kind, vm::FaultKind::OutOfMemory);
}

TEST(VmEdge, RunawayRecursionTriggersStackOverflow) {
  lang::CompileResult CR = lang::compileSource(R"ml(
fn down(n) { return down(n + 1); }
fn main() { return down(0); }
)ml",
                                               "t");
  ASSERT_TRUE(CR.ok());
  vm::Vm Machine(*CR.Mod);
  vm::ExecOptions EO; // default MaxCallDepth
  vm::ExecResult R = Machine.run(nullptr, 0, EO, nullptr);
  EXPECT_EQ(R.TheFault.Kind, vm::FaultKind::StackOverflow);
}

TEST(VmEdge, HeapCellLimitBoundaryIsExact) {
  // One 8-cell allocation against an exactly-8-cell budget succeeds;
  // against a 7-cell budget it faults. The limit is a boundary, not a
  // fudge factor.
  lang::CompileResult CR = lang::compileSource(R"ml(
fn main() {
  var a[8];
  a[7] = 5;
  return a[7];
}
)ml",
                                               "t");
  ASSERT_TRUE(CR.ok());
  vm::Vm Machine(*CR.Mod);
  {
    vm::ExecOptions EO;
    EO.HeapCellLimit = 8;
    vm::ExecResult R = Machine.run(nullptr, 0, EO, nullptr);
    EXPECT_FALSE(R.crashed());
    EXPECT_EQ(R.ReturnValue, 5);
  }
  {
    vm::ExecOptions EO;
    EO.HeapCellLimit = 7;
    vm::ExecResult R = Machine.run(nullptr, 0, EO, nullptr);
    EXPECT_EQ(R.TheFault.Kind, vm::FaultKind::OutOfMemory);
  }
}

TEST(MutatorEdge, EmptyInputBecomesNonEmpty) {
  Rng R(1);
  fuzz::MutatorConfig MC;
  fuzz::Mutator M(R, MC);
  fuzz::Input Data;
  M.mutateOnce(Data, {});
  EXPECT_FALSE(Data.empty());
}

TEST(InstrumentEdge, ClassicBlockIdsFitTheMap) {
  lang::CompileResult CR = lang::compileSource(R"ml(
fn f(a) { if (a) { return 1; } return 2; }
fn main() { return f(len()); }
)ml",
                                               "t");
  ASSERT_TRUE(CR.ok());
  mir::Module M = std::move(*CR.Mod);
  instr::InstrumentOptions IO;
  IO.Mode = instr::Feedback::EdgeClassic;
  IO.MapSizeLog2 = 10;
  instr::instrumentModule(M, IO);
  for (const auto &F : M.Funcs)
    for (const auto &BB : F.Blocks)
      for (const auto &I : BB.Instrs)
        if (I.Op == mir::Opcode::BlockProbe) {
          EXPECT_LT(I.Imm, 1 << 10);
        }
}

TEST(CampaignEdge, ZeroBudgetStillTerminates) {
  strategy::Subject S;
  S.Name = "tiny";
  S.Source = "fn main() { return in(0); }";
  S.Seeds = {{1, 2, 3}};
  strategy::CampaignOptions Opts;
  Opts.Kind = strategy::FuzzerKind::Cull;
  Opts.ExecBudget = 1;
  strategy::CampaignResult R = strategy::runCampaign(S, Opts);
  EXPECT_GE(R.Execs, 1u);
}

TEST(CampaignEdge, SubjectWhoseSeedsAllCrashStillRuns) {
  strategy::Subject S;
  S.Name = "crashy";
  S.Source = R"ml(
fn main() {
  var a[2];
  if (len() > 0 && in(0) > 100) { a[5] = 1; }
  return 0;
}
)ml";
  S.Seeds = {{200}}; // crashes immediately
  strategy::CampaignOptions Opts;
  Opts.Kind = strategy::FuzzerKind::Path;
  Opts.ExecBudget = 3000;
  strategy::CampaignResult R = strategy::runCampaign(S, Opts);
  EXPECT_GE(R.BugIds.size(), 1u);
  EXPECT_GE(R.Execs, 3000u);
}

// MaxInputLen 0 used to reach Rng::below(0) in the mutator's extend case
// and kill the process with SIGFPE; past MaxInputLenLimit every instance
// would reserve an absurd mutation buffer. Both are structured errors.
TEST(CampaignEdge, OutOfRangeMaxInputLenIsACampaignError) {
  const strategy::Subject *S = targets::findSubject("jhead");
  ASSERT_NE(S, nullptr);
  for (size_t Len : {size_t(0), strategy::MaxInputLenLimit + 1}) {
    strategy::CampaignOptions Opts;
    Opts.Kind = strategy::FuzzerKind::Path;
    Opts.ExecBudget = 2000;
    Opts.MaxInputLen = Len;
    strategy::CampaignError Err;
    strategy::CampaignResult R = strategy::runCampaign(*S, Opts, &Err);
    EXPECT_TRUE(Err.Failed) << Len;
    EXPECT_NE(Err.Message.find("MaxInputLen"), std::string::npos) << Len;
    EXPECT_EQ(R.Execs, 0u) << Len;
  }
  // The bounds themselves run.
  strategy::CampaignOptions Opts;
  Opts.ExecBudget = 500;
  Opts.MaxInputLen = 1;
  strategy::CampaignError Err;
  strategy::CampaignResult R = strategy::runCampaign(*S, Opts, &Err);
  EXPECT_FALSE(Err.Failed) << Err.Message;
  EXPECT_GE(R.Execs, 500u);
}

// A manifest or checkpoint fingerprint is parsed before any campaign runs,
// so it rejects the same MaxInputLen values the dispatcher does.
TEST(CampaignEdge, FingerprintRejectsOutOfRangeMaxInputLen) {
  for (size_t Len : {size_t(0), size_t(1), strategy::MaxInputLenLimit,
                     strategy::MaxInputLenLimit + 1}) {
    strategy::CampaignOptions Opts;
    Opts.MaxInputLen = Len;
    const std::vector<uint8_t> Bytes = strategy::fingerprintBytes(Opts);
    ByteReader Rd(Bytes);
    strategy::CampaignOptions Back;
    const bool Valid = Len >= 1 && Len <= strategy::MaxInputLenLimit;
    EXPECT_EQ(strategy::readOptionsFingerprint(Rd, Back), Valid) << Len;
    if (Valid) {
      EXPECT_EQ(Back.MaxInputLen, Len);
    }
  }
}

} // namespace
