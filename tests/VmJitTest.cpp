//===- VmJitTest.cpp - Baseline JIT vs reference interpreter identity ---------===//
//
// Part of the pathfuzz project.
//
// The identity contract of the baseline JIT (vm/jit/): for every module,
// every input and every feedback mode, compiled native code produces
// bit-identical observable results to the reference interpreter — same
// fault record (kind, coordinates, stack hash), same step count, same
// return value, same coverage-map bytes, same shadow edges and cmp log,
// same heap accounting. docs/JIT.md spells the contract out; this suite
// pins it:
//
//  - every example subject replayed per-exec through interpreter and JIT
//    across all feedback modes;
//  - a randomized property test over arbitrary generated CFGs (loops,
//    unreachable blocks, step-limit hangs);
//  - a step-limit sweep across the exact trip boundary (the countdown
//    register's wrap must reproduce the reference's StepLimit + 1);
//  - the capacity guard's transparent fast-path fallback;
//  - whole campaigns on ALL 18 paper subjects x the 4 feedback modes,
//    compared through serializeCampaignResult;
//  - traced campaigns whose telemetry must agree apart from the
//    engine-local vm.jit.* family;
//  - checkpoint/resume with the engine switched between the two runs
//    (the engine is excluded from the checkpoint fingerprint);
//  - the PATHFUZZ_VM_JIT knob resolution and the BuildCache compile/hit
//    accounting.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "cov/CoverageMap.h"
#include "instrument/Instrument.h"
#include "lang/Compile.h"
#include "strategy/BuildCache.h"
#include "support/Env.h"
#include "targets/Targets.h"
#include "vm/Image.h"
#include "vm/Vm.h"
#include "vm/jit/Jit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace pathfuzz;
using namespace pathfuzz::strategy;

namespace {

#ifdef PATHFUZZ_SOURCE_DIR
const char *ExamplesDir = PATHFUZZ_SOURCE_DIR "/examples/minilang";
#else
const char *ExamplesDir = "examples/minilang";
#endif

std::string slurp(const std::string &Path) {
  std::ifstream F(Path);
  std::ostringstream SS;
  SS << F.rdbuf();
  return SS.str();
}

const char *const ExampleNames[] = {"sum", "lookup", "checksum", "tokens",
                                    "rle"};

std::vector<Subject> exampleSubjects() {
  std::vector<Subject> Out;
  for (const char *Name : ExampleNames) {
    Subject S;
    S.Name = Name;
    S.Source = slurp(std::string(ExamplesDir) + "/" + Name + ".ml");
    EXPECT_FALSE(S.Source.empty()) << "missing example " << Name;
    fuzz::Input In(256);
    Rng R(7);
    for (uint8_t &B : In)
      B = static_cast<uint8_t>(R.below(256));
    S.Seeds.push_back(std::move(In));
    Out.push_back(std::move(S));
  }
  return Out;
}

/// Deterministic mutated-seed workload (independent of the engine).
std::vector<fuzz::Input> workload(const Subject &S, size_t Count,
                                  uint64_t Seed) {
  std::vector<fuzz::Input> Inputs = S.Seeds;
  Rng R(Seed);
  while (Inputs.size() < Count) {
    fuzz::Input In = S.Seeds[R.index(S.Seeds.size())];
    for (int M = 0; M < 4; ++M)
      In[R.index(In.size())] = static_cast<uint8_t>(R.below(256));
    Inputs.push_back(std::move(In));
  }
  return Inputs;
}

/// Field-level identity of two executions; DirtyGlobalCells is engine
/// bookkeeping (zero on the interpreter) and deliberately excluded.
void expectSameResult(const vm::ExecResult &A, const vm::ExecResult &B,
                      const char *What) {
  EXPECT_EQ(A.TheFault.Kind, B.TheFault.Kind) << What;
  EXPECT_EQ(A.TheFault.Func, B.TheFault.Func) << What;
  EXPECT_EQ(A.TheFault.Block, B.TheFault.Block) << What;
  EXPECT_EQ(A.TheFault.InstrIdx, B.TheFault.InstrIdx) << What;
  EXPECT_EQ(A.TheFault.stackHash(), B.TheFault.stackHash()) << What;
  EXPECT_EQ(A.Steps, B.Steps) << What;
  EXPECT_EQ(A.ReturnValue, B.ReturnValue) << What;
  EXPECT_EQ(A.ShadowEdges, B.ShadowEdges) << What;
  EXPECT_EQ(A.CmpOperands, B.CmpOperands) << What;
  EXPECT_EQ(A.HeapAllocs, B.HeapAllocs) << What;
  EXPECT_EQ(A.HeapCellsAllocated, B.HeapCellsAllocated) << What;
}

/// Replay the workload through a fresh interpreter Vm and a fresh JIT Vm
/// sharing one image + compiled program; compare every observable (result
/// fields, coverage-map bytes, exec-path signatures) per execution. The
/// interpreter writes an untracked map (the reference); the JIT writes one
/// bound the way the fuzzer binds its own.
void expectJitIdentity(const mir::Module &M,
                       const instr::ShadowEdgeIndex *Shadow,
                       const vm::ProgramImage &Image,
                       const vm::jit::JitProgram &J,
                       const std::vector<fuzz::Input> &Inputs,
                       const uint64_t *FuncKeys, const char *What,
                       bool CallHash = false) {
  vm::Vm Interp(M, Shadow);
  vm::Vm Jit(M, Shadow);
  Jit.attachJit(&J);
  cov::CoverageMap MapI(16), MapJ(16);
  const cov::CoverageMap &ViewJ = MapJ;
  for (size_t K = 0; K < Inputs.size(); ++K) {
    const fuzz::Input &In = Inputs[K];
    vm::ExecOptions EO;
    EO.StepLimit = 200000;
    EO.LogCmps = true;
    MapI.reset();
    MapJ.reset();
    uint64_t SigI = 0, SigJ = 0;
    vm::FeedbackContext FbI, FbJ;
    FbI.Map = MapI.data();
    FbI.MapMask = MapI.mask();
    FbI.FuncKeys = FuncKeys;
    FbI.PathSig = &SigI;
    FbI.CallPathHash = CallHash;
    cov::CoverageMap::ProbeView PV = MapJ.probeView();
    FbJ.Map = PV.Map;
    FbJ.MapLines = PV.Lines;
    FbJ.MapMask = MapJ.mask();
    FbJ.FuncKeys = FuncKeys;
    FbJ.PathSig = &SigJ;
    FbJ.CallPathHash = CallHash;
    vm::ExecResult RI = Interp.run(In.data(), In.size(), EO, &FbI);
    vm::ExecResult RJ = Jit.run(In.data(), In.size(), EO, &FbJ);
    expectSameResult(RI, RJ, What);
    EXPECT_EQ(SigI, SigJ) << What << " input " << K << ": path signatures";
    EXPECT_EQ(std::memcmp(MapI.data(), ViewJ.data(), MapI.size()), 0)
        << What << " input " << K << ": coverage maps diverge";
    ASSERT_TRUE(ViewJ.tracked()) << What;
    EXPECT_EQ(test::firstUnmarkedByte(ViewJ), -1)
        << What << " input " << K << ": map byte in an unmarked line";
  }
  EXPECT_EQ(Jit.jitRunStats().Execs, Inputs.size()) << What;
}

/// Per-exec identity on every example subject under every feedback mode,
/// with the compiled program coming from the BuildCache slot the real
/// campaign drivers would share.
TEST(VmJit, ExampleSubjectsIdentity) {
  if (!vm::jit::available())
    GTEST_SKIP() << "JIT unsupported on this platform";
  for (const Subject &S : exampleSubjects()) {
    BuildCache Cache;
    std::shared_ptr<SubjectBuild> SB = Cache.get(S);
    CampaignOptions O;
    O.VmMode = vm::VmExecMode::Jit;
    for (instr::Feedback Mode :
         {instr::Feedback::None, instr::Feedback::EdgePrecise,
          instr::Feedback::EdgeClassic, instr::Feedback::Path}) {
      const InstrumentedBuild &IB = SB->instrumented(Mode, O);
      ASSERT_NE(IB.Image, nullptr);
      ASSERT_NE(IB.Jit, nullptr);
      std::string What =
          S.Name + "/feedback" + std::to_string(static_cast<int>(Mode));
      expectJitIdentity(IB.Mod, &SB->shadow(), *IB.Image, *IB.Jit,
                        workload(S, 48, 0x5eedbeef),
                        IB.Report.FuncKeys.data(), What.c_str());
      if (Mode == instr::Feedback::Path) {
        // pfJitCallHash bumps (and marks) the map out of line.
        What += "/callhash";
        expectJitIdentity(IB.Mod, &SB->shadow(), *IB.Image, *IB.Jit,
                          workload(S, 48, 0x5eedbeef),
                          IB.Report.FuncKeys.data(), What.c_str(),
                          /*CallHash=*/true);
      }
    }
  }
}

/// Randomized property test: arbitrary generated CFGs (back edges, self
/// loops, unreachable blocks, step-limit hangs) must execute identically
/// through compiled code and the interpreter.
TEST(VmJit, RandomizedMirIdentity) {
  if (!vm::jit::available())
    GTEST_SKIP() << "JIT unsupported on this platform";
  Rng R(20260810);
  for (int Trial = 0; Trial < 150; ++Trial) {
    mir::Module M = test::moduleWith(test::randomFunction(R));
    instr::ShadowEdgeIndex Shadow = instr::ShadowEdgeIndex::build(M);
    instr::InstrumentOptions IO;
    IO.Mode = Trial % 2 ? instr::Feedback::Path : instr::Feedback::EdgePrecise;
    IO.Seed = R.below(1u << 30);
    instr::InstrumentReport Rep = instr::instrumentModule(M, IO);
    vm::ProgramImage Image = vm::ProgramImage::build(M, &Shadow);
    std::unique_ptr<vm::jit::JitProgram> J =
        vm::jit::JitProgram::compile(Image);
    ASSERT_NE(J, nullptr);

    std::vector<fuzz::Input> Inputs;
    for (int K = 0; K < 6; ++K) {
      fuzz::Input In(R.below(12));
      for (uint8_t &B : In)
        B = static_cast<uint8_t>(R.below(256));
      Inputs.push_back(std::move(In));
    }
    std::string What = "random trial " + std::to_string(Trial);
    expectJitIdentity(M, &Shadow, Image, *J, Inputs, Rep.FuncKeys.data(),
                      What.c_str());
  }
}

/// Step budgets: sweep the limit across a loop subject's exact natural
/// step count. The JIT keeps the budget in a countdown register, so the
/// trip boundary (Steps = StepLimit + 1, fault coordinates at the
/// *un-advanced* PC) is where an off-by-one would hide.
TEST(VmJit, StepLimitSweepIdentity) {
  if (!vm::jit::available())
    GTEST_SKIP() << "JIT unsupported on this platform";
  lang::CompileResult CR = lang::compileSource(R"ml(
fn work(n) {
  var s = 0;
  var i = 0;
  while (i < n) {
    s = s + i * 3;
    i = i + 1;
  }
  return s;
}

fn main() {
  return work(40 + len());
}
)ml",
                                               "steps");
  ASSERT_TRUE(CR.ok()) << CR.message();
  mir::Module M = std::move(*CR.Mod);
  vm::ProgramImage Image = vm::ProgramImage::build(M, nullptr);
  std::unique_ptr<vm::jit::JitProgram> J = vm::jit::JitProgram::compile(Image);
  ASSERT_NE(J, nullptr);
  vm::Vm Interp(M);
  vm::Vm Jit(M);
  Jit.attachJit(J.get());

  // Natural step count of the empty-input run.
  vm::ExecOptions Wide;
  uint64_t Natural = Interp.run(nullptr, 0, Wide, nullptr).Steps;
  ASSERT_GT(Natural, 10u);

  for (uint64_t Limit :
       {uint64_t(1), uint64_t(2), uint64_t(3), Natural - 2, Natural - 1,
        Natural, Natural + 1, Natural + 100}) {
    vm::ExecOptions EO;
    EO.StepLimit = Limit;
    vm::ExecResult RI = Interp.run(nullptr, 0, EO, nullptr);
    vm::ExecResult RJ = Jit.run(nullptr, 0, EO, nullptr);
    std::string What = "step limit " + std::to_string(Limit);
    expectSameResult(RI, RJ, What.c_str());
    EXPECT_EQ(RJ.hung(), Limit < Natural) << What;
    if (RJ.hung()) {
      EXPECT_EQ(RJ.Steps, Limit + 1) << What;
    }
  }
  EXPECT_GT(Jit.jitRunStats().Bailouts, 0u);
}

/// The shadow-edge bitset across word boundaries. Every paper subject fits
/// in two 64-bit words, so a generated branch ladder with several hundred
/// edges pins the drain's word arithmetic: interpreter, fast path and JIT
/// must return equal, strictly ascending edge lists that reach past ids 63
/// and 64 to numEdges() - 1, and a second run into the same reused result
/// must carry no stale bits or entries from the first.
TEST(VmJit, ShadowEdgeBitsetCrossesWordBoundaries) {
  if (!vm::jit::available())
    GTEST_SKIP() << "JIT unsupported on this platform";
  constexpr int Rungs = 120;
  std::string Src = "fn main() {\n  var x = 0;\n  var i = 0;\n"
                    "  while (i < len()) {\n    var c = in(i);\n";
  for (int K = 0; K < Rungs; ++K)
    Src += "    if (c == " + std::to_string(K) + ") { x = x + " +
           std::to_string(K % 7 + 1) + "; }\n";
  Src += "    i = i + 1;\n  }\n  return x;\n}\n";
  lang::CompileResult CR = lang::compileSource(Src, "ladder");
  ASSERT_TRUE(CR.ok()) << CR.message();
  mir::Module M = std::move(*CR.Mod);
  instr::ShadowEdgeIndex Shadow = instr::ShadowEdgeIndex::build(M);
  ASSERT_GT(Shadow.numEdges(), 200u);
  instr::InstrumentOptions IO;
  IO.Mode = instr::Feedback::Path;
  instr::instrumentModule(M, IO);
  vm::ProgramImage Image = vm::ProgramImage::build(M, &Shadow);
  std::unique_ptr<vm::jit::JitProgram> J = vm::jit::JitProgram::compile(Image);
  ASSERT_NE(J, nullptr);

  vm::Vm Interp(M, &Shadow), Fast(M, &Shadow), Jit(M, &Shadow);
  Fast.attachImage(&Image);
  Jit.attachJit(J.get());
  vm::Vm *Engines[] = {&Interp, &Fast, &Jit};
  const char *Names[] = {"interp", "fastpath", "jit"};
  vm::ExecResult Out[3];
  vm::ExecOptions EO;

  // Every rung value once, then a miss: both slots of every branch.
  fuzz::Input All;
  for (int K = 0; K <= Rungs; ++K)
    All.push_back(static_cast<uint8_t>(K));
  for (int E = 0; E < 3; ++E)
    Engines[E]->run(All.data(), All.size(), EO, nullptr, Out[E]);
  const std::vector<uint32_t> &Edges = Out[0].ShadowEdges;
  for (size_t K = 1; K < Edges.size(); ++K)
    ASSERT_LT(Edges[K - 1], Edges[K]) << "not strictly ascending at " << K;
  for (uint32_t Id : {63u, 64u, Shadow.numEdges() - 1})
    EXPECT_TRUE(std::binary_search(Edges.begin(), Edges.end(), Id))
        << "edge " << Id << " missing";
  for (int E = 1; E < 3; ++E)
    EXPECT_EQ(Out[E].ShadowEdges, Edges) << Names[E];

  // A short input into the same results: exactly what a fresh Vm reports.
  const fuzz::Input Short = {5};
  vm::Vm Fresh(M, &Shadow);
  const vm::ExecResult Want = Fresh.run(Short.data(), Short.size(), EO);
  ASSERT_LT(Want.ShadowEdges.size(), Edges.size());
  for (int E = 0; E < 3; ++E) {
    Engines[E]->run(Short.data(), Short.size(), EO, nullptr, Out[E]);
    expectSameResult(Want, Out[E], Names[E]);
  }
}

/// The per-exec capacity guard: options whose worst-case register-stack
/// reservation would be absurd must route the execution to the fast path
/// transparently — same results, Fallbacks accounted.
TEST(VmJit, CapacityGuardFallsBackIdentically) {
  if (!vm::jit::available())
    GTEST_SKIP() << "JIT unsupported on this platform";
  std::vector<Subject> Examples = exampleSubjects();
  const Subject &S = Examples[3]; // tokens: calls + globals
  lang::CompileResult CR = lang::compileSource(S.Source, S.Name);
  ASSERT_TRUE(CR.ok()) << CR.message();
  mir::Module M = std::move(*CR.Mod);
  vm::ProgramImage Image = vm::ProgramImage::build(M, nullptr);
  std::unique_ptr<vm::jit::JitProgram> J = vm::jit::JitProgram::compile(Image);
  ASSERT_NE(J, nullptr);
  vm::Vm Interp(M);
  vm::Vm Jit(M);
  Jit.attachJit(J.get());

  vm::ExecOptions EO;
  EO.MaxCallDepth = (1u << 20) + 1; // trips the guard
  const fuzz::Input &In = S.Seeds[0];
  vm::ExecResult RI = Interp.run(In.data(), In.size(), EO, nullptr);
  vm::ExecResult RJ = Jit.run(In.data(), In.size(), EO, nullptr);
  expectSameResult(RI, RJ, "capacity fallback");
  EXPECT_EQ(Jit.jitRunStats().Execs, 0u);
  EXPECT_EQ(Jit.jitRunStats().Fallbacks, 1u);

  // Sane options go back to compiled code on the same Vm.
  vm::ExecOptions Sane;
  vm::ExecResult RJ2 = Jit.run(In.data(), In.size(), Sane, nullptr);
  vm::ExecResult RI2 = Interp.run(In.data(), In.size(), Sane, nullptr);
  expectSameResult(RI2, RJ2, "post-fallback run");
  EXPECT_EQ(Jit.jitRunStats().Execs, 1u);
}

/// Whole campaigns on all 18 paper subjects under one feedback mode:
/// byte-identical findings under interpreter and JIT engines. Split per
/// kind so the four feedback modes (pcguard = precise edges, path =
/// Ball-Larus paths, afl = classic edges, pathafl = classic + call-path
/// assist) each get their own timeout budget.
void expectAllSubjectsCampaignIdentity(FuzzerKind Kind) {
  if (!vm::jit::available())
    GTEST_SKIP() << "JIT unsupported on this platform";
  for (const Subject &S : targets::allSubjects()) {
    CampaignOptions Interp;
    Interp.Kind = Kind;
    Interp.ExecBudget = 700;
    Interp.Seed = 29;
    Interp.VmMode = vm::VmExecMode::Interpreter;
    CampaignOptions Jit = Interp;
    Jit.VmMode = vm::VmExecMode::Jit;

    CampaignResult RI = runCampaign(S, Interp);
    CampaignResult RJ = runCampaign(S, Jit);
    EXPECT_EQ(serializeCampaignResult(RI), serializeCampaignResult(RJ))
        << fuzzerKindName(Kind) << "/" << S.Name;
  }
}

TEST(VmJit, AllSubjectsCampaignIdentityPcguard) {
  expectAllSubjectsCampaignIdentity(FuzzerKind::Pcguard);
}
TEST(VmJit, AllSubjectsCampaignIdentityPath) {
  expectAllSubjectsCampaignIdentity(FuzzerKind::Path);
}
TEST(VmJit, AllSubjectsCampaignIdentityAfl) {
  expectAllSubjectsCampaignIdentity(FuzzerKind::Afl);
}
TEST(VmJit, AllSubjectsCampaignIdentityPathAfl) {
  expectAllSubjectsCampaignIdentity(FuzzerKind::PathAfl);
}

/// Strip the engine-local metric families; the shared definition in
/// telemetry::isEngineLocalMetric is the only permitted trace divergence
/// between engines.
template <typename MapT> MapT withoutEngineLocalFamilies(const MapT &In) {
  MapT Out;
  for (const auto &KV : In)
    if (!telemetry::isEngineLocalMetric(KV.first))
      Out.insert(KV);
  return Out;
}

/// Traced campaigns: byte-identical findings, identical observable
/// telemetry, and the vm.jit.* family present exactly on the JIT side.
TEST(VmJit, CampaignTelemetryIdentity) {
  if (!vm::jit::available())
    GTEST_SKIP() << "JIT unsupported on this platform";
  std::vector<Subject> Examples = exampleSubjects();
  const Subject &S = Examples[3]; // tokens: globals + calls + branches
  for (FuzzerKind Kind : {FuzzerKind::Path, FuzzerKind::Pcguard}) {
    CampaignOptions Interp;
    Interp.Kind = Kind;
    Interp.ExecBudget = 4000;
    Interp.Seed = 11;
    Interp.Trace.Enabled = true;
    Interp.Trace.SampleInterval = 512;
    Interp.VmMode = vm::VmExecMode::Interpreter;
    CampaignOptions Jit = Interp;
    Jit.VmMode = vm::VmExecMode::Jit;

    CampaignResult RI = runCampaign(S, Interp);
    CampaignResult RJ = runCampaign(S, Jit);
    EXPECT_EQ(serializeCampaignResult(RI), serializeCampaignResult(RJ))
        << fuzzerKindName(Kind);

    ASSERT_NE(RI.Trace, nullptr);
    ASSERT_NE(RJ.Trace, nullptr);
    ASSERT_EQ(RI.Trace->Instances.size(), RJ.Trace->Instances.size());
    for (size_t K = 0; K < RI.Trace->Instances.size(); ++K) {
      const telemetry::InstanceRecord &A = RI.Trace->Instances[K];
      const telemetry::InstanceRecord &B = RJ.Trace->Instances[K];
      EXPECT_EQ(A.Label, B.Label);
      EXPECT_EQ(A.ExecOffset, B.ExecOffset);
      EXPECT_EQ(A.Samples, B.Samples);
      EXPECT_EQ(A.EventsRecorded, B.EventsRecorded);
      EXPECT_EQ(withoutEngineLocalFamilies(A.Metrics.counters()),
                withoutEngineLocalFamilies(B.Metrics.counters()));
      EXPECT_EQ(withoutEngineLocalFamilies(A.Metrics.gauges()),
                withoutEngineLocalFamilies(B.Metrics.gauges()));
      EXPECT_TRUE(telemetry::sameObservableMetrics(A.Metrics, B.Metrics));
      // The JIT campaign must actually carry the family, with at least
      // every counted execution served by compiled code (queue replays
      // run extra JIT executions on top of the budgeted ones, so >=
      // rather than ==)...
      ASSERT_TRUE(B.Metrics.counters().count("vm.jit.execs"));
      EXPECT_GE(B.Metrics.counters().at("vm.jit.execs"),
                B.Metrics.counters().at("execs"));
      EXPECT_TRUE(B.Metrics.counters().count("vm.jit.bailouts"));
      ASSERT_TRUE(B.Metrics.gauges().count("vm.jit.compiled"));
      EXPECT_GT(B.Metrics.gauges().at("vm.jit.compiled"), 0);
      ASSERT_TRUE(B.Metrics.gauges().count("vm.jit.bytes"));
      EXPECT_GT(B.Metrics.gauges().at("vm.jit.bytes"), 0);
      // ...and the interpreter campaign must not.
      EXPECT_FALSE(A.Metrics.counters().count("vm.jit.execs"));
      EXPECT_FALSE(A.Metrics.gauges().count("vm.jit.compiled"));
    }
  }
}

/// Checkpoint/resume with the engine switched between runs: VmMode is
/// excluded from the checkpoint fingerprint, so a campaign checkpointed
/// under one engine resumes under the other — to results byte-identical
/// to an uninterrupted run.
TEST(VmJit, CheckpointResumeAcrossEngines) {
  if (!vm::jit::available())
    GTEST_SKIP() << "JIT unsupported on this platform";
  std::vector<Subject> Examples = exampleSubjects();
  const Subject &S = Examples[3];

  CampaignOptions Base;
  Base.Kind = FuzzerKind::Path;
  Base.ExecBudget = 4000;
  Base.Seed = 13;

  CampaignOptions InterpOpts = Base;
  InterpOpts.VmMode = vm::VmExecMode::Interpreter;
  CampaignOptions JitOpts = Base;
  JitOpts.VmMode = vm::VmExecMode::Jit;

  // The uninterrupted reference (interpreter; the identity tests above
  // already pin that a JIT run of the same options matches it).
  std::vector<uint8_t> Want =
      serializeCampaignResult(runCampaign(S, InterpOpts));

  for (int Dir = 0; Dir < 2; ++Dir) {
    // Checkpoint under one engine...
    CampaignOptions CkptOpts = Dir == 0 ? InterpOpts : JitOpts;
    CkptOpts.CheckpointInterval = 900;
    std::vector<std::vector<uint8_t>> Checkpoints;
    CkptOpts.CheckpointSink = [&Checkpoints](const std::vector<uint8_t> &B) {
      Checkpoints.push_back(B);
    };
    EXPECT_EQ(serializeCampaignResult(runCampaign(S, CkptOpts)), Want);
    ASSERT_GE(Checkpoints.size(), 2u);

    // ...resume a mid-campaign one under the other engine.
    const CampaignOptions &ResumeOpts = Dir == 0 ? JitOpts : InterpOpts;
    CampaignError Err;
    CampaignResult Resumed = resumeCampaign(
        S, ResumeOpts, Checkpoints[Checkpoints.size() / 2], &Err);
    EXPECT_FALSE(Err.Failed) << Err.Message;
    EXPECT_EQ(serializeCampaignResult(Resumed), Want)
        << "resume direction " << Dir;
  }
}

/// The engine-selection knob: VmMode::Jit forces compiled execution where
/// available, Auto follows PATHFUZZ_VM_JIT (default on) and stays nested
/// under the fast-path knob.
TEST(VmJit, ModeResolution) {
  EXPECT_FALSE(vm::jitEnabled(vm::VmExecMode::Interpreter));
  EXPECT_FALSE(vm::jitEnabled(vm::VmExecMode::FastPath));
  // Jit implies the fast path (the image supplies fault coordinates and
  // snapshot-reset state).
  EXPECT_TRUE(vm::fastPathEnabled(vm::VmExecMode::Jit));
  EXPECT_EQ(vm::jitEnabled(vm::VmExecMode::Jit), vm::jit::available());

  unsetenv("PATHFUZZ_VM_FASTPATH");
  unsetenv("PATHFUZZ_VM_JIT");
  EXPECT_EQ(vm::jitEnabled(vm::VmExecMode::Auto), vm::jit::available());
  setenv("PATHFUZZ_VM_JIT", "0", 1);
  EXPECT_FALSE(vm::jitEnabled(vm::VmExecMode::Auto));
  setenv("PATHFUZZ_VM_JIT", "1", 1);
  EXPECT_EQ(vm::jitEnabled(vm::VmExecMode::Auto), vm::jit::available());
  // The JIT rides on the fast path: disabling the fast path disables it.
  setenv("PATHFUZZ_VM_FASTPATH", "0", 1);
  EXPECT_FALSE(vm::jitEnabled(vm::VmExecMode::Auto));
  unsetenv("PATHFUZZ_VM_FASTPATH");
  unsetenv("PATHFUZZ_VM_JIT");
}

/// BuildCache accounting: one native compile per (subject, feedback)
/// slot, later JIT requests count as hits, and non-JIT campaigns leave
/// the slot uncompiled.
TEST(VmJit, BuildCacheCompileOncePerSlot) {
  if (!vm::jit::available())
    GTEST_SKIP() << "JIT unsupported on this platform";
  std::vector<Subject> Examples = exampleSubjects();
  BuildCache Cache;
  std::shared_ptr<SubjectBuild> SB = Cache.get(Examples[0]);

  CampaignOptions FastO;
  FastO.VmMode = vm::VmExecMode::FastPath;
  const InstrumentedBuild &FB =
      SB->instrumented(instr::Feedback::Path, FastO);
  EXPECT_EQ(FB.Jit, nullptr); // fast-path campaigns don't compile
  EXPECT_EQ(Cache.programsJitted(), 0u);

  CampaignOptions JitO;
  JitO.VmMode = vm::VmExecMode::Jit;
  const InstrumentedBuild &JB = SB->instrumented(instr::Feedback::Path, JitO);
  ASSERT_NE(JB.Jit, nullptr); // added to the slot the fast path built
  EXPECT_EQ(Cache.programsJitted(), 1u);
  EXPECT_EQ(Cache.jitCacheHits(), 0u);

  SB->instrumented(instr::Feedback::Path, JitO);
  EXPECT_EQ(Cache.programsJitted(), 1u);
  EXPECT_EQ(Cache.jitCacheHits(), 1u);

  // A different feedback mode is a different slot: fresh compile.
  SB->instrumented(instr::Feedback::EdgePrecise, JitO);
  EXPECT_EQ(Cache.programsJitted(), 2u);
}

} // namespace
