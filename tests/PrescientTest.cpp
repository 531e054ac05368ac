//===- PrescientTest.cpp - Interprocedural reachability + prescient -----------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// The interprocedural analysis layer and the prescient config built on it:
//
//  - CallGraph structure: direct edges, SCC condensation in bottom-up
//    order, exclusion of calls sitting in CFG-unreachable blocks.
//  - ReachabilitySummary: shadow-edge endpoint tables agree with
//    instr::ShadowEdgeIndex's numbering; blockReach equals an independent
//    BFS closure over the interprocedural super graph (a different
//    algorithm than the dataflow + SCC propagation that built it).
//  - The soundness oracle: dynamic coverage ⊆ static reachability —
//    every shadow edge any campaign execution covers has both endpoints
//    in entryReach(). Randomized over campaign seeds.
//  - The prescient config end to end: deterministic, checkpoint/resume
//    byte-identical, fingerprint round-trip, summaries cached per
//    subject in the build cache.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/Reachability.h"

#include "instrument/ShadowEdges.h"
#include "lang/Compile.h"
#include "strategy/BuildCache.h"
#include "strategy/Campaign.h"
#include "support/Rng.h"
#include "targets/Targets.h"

#include <gtest/gtest.h>

#include <deque>

using namespace pathfuzz;
using namespace pathfuzz::analysis;
using namespace pathfuzz::strategy;

namespace {

mir::Module compile(const char *Source) {
  lang::CompileResult CR = lang::compileSource(Source, "prescient-test");
  EXPECT_TRUE(CR.ok()) << CR.message();
  return std::move(*CR.Mod);
}

/// Independent oracle for blockReach: plain BFS closure over the
/// super-graph successor lists.
BitVec bfsClosure(const ReachabilitySummary &S, uint32_t Start) {
  BitVec Seen(S.numBlocks());
  Seen.set(Start);
  std::deque<uint32_t> Work{Start};
  while (!Work.empty()) {
    uint32_t B = Work.front();
    Work.pop_front();
    for (uint32_t Succ : S.superSuccs(B))
      if (!Seen.test(Succ)) {
        Seen.set(Succ);
        Work.push_back(Succ);
      }
  }
  return Seen;
}

TEST(CallGraph, DirectEdgesAndScc) {
  mir::Module M = compile(R"ml(
fn b(x) {
  if (x > 3) {
    return a(x - 1);
  }
  return x;
}
fn a(x) {
  return b(x) + c(x);
}
fn c(x) {
  return x + 1;
}
fn main() {
  return a(len());
}
)ml");
  CallGraph CG = CallGraph::build(M);
  ASSERT_EQ(CG.numFuncs(), 4u);
  uint32_t B = 0, A = 1, C = 2, Main = 3;
  ASSERT_EQ(M.Funcs[B].Name, "b");
  ASSERT_EQ(M.Funcs[Main].Name, "main");

  EXPECT_EQ(CG.callees(Main), (std::vector<uint32_t>{A}));
  EXPECT_EQ(CG.callees(A), (std::vector<uint32_t>{B, C}));
  EXPECT_EQ(CG.callees(B), (std::vector<uint32_t>{A}));
  EXPECT_TRUE(CG.callees(C).empty());
  EXPECT_EQ(CG.callers(A), (std::vector<uint32_t>{B, Main}));

  // a <-> b is one recursive SCC; c and main are singletons.
  EXPECT_EQ(CG.sccOf(A), CG.sccOf(B));
  EXPECT_NE(CG.sccOf(A), CG.sccOf(C));
  EXPECT_NE(CG.sccOf(A), CG.sccOf(Main));
  EXPECT_TRUE(CG.isRecursive(CG.sccOf(A)));
  EXPECT_FALSE(CG.isRecursive(CG.sccOf(C)));
  EXPECT_FALSE(CG.isRecursive(CG.sccOf(Main)));
  EXPECT_EQ(CG.sccMembers(CG.sccOf(A)), (std::vector<uint32_t>{B, A}));

  std::vector<bool> FromMain = CG.reachableFrom(Main);
  EXPECT_TRUE(FromMain[A] && FromMain[B] && FromMain[C] && FromMain[Main]);
  std::vector<bool> FromC = CG.reachableFrom(C);
  EXPECT_TRUE(FromC[C]);
  EXPECT_FALSE(FromC[A] || FromC[B] || FromC[Main]);
}

TEST(CallGraph, SelfRecursionMarksSingletonSccRecursive) {
  mir::Module M = compile(R"ml(
fn f(x) {
  if (x > 0) {
    return f(x - 1);
  }
  return 0;
}
fn main() {
  return f(len());
}
)ml");
  CallGraph CG = CallGraph::build(M);
  uint32_t F = 0;
  ASSERT_EQ(M.Funcs[F].Name, "f");
  ASSERT_EQ(CG.sccMembers(CG.sccOf(F)).size(), 1u);
  EXPECT_TRUE(CG.isRecursive(CG.sccOf(F)));
}

TEST(CallGraph, IgnoresCallsInUnreachableBlocks) {
  mir::Module M = compile(R"ml(
fn helper() {
  return 1;
}
fn main() {
  return 0;
  return helper();
}
)ml");
  CallGraph CG = CallGraph::build(M);
  uint32_t Helper = 0, Main = 1;
  ASSERT_EQ(M.Funcs[Main].Name, "main");
  // The only call to helper is behind main's return: no call edge.
  EXPECT_TRUE(CG.callees(Main).empty());
  EXPECT_TRUE(CG.callers(Helper).empty());
  EXPECT_FALSE(CG.reachableFrom(Main)[Helper]);
}

TEST(CallGraph, SccOrderIsBottomUpOnAllSubjects) {
  for (const Subject &S : targets::allSubjects()) {
    SubjectBuild SB(S);
    ASSERT_TRUE(SB.ok()) << S.Name;
    CallGraph CG = CallGraph::build(SB.base());
    for (uint32_t F = 0; F < CG.numFuncs(); ++F)
      for (uint32_t Callee : CG.callees(F))
        if (CG.sccOf(Callee) != CG.sccOf(F)) {
          EXPECT_LT(CG.sccOf(Callee), CG.sccOf(F))
              << S.Name << ": cross-SCC edge not bottom-up";
        }
    // Every function belongs to exactly one SCC.
    std::vector<uint32_t> Seen(CG.numFuncs(), 0);
    for (uint32_t Scc = 0; Scc < CG.numSccs(); ++Scc)
      for (uint32_t F : CG.sccMembers(Scc)) {
        EXPECT_EQ(CG.sccOf(F), Scc);
        ++Seen[F];
      }
    for (uint32_t F = 0; F < CG.numFuncs(); ++F)
      EXPECT_EQ(Seen[F], 1u) << S.Name;
  }
}

TEST(Reachability, EdgeTablesMatchShadowEdgeIndex) {
  for (const Subject &S : targets::allSubjects()) {
    SubjectBuild SB(S);
    ASSERT_TRUE(SB.ok()) << S.Name;
    const mir::Module &M = SB.base();
    ReachabilitySummary RS = ReachabilitySummary::build(M);
    const instr::ShadowEdgeIndex &Shadow = SB.shadow();
    ASSERT_EQ(RS.numEdges(), Shadow.numEdges()) << S.Name;

    uint32_t Expected = 0;
    for (uint32_t F = 0; F < M.Funcs.size(); ++F)
      for (uint32_t B = 0; B < M.Funcs[F].Blocks.size(); ++B) {
        const mir::Terminator &T = M.Funcs[F].Blocks[B].Term;
        for (uint32_t Slot = 0; Slot < T.Succs.size(); ++Slot) {
          uint32_t Id = Shadow.edgeId(F, B, Slot);
          ASSERT_EQ(Id, Expected) << S.Name;
          EXPECT_EQ(RS.edgeSrc()[Id], RS.blockId(F, B)) << S.Name;
          EXPECT_EQ(RS.edgeDst()[Id], RS.blockId(F, T.Succs[Slot]))
              << S.Name;
          ++Expected;
        }
      }
    EXPECT_EQ(Expected, RS.numEdges()) << S.Name;
  }
}

TEST(Reachability, BlockReachEqualsSuperGraphBfsClosure) {
  // The summary is computed by per-function dataflow + bottom-up SCC
  // propagation; a direct BFS over the super graph must produce exactly
  // the same closure for every block, including recursive call cycles.
  for (const Subject &S : targets::allSubjects()) {
    SubjectBuild SB(S);
    ASSERT_TRUE(SB.ok()) << S.Name;
    ReachabilitySummary RS = ReachabilitySummary::build(SB.base());
    for (uint32_t Gid = 0; Gid < RS.numBlocks(); ++Gid) {
      BitVec Oracle = bfsClosure(RS, Gid);
      EXPECT_TRUE(RS.blockReach(Gid) == Oracle)
          << S.Name << " gid " << Gid;
      EXPECT_EQ(RS.reachCount(Gid), Oracle.count())
          << S.Name << " gid " << Gid;
    }
  }
}

TEST(Reachability, FrontierScoreOnBranch) {
  mir::Module M = compile(R"ml(
fn main() {
  if (len() > 0) {
    return 1;
  }
  return 0;
}
)ml");
  ReachabilitySummary RS = ReachabilitySummary::build(M);
  ASSERT_EQ(RS.numEdges(), 2u);

  // One branch edge covered: the seed's frontier is the other branch's
  // target block — exactly one reachable-but-uncovered block.
  std::vector<uint8_t> OneCovered = {1, 0};
  EXPECT_EQ(RS.frontierScore({0}, OneCovered), 1u);

  // Everything covered: no frontier left.
  std::vector<uint8_t> AllCovered = {1, 1};
  EXPECT_EQ(RS.frontierScore({0, 1}, AllCovered), 0u);

  // A seed with no recorded edges has no frontier.
  EXPECT_EQ(RS.frontierScore({}, OneCovered), 0u);

  // Out-of-range edge ids (defensive) are ignored, not crashed on.
  std::vector<uint32_t> Bogus = {0, 999};
  EXPECT_EQ(RS.frontierScore(Bogus, OneCovered), 1u);
}

TEST(Reachability, DynamicCoverageIsSubsetOfStaticReachability) {
  // The soundness oracle: run randomized campaigns on every subject and
  // assert every covered shadow edge's endpoints are statically reachable
  // from main. Over-approximation is allowed; a single missing block is a
  // soundness bug in the summary.
  Rng SeedRng(0x5eed5eed);
  BuildCache Cache;
  for (const Subject &S : targets::allSubjects()) {
    std::shared_ptr<SubjectBuild> SB = Cache.get(S);
    ASSERT_TRUE(SB->ok()) << S.Name;
    std::shared_ptr<const ReachabilitySummary> RS = SB->reachability();
    ASSERT_TRUE(RS->hasEntry()) << S.Name;
    const BitVec &Reach = RS->entryReach();

    CampaignOptions O;
    O.Kind = FuzzerKind::Pcguard;
    O.ExecBudget = 1500;
    O.Seed = SeedRng.next() | 1; // randomized: any seed must satisfy this
    CampaignResult R = runCampaign(*SB, O);
    EXPECT_GE(R.Execs, O.ExecBudget) << S.Name;
    EXPECT_FALSE(R.EdgeSet.empty()) << S.Name;
    for (uint32_t E : R.EdgeSet) {
      ASSERT_LT(E, RS->numEdges()) << S.Name;
      EXPECT_TRUE(Reach.test(RS->edgeSrc()[E]))
          << S.Name << ": covered edge " << E
          << " starts in a statically unreachable block";
      EXPECT_TRUE(Reach.test(RS->edgeDst()[E]))
          << S.Name << ": covered edge " << E
          << " ends in a statically unreachable block";
    }
  }
}

TEST(Prescient, CampaignIsDeterministic) {
  const std::vector<Subject> &Subjects = targets::allSubjects();
  for (size_t I = 0; I < 3 && I < Subjects.size(); ++I) {
    CampaignOptions O;
    O.Kind = FuzzerKind::Prescient;
    O.ExecBudget = 4000;
    O.Seed = 11 + I;
    CampaignResult R1 = runCampaign(Subjects[I], O);
    CampaignResult R2 = runCampaign(Subjects[I], O);
    EXPECT_EQ(R1.Kind, FuzzerKind::Prescient);
    EXPECT_GE(R1.Execs, O.ExecBudget);
    EXPECT_EQ(serializeCampaignResult(R1), serializeCampaignResult(R2))
        << Subjects[I].Name;

    // Round-trips through the canonical serialization, kind included.
    CampaignResult Back;
    ASSERT_TRUE(deserializeCampaignResult(serializeCampaignResult(R1), Back));
    EXPECT_EQ(Back.Kind, FuzzerKind::Prescient);
  }
}

TEST(Prescient, CheckpointResumeIsByteIdentical) {
  // The queue-weight state needs nothing new in snapshots: the frontier
  // score is derived from restored state (EdgeSet + covered-edge bitmap)
  // and the driver re-installs the hook. Resume from every checkpoint and
  // demand byte-identity with the uninterrupted run.
  const Subject &S = targets::allSubjects()[1];
  CampaignOptions O;
  O.Kind = FuzzerKind::Prescient;
  O.ExecBudget = 6000;
  O.Seed = 77;

  CampaignResult Ref = runCampaign(S, O);
  std::vector<uint8_t> RefBytes = serializeCampaignResult(Ref);

  std::vector<std::vector<uint8_t>> Checkpoints;
  CampaignOptions OC = O;
  OC.CheckpointInterval = 1000;
  OC.CheckpointSink = [&](const std::vector<uint8_t> &Blob) {
    Checkpoints.push_back(Blob);
  };
  CampaignResult WithCkpt = runCampaign(S, OC);
  EXPECT_EQ(serializeCampaignResult(WithCkpt), RefBytes)
      << "checkpointing must not perturb the campaign";
  ASSERT_GE(Checkpoints.size(), 3u);

  for (size_t I = 0; I < Checkpoints.size(); I += 2) {
    CampaignError Err;
    CampaignResult Resumed = resumeCampaign(S, O, Checkpoints[I], &Err);
    ASSERT_FALSE(Err.Failed) << Err.Message;
    EXPECT_EQ(serializeCampaignResult(Resumed), RefBytes)
        << "resume from checkpoint " << I << " diverged";
  }
}

TEST(Prescient, OptionsFingerprintRoundTrip) {
  CampaignOptions O;
  O.Kind = FuzzerKind::Prescient;
  O.ExecBudget = 1234;
  O.Seed = 99;
  ByteWriter W;
  writeOptionsFingerprint(W, O);
  std::vector<uint8_t> Bytes = W.take();

  ByteReader Rd(Bytes);
  CampaignOptions Back;
  ASSERT_TRUE(readOptionsFingerprint(Rd, Back));
  EXPECT_EQ(Back.Kind, FuzzerKind::Prescient);
  EXPECT_EQ(Back.ExecBudget, 1234u);

  // A kind byte past the last config must be refused, not cast blindly.
  std::vector<uint8_t> Bad = Bytes;
  Bad[1] = static_cast<uint8_t>(FuzzerKind::Prescient) + 1;
  ByteReader RdBad(Bad);
  CampaignOptions B2;
  EXPECT_FALSE(readOptionsFingerprint(RdBad, B2));

  // Likewise a map size outside the [4, 24] range CoverageMap accepts: a
  // resumed campaign would shift by it.
  for (uint32_t Log2 : {0u, 3u, 25u, 32u, 0xffffffffu}) {
    CampaignOptions Huge = O;
    Huge.MapSizeLog2 = Log2;
    ByteWriter WH;
    writeOptionsFingerprint(WH, Huge);
    std::vector<uint8_t> HugeBytes = WH.take();
    ByteReader RdHuge(HugeBytes);
    CampaignOptions B3;
    EXPECT_FALSE(readOptionsFingerprint(RdHuge, B3)) << "log2 " << Log2;
  }
}

TEST(Prescient, BuildCacheSharesOneSummaryPerSubject) {
  const Subject &S = targets::allSubjects()[0];
  BuildCache Cache;
  std::shared_ptr<SubjectBuild> SB = Cache.get(S);
  ASSERT_TRUE(SB->ok());

  std::shared_ptr<const ReachabilitySummary> R1 = SB->reachability();
  std::shared_ptr<const ReachabilitySummary> R2 = SB->reachability();
  EXPECT_EQ(R1.get(), R2.get()) << "summary must be shared, not rebuilt";
  EXPECT_EQ(SB->reachabilityBuilds(), 1u);
  EXPECT_EQ(SB->reachabilityHits(), 1u);
  EXPECT_EQ(Cache.reachabilitySummaries(), 1u);
  EXPECT_EQ(Cache.reachabilityCacheHits(), 1u);

  // Two prescient trials on the shared build: still one summary.
  CampaignOptions O;
  O.Kind = FuzzerKind::Prescient;
  O.ExecBudget = 800;
  for (uint64_t Seed = 1; Seed <= 2; ++Seed) {
    O.Seed = Seed;
    runCampaign(*SB, O);
  }
  EXPECT_EQ(SB->reachabilityBuilds(), 1u);
  EXPECT_GE(SB->reachabilityHits(), 3u);
}

TEST(Prescient, ExistingConfigsUntouchedByHookPlumbing) {
  // The weight hook is null for every non-prescient kind; a pcguard
  // campaign must not consult the reachability cache at all.
  const Subject &S = targets::allSubjects()[0];
  BuildCache Cache;
  std::shared_ptr<SubjectBuild> SB = Cache.get(S);
  ASSERT_TRUE(SB->ok());
  CampaignOptions O;
  O.Kind = FuzzerKind::Pcguard;
  O.ExecBudget = 800;
  O.Seed = 5;
  runCampaign(*SB, O);
  EXPECT_EQ(SB->reachabilityBuilds(), 0u);
  EXPECT_EQ(SB->reachabilityHits(), 0u);
}

} // namespace
