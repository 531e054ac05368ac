//===- StrategyTest.cpp - Campaign drivers --------------------------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "strategy/Batch.h"
#include "strategy/BuildCache.h"
#include "strategy/Campaign.h"
#include "strategy/Evaluation.h"
#include "support/Hashing.h"
#include "targets/Targets.h"

#include <gtest/gtest.h>

using namespace pathfuzz;
using namespace pathfuzz::strategy;

namespace {

Subject smallSubject() {
  Subject S;
  S.Name = "small";
  S.Source = R"ml(
global tab[8];
fn step(k, c) {
  var j;
  if (k % 3 == 0 && k > 4) { j = 2; } else { j = 0; }
  if (c == 'z') {
    tab[k % 7 + j] = 1;  // OOB when k % 7 == 6 and j == 2
  } else {
    tab[j] = 1;
  }
  return j;
}
fn main() {
  var i = 0;
  var k = 0;
  while (i < len()) {
    var c = in(i);
    if (c == '.') { step(k, in(i + 1)); k = 0; } else { k = k + 1; }
    i = i + 1;
  }
  return k;
}
)ml";
  const char *Seed = "abc.z def.x";
  S.Seeds = {fuzz::Input(Seed, Seed + 11)};
  return S;
}

CampaignOptions smallOpts(FuzzerKind Kind, uint64_t Budget = 6000) {
  CampaignOptions Opts;
  Opts.Kind = Kind;
  Opts.ExecBudget = Budget;
  Opts.Seed = 5;
  Opts.CullRounds = 3;
  return Opts;
}

TEST(Campaign, EveryKindRunsToBudget) {
  Subject S = smallSubject();
  for (FuzzerKind Kind :
       {FuzzerKind::Pcguard, FuzzerKind::Path, FuzzerKind::Cull,
        FuzzerKind::CullRandom, FuzzerKind::Opp, FuzzerKind::Afl,
        FuzzerKind::PathAfl}) {
    CampaignResult R = runCampaign(S, smallOpts(Kind));
    EXPECT_GE(R.Execs, 6000u) << fuzzerKindName(Kind);
    EXPECT_GT(R.FinalQueueSize, 0u) << fuzzerKindName(Kind);
    EXPECT_GT(R.edgesCovered(), 0u) << fuzzerKindName(Kind);
    EXPECT_EQ(R.Kind, Kind);
  }
}

TEST(Campaign, Deterministic) {
  Subject S = smallSubject();
  for (FuzzerKind Kind :
       {FuzzerKind::Pcguard, FuzzerKind::Cull, FuzzerKind::Opp}) {
    CampaignResult A = runCampaign(S, smallOpts(Kind));
    CampaignResult B = runCampaign(S, smallOpts(Kind));
    EXPECT_EQ(A.Execs, B.Execs);
    EXPECT_EQ(A.FinalQueueSize, B.FinalQueueSize);
    EXPECT_EQ(A.BugIds, B.BugIds);
    EXPECT_EQ(A.CrashHashes, B.CrashHashes);
    EXPECT_EQ(A.EdgeSet, B.EdgeSet);
  }
}

// Pins campaign results across commits (Campaign.Deterministic and the
// engine-identity tests compare runs within one build). Each digest is
// fnv1a of serializeCampaignResult for one paper subject and feedback mode
// at a fixed seed and budget; any drift in mutation, scheduling, coverage
// or the VM shows here. Re-pin only with an intended re-baseline.
TEST(Campaign, ResultsMatchPinnedDigests) {
  struct Pin {
    const char *Subject;
    FuzzerKind Kind;
    uint64_t Digest;
  };
  const Pin Pins[] = {
      {"jhead", FuzzerKind::Path, 0x5294c215f2703a02ULL},
      {"jhead", FuzzerKind::Pcguard, 0xdec5f90e0591aa7bULL},
      {"infotocap", FuzzerKind::Path, 0x55be1dea23e3d34eULL},
      {"infotocap", FuzzerKind::Pcguard, 0xac140f0cab146c6fULL},
  };
  for (const Pin &P : Pins) {
    const Subject *S = targets::findSubject(P.Subject);
    ASSERT_NE(S, nullptr) << P.Subject;
    CampaignOptions Opts;
    Opts.Kind = P.Kind;
    Opts.ExecBudget = 5000;
    Opts.Seed = 1;
    const std::vector<uint8_t> Blob =
        serializeCampaignResult(runCampaign(*S, Opts));
    EXPECT_EQ(fnv1a(Blob.data(), Blob.size()), P.Digest)
        << P.Subject << "/" << fuzzerKindName(P.Kind);
  }
}

TEST(Campaign, CullChargesCullingCostToBudget) {
  Subject S = smallSubject();
  CampaignResult R = runCampaign(S, smallOpts(FuzzerKind::Cull, 4000));
  // Re-seeding executions are part of the accounted budget: total execs
  // stay close to the nominal budget rather than exceeding it per round.
  EXPECT_LT(R.Execs, 4000u + 2000u);
}

TEST(Campaign, UniqueCrashRecordsMatchHashes) {
  Subject S = smallSubject();
  CampaignResult R = runCampaign(S, smallOpts(FuzzerKind::Pcguard, 20000));
  EXPECT_EQ(R.UniqueCrashes.size(), R.CrashHashes.size());
  for (const fuzz::CrashRecord &C : R.UniqueCrashes) {
    EXPECT_TRUE(R.CrashHashes.count(C.StackHash));
    EXPECT_TRUE(R.BugIds.count(C.BugId));
  }
}

TEST(Evaluation, RunsAndAggregates) {
  Subject S = smallSubject();
  CampaignOptions Base = smallOpts(FuzzerKind::Pcguard, 3000);
  Evaluation E = evaluate({S}, {FuzzerKind::Pcguard, FuzzerKind::Path}, 3,
                          Base);
  ASSERT_EQ(E.SubjectNames.size(), 1u);
  const RunSet &RS = E.at("small", FuzzerKind::Pcguard);
  ASSERT_EQ(RS.Runs.size(), 3u);
  EXPECT_GE(RS.medianQueueSize(), 1.0);
  EXPECT_LT(RS.medianRunIndex(), 3u);
  // Cumulative sets contain every run's findings.
  auto Cum = RS.cumulativeBugs();
  for (const CampaignResult &R : RS.Runs)
    for (uint64_t B : R.BugIds)
      EXPECT_TRUE(Cum.count(B));
}

TEST(Batch, MatchesSerialRunnerAtEveryThreadCount) {
  // The determinism guarantee behind the parallel evaluation: for the
  // same seeds, runCampaigns produces byte-identical per-campaign results
  // to the serial runner at 1, 2 and 4 threads.
  Subject S = smallSubject();
  const std::vector<FuzzerKind> Kinds = {FuzzerKind::Pcguard, FuzzerKind::Path,
                                         FuzzerKind::Cull, FuzzerKind::Opp};
  std::vector<BatchJob> Jobs;
  std::vector<CampaignResult> Serial;
  for (FuzzerKind K : Kinds)
    for (uint32_t Trial = 0; Trial < 2; ++Trial) {
      BatchJob J;
      J.S = &S;
      J.Opts = smallOpts(K, 3000);
      J.Opts.Seed = trialSeed(J.Opts.Seed, K, Trial);
      Jobs.push_back(J);
      Serial.push_back(runCampaign(S, J.Opts));
    }

  for (size_t Threads : {1u, 2u, 4u}) {
    BatchStats BS;
    std::vector<CampaignResult> Got = runCampaigns(Jobs, Threads, &BS);
    ASSERT_EQ(Got.size(), Serial.size());
    for (size_t I = 0; I < Got.size(); ++I) {
      SCOPED_TRACE("job " + std::to_string(I) + " @" +
                   std::to_string(Threads) + " threads");
      EXPECT_EQ(Got[I].Kind, Serial[I].Kind);
      EXPECT_EQ(Got[I].Execs, Serial[I].Execs);
      EXPECT_EQ(Got[I].FinalQueueSize, Serial[I].FinalQueueSize);
      EXPECT_EQ(Got[I].TotalCrashes, Serial[I].TotalCrashes);
      EXPECT_EQ(Got[I].TotalHangs, Serial[I].TotalHangs);
      EXPECT_EQ(Got[I].BugIds, Serial[I].BugIds);
      EXPECT_EQ(Got[I].CrashHashes, Serial[I].CrashHashes);
      EXPECT_EQ(Got[I].HangHashes, Serial[I].HangHashes);
      EXPECT_EQ(Got[I].EdgeSet, Serial[I].EdgeSet);
      EXPECT_EQ(Got[I].QueueGrowth, Serial[I].QueueGrowth);
    }
    // The shared build cache compiled the one subject exactly once and
    // instrumented it once per feedback mode ({EdgePrecise, Path} here).
    EXPECT_EQ(BS.SubjectsCompiled, 1u);
    EXPECT_EQ(BS.ModulesInstrumented, 2u);
    EXPECT_EQ(BS.Threads, Threads);
  }
}

TEST(Batch, SharedBuildIsReusableAcrossCampaigns) {
  Subject S = smallSubject();
  SubjectBuild B(S);
  CampaignOptions Opts = smallOpts(FuzzerKind::Path, 2000);
  CampaignResult FromShared = runCampaign(B, Opts);
  CampaignResult FromShared2 = runCampaign(B, Opts);
  CampaignResult Fresh = runCampaign(S, Opts);
  EXPECT_EQ(FromShared.Execs, Fresh.Execs);
  EXPECT_EQ(FromShared.BugIds, Fresh.BugIds);
  EXPECT_EQ(FromShared.EdgeSet, Fresh.EdgeSet);
  EXPECT_EQ(FromShared2.FinalQueueSize, Fresh.FinalQueueSize);
  // Two path campaigns plus the instrumentation cache: one build total.
  EXPECT_EQ(B.instrumentCount(), 1u);
}

TEST(Evaluation, EvaluateIsIndependentOfJobCount) {
  // evaluate() routes through the batch runner; PATHFUZZ_JOBS must not
  // change what it computes.
  Subject S = smallSubject();
  CampaignOptions Base = smallOpts(FuzzerKind::Pcguard, 2000);
  ::setenv("PATHFUZZ_JOBS", "1", 1);
  Evaluation A = evaluate({S}, {FuzzerKind::Pcguard, FuzzerKind::Path}, 2,
                          Base);
  ::setenv("PATHFUZZ_JOBS", "4", 1);
  Evaluation B = evaluate({S}, {FuzzerKind::Pcguard, FuzzerKind::Path}, 2,
                          Base);
  ::unsetenv("PATHFUZZ_JOBS");
  for (FuzzerKind K : {FuzzerKind::Pcguard, FuzzerKind::Path}) {
    const RunSet &RA = A.at("small", K);
    const RunSet &RB = B.at("small", K);
    ASSERT_EQ(RA.Runs.size(), RB.Runs.size());
    for (size_t I = 0; I < RA.Runs.size(); ++I) {
      EXPECT_EQ(RA.Runs[I].Execs, RB.Runs[I].Execs);
      EXPECT_EQ(RA.Runs[I].BugIds, RB.Runs[I].BugIds);
      EXPECT_EQ(RA.Runs[I].EdgeSet, RB.Runs[I].EdgeSet);
      EXPECT_EQ(RA.Runs[I].FinalQueueSize, RB.Runs[I].FinalQueueSize);
    }
  }
}

TEST(Evaluation, SetAlgebra) {
  std::set<uint64_t> A = {1, 2, 3}, B = {2, 3, 4};
  EXPECT_EQ(setIntersectSize(A, B), 2u);
  EXPECT_EQ(setSubtractSize(A, B), 1u);
  EXPECT_EQ(setSubtractSize(B, A), 1u);
  EXPECT_EQ(setUnion(A, B).size(), 4u);
}

} // namespace
