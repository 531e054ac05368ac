//===- RobustnessTest.cpp - Checkpoint/resume and fault-tolerant batches -------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// The robustness contracts:
//
//  - A campaign killed mid-run and resumed from its last checkpoint
//    produces a byte-identical CampaignResult to the uninterrupted run
//    (serializeCampaignResult is the equality oracle).
//  - A batch with one failing trial completes every other trial
//    byte-identically to a fault-free batch; the failure is recorded as
//    a structured BatchJobStatus, never an abort.
//  - Transient faults are retried by deterministic replay; the retry
//    reproduces exactly the result the fault interrupted.
//
//===----------------------------------------------------------------------===//

#include "strategy/Batch.h"
#include "strategy/BuildCache.h"
#include "strategy/Campaign.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <atomic>

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

Subject otherSubject() {
  Subject S;
  S.Name = "other";
  S.Source = R"ml(
fn main() {
  var a[4];
  if (len() > 2 && in(0) == 'R' && in(1) == 'T') {
    a[in(2) % 8] = 1;  // OOB for in(2) % 8 >= 4
  }
  return 0;
}
)ml";
  S.Seeds = {{'R', 'T', 1}};
  return S;
}

Subject brokenSubject() {
  Subject S;
  S.Name = "broken";
  S.Source = "fn main( { this does not parse }";
  S.Seeds = {{1}};
  return S;
}

CampaignOptions baseOpts(FuzzerKind Kind, uint64_t Budget = 6000) {
  CampaignOptions Opts;
  Opts.Kind = Kind;
  Opts.ExecBudget = Budget;
  Opts.Seed = 5;
  Opts.CullRounds = 3;
  return Opts;
}

//===----------------------------------------------------------------------===//
// Checkpoint/resume
//===----------------------------------------------------------------------===//

class CheckpointResume : public ::testing::TestWithParam<FuzzerKind> {};

TEST_P(CheckpointResume, ResumeFromEveryCheckpointIsByteIdentical) {
  const FuzzerKind Kind = GetParam();
  Subject S = smallSubject();
  CampaignOptions Plain = baseOpts(Kind);
  std::vector<uint8_t> Ref = serializeCampaignResult(runCampaign(S, Plain));

  // The same campaign emitting checkpoints. Checkpointing must not
  // perturb the run.
  CampaignOptions WithCkpt = Plain;
  WithCkpt.CheckpointInterval = 900;
  std::vector<std::vector<uint8_t>> Checkpoints;
  WithCkpt.CheckpointSink = [&Checkpoints](const std::vector<uint8_t> &Blob) {
    Checkpoints.push_back(Blob);
  };
  CampaignError Err;
  CampaignResult Observed = runCampaign(S, WithCkpt, &Err);
  ASSERT_FALSE(Err.Failed) << Err.Message;
  EXPECT_EQ(serializeCampaignResult(Observed), Ref);
  ASSERT_GE(Checkpoints.size(), 3u) << "budget 6000 / interval 900";

  // "Kill" the campaign at each checkpoint in turn and resume: every
  // resume must reproduce the uninterrupted result exactly. The first
  // resume runs without a sink — the checkpoint cadence is not part of
  // the fingerprint. The second keeps the sink and must re-emit the
  // checkpoints that followed, byte for byte.
  for (size_t I = 0; I < Checkpoints.size(); ++I) {
    SCOPED_TRACE("checkpoint " + std::to_string(I));
    CampaignError ResumeErr;
    CampaignResult Resumed = resumeCampaign(S, Plain, Checkpoints[I],
                                            &ResumeErr);
    ASSERT_FALSE(ResumeErr.Failed) << ResumeErr.Message;
    EXPECT_EQ(serializeCampaignResult(Resumed), Ref);

    CampaignOptions Resink = WithCkpt;
    std::vector<std::vector<uint8_t>> Reemitted;
    Resink.CheckpointSink = [&Reemitted](const std::vector<uint8_t> &Blob) {
      Reemitted.push_back(Blob);
    };
    CampaignError ResinkErr;
    Resumed = resumeCampaign(S, Resink, Checkpoints[I], &ResinkErr);
    ASSERT_FALSE(ResinkErr.Failed) << ResinkErr.Message;
    EXPECT_EQ(serializeCampaignResult(Resumed), Ref);
    EXPECT_TRUE(Reemitted == std::vector<std::vector<uint8_t>>(
                                 Checkpoints.begin() + I + 1,
                                 Checkpoints.end()))
        << Reemitted.size() << " re-emitted, "
        << Checkpoints.size() - I - 1 << " expected";
  }
}

INSTANTIATE_TEST_SUITE_P(Drivers, CheckpointResume,
                         ::testing::Values(FuzzerKind::Pcguard,
                                           FuzzerKind::Path,
                                           FuzzerKind::Cull,
                                           FuzzerKind::CullRandom,
                                           FuzzerKind::Opp,
                                           FuzzerKind::PathAfl,
                                           FuzzerKind::Prescient),
                         [](const auto &Info) {
                           return std::string(fuzzerKindName(Info.param));
                         });

TEST(CheckpointResumeEdge, RejectsCorruptAndMismatchedCheckpoints) {
  Subject S = smallSubject();
  CampaignOptions Opts = baseOpts(FuzzerKind::Pcguard, 3000);
  CampaignOptions WithCkpt = Opts;
  WithCkpt.CheckpointInterval = 1000;
  std::vector<std::vector<uint8_t>> Checkpoints;
  WithCkpt.CheckpointSink = [&Checkpoints](const std::vector<uint8_t> &Blob) {
    Checkpoints.push_back(Blob);
  };
  runCampaign(S, WithCkpt);
  ASSERT_FALSE(Checkpoints.empty());

  // Bit-flip: the envelope checksum rejects it with a structured error.
  std::vector<uint8_t> Bad = Checkpoints.back();
  Bad[Bad.size() / 2] ^= 0x40;
  CampaignError Err;
  resumeCampaign(S, Opts, Bad, &Err);
  EXPECT_TRUE(Err.Failed);
  EXPECT_FALSE(Err.Message.empty());

  // Same blob, different campaign options: fingerprint mismatch.
  CampaignOptions Other = Opts;
  Other.Seed = 6;
  CampaignError Err2;
  resumeCampaign(S, Other, Checkpoints.back(), &Err2);
  EXPECT_TRUE(Err2.Failed);

  // Different kind entirely.
  CampaignOptions OtherKind = Opts;
  OtherKind.Kind = FuzzerKind::Path;
  CampaignError Err3;
  resumeCampaign(S, OtherKind, Checkpoints.back(), &Err3);
  EXPECT_TRUE(Err3.Failed);
}

// Every way a checkpoint blob can rot on disk, against every driver
// family: the resume must fail cleanly — structured error, no crash, no
// partially-restored result leaking out — for truncation at any length,
// bit flips, a foreign magic and an unknown envelope version.
class ResumeErrorPaths : public ::testing::TestWithParam<FuzzerKind> {};

TEST_P(ResumeErrorPaths, CorruptBlobsFailCleanlyNeverPartially) {
  const FuzzerKind Kind = GetParam();
  Subject S = smallSubject();
  CampaignOptions Opts = baseOpts(Kind, 4000);
  CampaignOptions WithCkpt = Opts;
  WithCkpt.CheckpointInterval = 1000;
  std::vector<std::vector<uint8_t>> Checkpoints;
  WithCkpt.CheckpointSink = [&Checkpoints](const std::vector<uint8_t> &Blob) {
    Checkpoints.push_back(Blob);
  };
  runCampaign(S, WithCkpt);
  ASSERT_FALSE(Checkpoints.empty());
  const std::vector<uint8_t> &Good = Checkpoints.back();

  // Both resume entry points: the Subject overload (the serial driver)
  // and the SubjectBuild overload (what the batch runner's shared build
  // cache goes through).
  BuildCache Cache;
  std::shared_ptr<SubjectBuild> B = Cache.get(S);
  auto expectCleanFailure = [&](std::vector<uint8_t> Blob, const char *What) {
    SCOPED_TRACE(What);
    for (int Driver = 0; Driver < 2; ++Driver) {
      SCOPED_TRACE(Driver == 0 ? "serial" : "batch build");
      CampaignError Err;
      CampaignResult R = Driver == 0 ? resumeCampaign(S, Opts, Blob, &Err)
                                     : resumeCampaign(*B, Opts, Blob, &Err);
      EXPECT_TRUE(Err.Failed);
      EXPECT_FALSE(Err.Message.empty());
      // No partial restore escapes: the result is the empty default.
      EXPECT_EQ(R.Execs, 0u);
      EXPECT_TRUE(R.EdgeSet.empty());
      EXPECT_TRUE(R.CrashHashes.empty());
    }
  };

  for (size_t Cut :
       {size_t(0), size_t(3), Good.size() / 4, Good.size() / 2,
        Good.size() - 1})
    expectCleanFailure({Good.begin(), Good.begin() + Cut}, "truncated");

  std::vector<uint8_t> Flipped = Good;
  Flipped[Good.size() / 3] ^= 0x08;
  expectCleanFailure(Flipped, "bit-flipped payload");

  std::vector<uint8_t> Magic = Good;
  Magic[0] ^= 0xff; // envelope magic is bytes 0..3
  expectCleanFailure(Magic, "wrong magic");

  std::vector<uint8_t> Version = Good;
  Version[4] = 0x7f; // envelope version is bytes 4..7
  expectCleanFailure(Version, "wrong version");
}

INSTANTIATE_TEST_SUITE_P(Drivers, ResumeErrorPaths,
                         ::testing::Values(FuzzerKind::Pcguard,
                                           FuzzerKind::Cull,
                                           FuzzerKind::Opp),
                         [](const auto &Info) {
                           return std::string(fuzzerKindName(Info.param));
                         });

//===----------------------------------------------------------------------===//
// Structured campaign errors
//===----------------------------------------------------------------------===//

TEST(CampaignErrors, CompileFailureIsReportedNotFatal) {
  Subject S = brokenSubject();
  CampaignError Err;
  CampaignResult R = runCampaign(S, baseOpts(FuzzerKind::Path, 1000), &Err);
  EXPECT_TRUE(Err.Failed);
  EXPECT_FALSE(Err.Transient); // real compile errors never retry
  EXPECT_FALSE(Err.Message.empty()) << "the diagnostic must be preserved";
  EXPECT_TRUE(Err.FaultSite.empty());
  EXPECT_EQ(R.Execs, 0u);
}

TEST(CampaignErrors, WatchdogConvertsRunawayIntoError) {
  Subject S = smallSubject();
  CampaignOptions Opts = baseOpts(FuzzerKind::Pcguard, 50000);
  Opts.WatchdogExecLimit = 500; // far below the budget: trips immediately
  CampaignError Err;
  runCampaign(S, Opts, &Err);
  EXPECT_TRUE(Err.Failed);
  EXPECT_TRUE(Err.Watchdog);
}

TEST(CampaignErrors, GenerousWatchdogDoesNotPerturbResults) {
  Subject S = smallSubject();
  CampaignOptions Opts = baseOpts(FuzzerKind::Cull, 4000);
  std::vector<uint8_t> Ref = serializeCampaignResult(runCampaign(S, Opts));
  CampaignOptions Watched = Opts;
  Watched.WatchdogExecLimit = 8 * Opts.ExecBudget + 4096;
  CampaignError Err;
  CampaignResult R = runCampaign(S, Watched, &Err);
  EXPECT_FALSE(Err.Failed);
  EXPECT_EQ(serializeCampaignResult(R), Ref);
}

//===----------------------------------------------------------------------===//
// Fault-tolerant batches
//===----------------------------------------------------------------------===//

std::vector<BatchJob> twoSubjectJobs(const Subject &A, const Subject &B) {
  std::vector<BatchJob> Jobs;
  for (const Subject *S : {&A, &B})
    for (uint32_t Trial = 0; Trial < 2; ++Trial) {
      BatchJob J;
      J.S = S;
      J.Opts = baseOpts(FuzzerKind::Path, 3000);
      J.Opts.Seed = trialSeed(5, FuzzerKind::Path, Trial);
      Jobs.push_back(J);
    }
  return Jobs;
}

TEST(BatchFaults, OneFailingCompileCostsOnlyItsOwnJobs) {
  fault::ScopedFaultInjection Guard;
  Subject A = smallSubject(), B = otherSubject();
  std::vector<BatchJob> Jobs = twoSubjectJobs(A, B);

  std::vector<CampaignResult> Clean = runCampaigns(Jobs, 1);

  // At one thread the cache compiles subjects in job order: "small" is
  // compile #1, "other" is #2. Fail #2 persistently.
  fault::SiteConfig C;
  C.FailOnHit = 2;
  C.Transient = false;
  fault::armSite("strategy.compile", C);

  BatchStats BS;
  std::vector<BatchJobStatus> Statuses;
  std::vector<CampaignResult> Got = runCampaigns(Jobs, 1, &BS, &Statuses);
  fault::reset();

  ASSERT_EQ(Got.size(), 4u);
  ASSERT_EQ(Statuses.size(), 4u);
  // Subject A's jobs are byte-identical to the fault-free batch.
  for (size_t I : {0u, 1u}) {
    EXPECT_TRUE(Statuses[I].Ok);
    EXPECT_EQ(serializeCampaignResult(Got[I]),
              serializeCampaignResult(Clean[I]));
  }
  // Subject B's jobs failed with the fault recorded; results left empty.
  for (size_t I : {2u, 3u}) {
    EXPECT_FALSE(Statuses[I].Ok);
    EXPECT_EQ(Statuses[I].FaultSite, "strategy.compile");
    EXPECT_FALSE(Statuses[I].Error.empty());
    EXPECT_EQ(Got[I].Execs, 0u);
  }
  EXPECT_EQ(BS.JobsFailed, 2u);
}

TEST(BatchFaults, UncompilableSubjectDegradesGracefullyAtFourThreads) {
  Subject A = smallSubject(), Broken = brokenSubject();
  std::vector<BatchJob> Jobs = twoSubjectJobs(A, Broken);
  std::vector<CampaignResult> Clean = runCampaigns(
      {Jobs.begin(), Jobs.begin() + 2}, 1);

  BatchStats BS;
  std::vector<BatchJobStatus> Statuses;
  std::vector<CampaignResult> Got = runCampaigns(Jobs, 4, &BS, &Statuses);

  for (size_t I : {0u, 1u}) {
    EXPECT_TRUE(Statuses[I].Ok);
    EXPECT_EQ(serializeCampaignResult(Got[I]),
              serializeCampaignResult(Clean[I]));
  }
  for (size_t I : {2u, 3u}) {
    EXPECT_FALSE(Statuses[I].Ok);
    EXPECT_FALSE(Statuses[I].Error.empty())
        << "compile diagnostic must survive the batch";
  }
  EXPECT_EQ(BS.JobsFailed, 2u);
}

TEST(BatchFaults, TransientCompileFaultIsRetriedToTheExactResult) {
  fault::ScopedFaultInjection Guard;
  Subject A = smallSubject();
  std::vector<BatchJob> Jobs;
  BatchJob J;
  J.S = &A;
  J.Opts = baseOpts(FuzzerKind::Path, 3000);
  Jobs.push_back(J);

  std::vector<CampaignResult> Clean = runCampaigns(Jobs, 1);

  fault::SiteConfig C;
  C.FailOnHit = 1; // first compile fails; transient by default
  fault::armSite("strategy.compile", C);
  BatchStats BS;
  std::vector<BatchJobStatus> Statuses;
  std::vector<CampaignResult> Got = runCampaigns(Jobs, 1, &BS, &Statuses);
  fault::reset();

  ASSERT_EQ(Statuses.size(), 1u);
  EXPECT_TRUE(Statuses[0].Ok);
  EXPECT_EQ(Statuses[0].Attempts, 2u);
  EXPECT_EQ(serializeCampaignResult(Got[0]),
            serializeCampaignResult(Clean[0]));
  EXPECT_EQ(BS.JobsRetried, 1u);
  EXPECT_EQ(BS.JobsFailed, 0u);
  // The retry recompiled: two front-end compilations for one subject.
  EXPECT_EQ(BS.SubjectsCompiled, 2u);
}

TEST(BatchFaults, TransientInstrumentFaultIsRetriedWithoutRecompiling) {
  fault::ScopedFaultInjection Guard;
  Subject A = smallSubject();
  std::vector<BatchJob> Jobs;
  BatchJob J;
  J.S = &A;
  J.Opts = baseOpts(FuzzerKind::Path, 3000);
  Jobs.push_back(J);

  std::vector<CampaignResult> Clean = runCampaigns(Jobs, 1);

  fault::SiteConfig C;
  C.FailOnHit = 1;
  fault::armSite("strategy.instrument", C);
  BatchStats BS;
  std::vector<BatchJobStatus> Statuses;
  std::vector<CampaignResult> Got = runCampaigns(Jobs, 1, &BS, &Statuses);
  fault::reset();

  EXPECT_TRUE(Statuses[0].Ok);
  EXPECT_EQ(Statuses[0].Attempts, 2u);
  EXPECT_EQ(serializeCampaignResult(Got[0]),
            serializeCampaignResult(Clean[0]));
  // Failed instrumentation attempts are not cached, so the retry reuses
  // the compiled subject: one compilation, one (successful) pass.
  EXPECT_EQ(BS.SubjectsCompiled, 1u);
  EXPECT_EQ(BS.ModulesInstrumented, 1u);
}

TEST(BatchFaults, RejectedDispatchIsRetriedNotLost) {
  fault::ScopedFaultInjection Guard;
  Subject A = smallSubject();
  std::vector<BatchJob> Jobs = twoSubjectJobs(A, A);
  std::vector<CampaignResult> Clean = runCampaigns(Jobs, 1);

  fault::SiteConfig C;
  C.FailOnHit = 2; // reject the second pool submission once
  fault::armSite("support.pool.dispatch", C);
  BatchStats BS;
  std::vector<BatchJobStatus> Statuses;
  std::vector<CampaignResult> Got = runCampaigns(Jobs, 2, &BS, &Statuses);
  fault::reset();

  EXPECT_GE(BS.DispatchRetries, 1u);
  EXPECT_EQ(BS.JobsFailed, 0u);
  ASSERT_EQ(Got.size(), Clean.size());
  for (size_t I = 0; I < Got.size(); ++I) {
    EXPECT_TRUE(Statuses[I].Ok);
    EXPECT_EQ(serializeCampaignResult(Got[I]),
              serializeCampaignResult(Clean[I]))
        << "job " << I;
  }
}

TEST(BatchFaults, WatchdogTripSurfacesAsTimedOutStatus) {
  Subject A = smallSubject();
  std::vector<BatchJob> Jobs;
  BatchJob J;
  J.S = &A;
  J.Opts = baseOpts(FuzzerKind::Pcguard, 50000);
  J.Opts.WatchdogExecLimit = 500;
  Jobs.push_back(J);

  BatchStats BS;
  std::vector<BatchJobStatus> Statuses;
  std::vector<CampaignResult> Got = runCampaigns(Jobs, 1, &BS, &Statuses);
  EXPECT_FALSE(Statuses[0].Ok);
  EXPECT_TRUE(Statuses[0].TimedOut);
  EXPECT_EQ(Got[0].Execs, 0u);
  EXPECT_EQ(BS.JobsFailed, 1u);
}

TEST(BatchFaults, CheckpointingInsideABatchDoesNotPerturbIt) {
  // Campaign options with a checkpoint sink flow through the batch
  // unchanged; results match the sink-free batch byte for byte.
  Subject A = smallSubject();
  std::vector<BatchJob> Jobs = twoSubjectJobs(A, A);
  std::vector<CampaignResult> Clean = runCampaigns(Jobs, 1);

  std::atomic<size_t> Seen{0};
  std::vector<BatchJob> Ckpt = Jobs;
  for (BatchJob &J : Ckpt) {
    J.Opts.CheckpointInterval = 1000;
    J.Opts.CheckpointSink = [&Seen](const std::vector<uint8_t> &) {
      Seen.fetch_add(1, std::memory_order_relaxed);
    };
  }
  std::vector<CampaignResult> Got = runCampaigns(Ckpt, 2);
  EXPECT_GT(Seen.load(), 0u);
  for (size_t I = 0; I < Got.size(); ++I)
    EXPECT_EQ(serializeCampaignResult(Got[I]),
              serializeCampaignResult(Clean[I]));
}

} // namespace
