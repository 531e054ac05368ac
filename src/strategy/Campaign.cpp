//===- Campaign.cpp - Fuzzer configurations and campaign drivers --------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "strategy/Campaign.h"

#include "analysis/Reachability.h"
#include "fuzz/Snapshot.h"
#include "strategy/BuildCache.h"
#include "strategy/Store.h"
#include "support/FaultInjection.h"
#include "support/Rng.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <string>
#include <utility>

namespace pathfuzz {
namespace strategy {

const char *fuzzerKindName(FuzzerKind K) {
  switch (K) {
  case FuzzerKind::Pcguard:
    return "pcguard";
  case FuzzerKind::Path:
    return "path";
  case FuzzerKind::Cull:
    return "cull";
  case FuzzerKind::CullRandom:
    return "cull_r";
  case FuzzerKind::Opp:
    return "opp";
  case FuzzerKind::Afl:
    return "afl";
  case FuzzerKind::PathAfl:
    return "pathafl";
  case FuzzerKind::Prescient:
    return "prescient";
  }
  return "<bad-kind>";
}

bool fuzzerKindFromName(const std::string &Name, FuzzerKind &K) {
  for (uint8_t I = 0; I <= static_cast<uint8_t>(FuzzerKind::Prescient); ++I) {
    FuzzerKind Candidate = static_cast<FuzzerKind>(I);
    if (Name == fuzzerKindName(Candidate)) {
      K = Candidate;
      return true;
    }
  }
  return false;
}

namespace {

using fuzz::ByteReader;
using fuzz::ByteWriter;

fuzz::FuzzerOptions fuzzerOptions(const InstrumentedBuild &B,
                                  const CampaignOptions &Opts, uint64_t Seed) {
  const bool PathAflAssist = Opts.Kind == FuzzerKind::PathAfl;
  fuzz::FuzzerOptions FO;
  FO.MapSizeLog2 = Opts.MapSizeLog2;
  FO.Seed = Seed;
  FO.Mut.MaxLen = Opts.MaxInputLen;
  FO.Exec.StepLimit = Opts.StepLimit;
  FO.PathAflAssist = PathAflAssist;
  FO.GrowthSampleInterval = Opts.GrowthSampleInterval;
  // The PathAFL comparator builds on plain AFL 2.52b, which has no
  // input-to-state stage; our afl/pathafl configs disable the cmp
  // dictionary accordingly.
  FO.UseCmpDict = !PathAflAssist;
  FO.Trace = Opts.Trace;
  // VM fast path: hand every instance the build's shared pre-decoded
  // image. Gated on the mode (not just image presence) so a forced
  // Interpreter campaign ignores an image a previous fast-path campaign
  // left in the shared cache slot.
  if (vm::fastPathEnabled(Opts.VmMode))
    FO.Image = B.Image.get();
  // JIT engine: hand over the build's shared native program the same way.
  // Gated on the resolved mode, not pointer presence, for the same
  // reason as the image above.
  if (vm::jitEnabled(Opts.VmMode))
    FO.Jit = B.Jit.get();
  // Selective (two-tier) execution, only for an explicit
  // SelectiveMode::On: byte-identical results either way, so the mode is
  // resolved per campaign exactly like the engine choice.
  // The cheap image is only present when the build cache ran under a
  // selective + fast-path resolution; a null CheapImage falls back to the
  // interpreter cheap tier inside the fuzzer.
  if (vm::selectiveEnabled(Opts.Selective)) {
    FO.Selective = true;
    FO.CheapImage = B.CheapImage.get();
    if (vm::jitEnabled(Opts.VmMode))
      FO.CheapJit = B.CheapJit.get();
  }
  return FO;
}

/// Campaign trace container for this run, or null when tracing is off.
/// Resume paths pass the checkpoint-carried trace through so completed
/// instances survive the restart.
std::shared_ptr<telemetry::CampaignTrace>
makeCampaignTrace(const SubjectBuild &SB, const CampaignOptions &Opts,
                  std::shared_ptr<telemetry::CampaignTrace> Carried) {
  if (!(telemetry::Compiled && Opts.Trace.Enabled))
    return nullptr;
  if (Carried)
    return Carried;
  auto CT = std::make_shared<telemetry::CampaignTrace>();
  CT->Subject = SB.subject().Name;
  CT->Fuzzer = fuzzerKindName(Opts.Kind);
  CT->Seed = Opts.Seed;
  return CT;
}

/// Record a campaign-level driver event (cull verdicts, phase starts).
/// Exec is campaign-cumulative.
void campaignEvent(telemetry::CampaignTrace *CT, telemetry::EventKind K,
                   uint64_t Exec, uint32_t A32 = 0, uint64_t A64 = 0,
                   uint8_t A8 = 0) {
  if (!CT)
    return;
  telemetry::Event E;
  E.Exec = Exec;
  E.Kind = K;
  E.Arg32 = A32;
  E.Arg64 = A64;
  E.Arg8 = A8;
  CT->CampaignEvents.push_back(E);
}

/// Fold one fuzzer instance's findings into the campaign aggregate; the
/// final queue size is the last instance's.
void accumulate(CampaignResult &R, const fuzz::Fuzzer &F,
                uint64_t ExecOffset) {
  R.FinalQueueSize = F.corpus().size();
  R.Execs += F.stats().Execs;
  R.TotalCrashes += F.stats().Crashes;
  R.TotalHangs += F.stats().Hangs;
  for (const fuzz::CrashRecord &C : F.uniqueCrashes()) {
    if (R.CrashHashes.insert(C.StackHash).second)
      R.UniqueCrashes.push_back(C);
  }
  for (const fuzz::HangRecord &H : F.uniqueHangs()) {
    if (R.HangHashes.insert(H.InputHash).second)
      R.UniqueHangs.push_back(H);
  }
  for (uint64_t Bug : F.bugIds())
    R.BugIds.insert(Bug);

  std::vector<uint32_t> Edges = F.coveredEdgeList();
  std::vector<uint32_t> Merged;
  Merged.reserve(R.EdgeSet.size() + Edges.size());
  std::set_union(R.EdgeSet.begin(), R.EdgeSet.end(), Edges.begin(),
                 Edges.end(), std::back_inserter(Merged));
  R.EdgeSet = std::move(Merged);

  for (auto [Execs, QueueSize] : F.stats().QueueGrowth)
    R.QueueGrowth.push_back({ExecOffset + Execs, QueueSize});
}

//===----------------------------------------------------------------------===//
// Error plumbing
//===----------------------------------------------------------------------===//

/// tryInstrumented with the diagnostic routed into CampaignError.
const InstrumentedBuild *instrumentOrError(SubjectBuild &SB,
                                           instr::Feedback Mode,
                                           const CampaignOptions &Opts,
                                           CampaignError *Err) {
  std::string Diag;
  const InstrumentedBuild *B = SB.tryInstrumented(Mode, Opts, &Diag);
  if (!B)
    setCampaignError(Err, Diag, "strategy.instrument",
                     fault::isTransient("strategy.instrument"));
  return B;
}

//===----------------------------------------------------------------------===//
// CampaignResult serialization — the byte-identity oracle and the carrier
// for partial results inside multi-round checkpoints.
//===----------------------------------------------------------------------===//

void writeCampaignResult(ByteWriter &W, const CampaignResult &R) {
  W.u8(static_cast<uint8_t>(R.Kind));
  W.u64(R.Execs);
  W.u64(R.FinalQueueSize);
  W.u64(R.TotalCrashes);
  W.u64(R.TotalHangs);
  // std::set iterates sorted, so these vectors are canonical.
  W.vecU64({R.CrashHashes.begin(), R.CrashHashes.end()});
  W.vecU64({R.HangHashes.begin(), R.HangHashes.end()});
  W.vecU64({R.BugIds.begin(), R.BugIds.end()});
  W.vecU32(R.EdgeSet);
  W.u64(R.QueueGrowth.size());
  for (auto [Execs, QueueSize] : R.QueueGrowth) {
    W.u64(Execs);
    W.u64(QueueSize);
  }
  W.u64(R.UniqueCrashes.size());
  for (const fuzz::CrashRecord &C : R.UniqueCrashes)
    fuzz::writeCrashRecord(W, C);
  W.u64(R.UniqueHangs.size());
  for (const fuzz::HangRecord &H : R.UniqueHangs)
    fuzz::writeHangRecord(W, H);
}

CampaignResult readCampaignResult(ByteReader &Rd) {
  CampaignResult R;
  R.Kind = static_cast<FuzzerKind>(Rd.u8());
  R.Execs = Rd.u64();
  R.FinalQueueSize = Rd.u64();
  R.TotalCrashes = Rd.u64();
  R.TotalHangs = Rd.u64();
  std::vector<uint64_t> Crash = Rd.vecU64();
  R.CrashHashes.insert(Crash.begin(), Crash.end());
  std::vector<uint64_t> Hang = Rd.vecU64();
  R.HangHashes.insert(Hang.begin(), Hang.end());
  std::vector<uint64_t> Bug = Rd.vecU64();
  R.BugIds.insert(Bug.begin(), Bug.end());
  R.EdgeSet = Rd.vecU32();
  uint64_t NGrowth = Rd.u64();
  if (NGrowth > Rd.remaining() / 16) {
    Rd.invalidate();
    NGrowth = 0;
  }
  R.QueueGrowth.reserve(NGrowth);
  for (uint64_t I = 0; I < NGrowth; ++I) {
    uint64_t Execs = Rd.u64();
    uint64_t QueueSize = Rd.u64();
    R.QueueGrowth.push_back({Execs, QueueSize});
  }
  uint64_t NCrashRecs = Rd.u64();
  for (uint64_t I = 0; I < NCrashRecs && Rd.ok(); ++I)
    R.UniqueCrashes.push_back(fuzz::readCrashRecord(Rd));
  uint64_t NHangRecs = Rd.u64();
  for (uint64_t I = 0; I < NHangRecs && Rd.ok(); ++I)
    R.UniqueHangs.push_back(fuzz::readHangRecord(Rd));
  return R;
}

//===----------------------------------------------------------------------===//
// Checkpoint envelope
//===----------------------------------------------------------------------===//
//
// A campaign checkpoint is sealSnapshot() over:
//
//   options fingerprint (writeOptionsFingerprint: driver tag, kind and
//                        every option the schedule depends on)
//   driver state        (nothing for plain; cull's round and RNG, opp's
//                        phase — each driver writes and reads its own)
//   blob(Fuzzer::snapshot()) of the live instance
//
// runInstance writes the frame and resumeCampaign checks the fingerprint,
// so each driver only reads back what its own callback wrote. The
// fingerprint pins the resume to the exact original configuration; the
// robustness knobs themselves (checkpoint interval, watchdog) are
// deliberately excluded — they never affect results, so a run may be
// resumed under a different checkpoint cadence.

constexpr uint8_t TagPlain = 0;
constexpr uint8_t TagCull = 1;
constexpr uint8_t TagOpp = 2;

uint8_t driverTag(FuzzerKind K) {
  switch (K) {
  case FuzzerKind::Cull:
  case FuzzerKind::CullRandom:
    return TagCull;
  case FuzzerKind::Opp:
    return TagOpp;
  default:
    return TagPlain;
  }
}

/// Read the live instance's snapshot, which ends every checkpoint payload.
/// Fails with Err set when the driver state read before it was invalid
/// (!StateOk), or the payload is cut short or carries stray bytes.
bool readInstanceBlob(ByteReader &Rd, bool StateOk, std::vector<uint8_t> &Blob,
                      CampaignError *Err) {
  Blob = Rd.blob();
  if (StateOk && Rd.done())
    return true;
  setCampaignError(Err, "malformed checkpoint payload");
  return false;
}

//===----------------------------------------------------------------------===//
// The instance lifecycle
//===----------------------------------------------------------------------===//

/// One fuzz::Fuzzer instance of a campaign: a plain campaign's only one, a
/// cull round, or an opp phase.
struct Instance {
  Instance(const InstrumentedBuild *Build, std::string Label, uint64_t Seed,
           uint64_t Offset, uint64_t Budget)
      : Build(Build), Label(std::move(Label)), Seed(Seed), Offset(Offset),
        Budget(Budget) {}

  const InstrumentedBuild *Build;
  /// Names the instance's record in the campaign trace.
  std::string Label;
  uint64_t Seed;
  /// Campaign-cumulative execs before this instance: paces its checkpoints,
  /// shrinks its share of the watchdog limit and offsets its trace record.
  uint64_t Offset;
  uint64_t Budget;
  /// Restore this snapshot; when null, start from Dict and Seeds instead
  /// (a restored instance already absorbed them).
  const std::vector<uint8_t> *Blob = nullptr;
  std::vector<fuzz::Input> Seeds;
  std::vector<int64_t> Dict;
  /// Writes the driver state between fingerprint and snapshot.
  std::function<void(ByteWriter &)> State;
};

/// Run one instance from start to finish and fold its telemetry into CT.
/// Returns null, with Err set, when the watchdog trips or the snapshot does
/// not restore. Otherwise returns the fuzzer, with Err marked preempted
/// when StopRequest stopped it early.
std::unique_ptr<fuzz::Fuzzer> runInstance(SubjectBuild &SB,
                                          const CampaignOptions &Opts,
                                          const Instance &I,
                                          telemetry::CampaignTrace *CT,
                                          CampaignError *Err) {
  auto Watchdog = [Err] {
    setCampaignError(Err, "exec watchdog tripped", "", false,
                     /*Watchdog=*/true);
    return nullptr;
  };
  fuzz::FuzzerOptions FO = fuzzerOptions(*I.Build, Opts, I.Seed);
  // Prescient: install the frontier-score scheduling weight over the
  // subject's cached interprocedural reachability summary (one per
  // subject, shared read-only across trials like the images). The hook is
  // a pure function of the entry and the covered-edge bitmap, so a
  // resumed campaign — which re-installs it here — stays byte-identical.
  if (Opts.Kind == FuzzerKind::Prescient) {
    std::shared_ptr<const analysis::ReachabilitySummary> RS =
        SB.reachability();
    FO.ScheduleWeight = [RS](const fuzz::QueueEntry &E,
                             const std::vector<uint8_t> &Covered) {
      uint64_t Frontier = RS->frontierScore(E.EdgeSet, Covered);
      // 16 = neutral; each frontier block adds 1/16 of base energy,
      // saturating at 16x so one seed cannot monopolize the schedule.
      return static_cast<uint32_t>(16 + std::min<uint64_t>(Frontier, 240));
    };
  }
  FO.CheckpointInterval = Opts.CheckpointInterval;
  FO.CheckpointBase = I.Offset;
  FO.StopRequest = Opts.StopRequest;
  if (Opts.WatchdogExecLimit) {
    if (I.Offset >= Opts.WatchdogExecLimit)
      return Watchdog();
    FO.ExecHardLimit = Opts.WatchdogExecLimit - I.Offset;
  }
  if (Opts.CheckpointSink && Opts.CheckpointInterval)
    FO.OnCheckpoint = [&Opts, State = I.State](const fuzz::Fuzzer &F) {
      ByteWriter W;
      writeOptionsFingerprint(W, Opts);
      if (State)
        State(W);
      W.blob(F.snapshot());
      Opts.CheckpointSink(fuzz::sealSnapshot(W.take()));
    };

  auto F = std::make_unique<fuzz::Fuzzer>(I.Build->Mod, I.Build->Report,
                                          SB.shadow(), FO);
  if (I.Blob) {
    if (!F->restore(*I.Blob)) {
      setCampaignError(Err, "checkpoint restore failed (incompatible state)");
      return nullptr;
    }
  } else {
    // Carry the cmp dictionary across instances (AFL++ re-mines cmplog
    // from the seed queue on restart).
    F->seedDict(I.Dict);
    for (const fuzz::Input &Seed : I.Seeds)
      F->addSeed(Seed);
  }
  F->run(I.Budget);
  if (F->hardLimitHit())
    return Watchdog();
  if (CT && F->trace())
    telemetry::collectInstance(*CT, I.Label, I.Offset, *F->trace());
  // A StopRequest preemption: Failed so callers that only check Failed
  // never mistake the partial result for a complete one, but flagged so
  // the store/scheduler layers can propagate it as progress, not damage.
  if (F->preempted()) {
    setCampaignError(Err, "campaign preempted at safe-point checkpoint");
    if (Err)
      Err->Preempted = true;
  }
  return F;
}

//===----------------------------------------------------------------------===//
// Drivers
//===----------------------------------------------------------------------===//
//
// Each driver takes the checkpoint reader positioned after the fingerprint
// when it resumes (null on a fresh start) and parses its driver state
// before anything runs. A preempted driver returns its partial findings.

/// pcguard, path, afl, pathafl and prescient: one instance that differs
/// only in its feedback (and in fuzzerOptions/runInstance's hooks).
CampaignResult runPlain(SubjectBuild &SB, const CampaignOptions &Opts,
                        CampaignError *Err, ByteReader *Resume) {
  // A plain checkpoint has no driver state.
  std::vector<uint8_t> Blob;
  if (Resume && !readInstanceBlob(*Resume, true, Blob, Err))
    return {};
  instr::Feedback Mode = instr::Feedback::EdgePrecise;
  if (Opts.Kind == FuzzerKind::Path)
    Mode = instr::Feedback::Path;
  else if (Opts.Kind == FuzzerKind::Afl || Opts.Kind == FuzzerKind::PathAfl)
    Mode = instr::Feedback::EdgeClassic;
  const InstrumentedBuild *B = instrumentOrError(SB, Mode, Opts, Err);
  if (!B)
    return {};

  std::shared_ptr<telemetry::CampaignTrace> CT =
      makeCampaignTrace(SB, Opts, nullptr);
  // A single-instance campaign always records its (one) phase start, even
  // on resume: the event's position is fixed at exec 0, so resumed and
  // uninterrupted traces agree.
  campaignEvent(CT.get(), telemetry::EventKind::PhaseStarted, 0);
  Instance I(B, "main", Opts.Seed, /*Offset=*/0, Opts.ExecBudget);
  I.Blob = Resume ? &Blob : nullptr;
  I.Seeds = SB.subject().Seeds;
  auto F = runInstance(SB, Opts, I, CT.get(), Err);
  if (!F)
    return {};

  CampaignResult R;
  R.Kind = Opts.Kind;
  accumulate(R, *F, 0);
  R.Trace = CT;
  return R;
}

CampaignResult runCull(SubjectBuild &SB, const CampaignOptions &Opts,
                       CampaignError *Err, ByteReader *Resume) {
  CampaignResult R;
  R.Kind = Opts.Kind;
  uint32_t Rounds = std::max<uint32_t>(1, Opts.CullRounds);
  uint64_t PerRound = std::max<uint64_t>(1, Opts.ExecBudget / Rounds);
  std::vector<fuzz::Input> RoundSeeds = SB.subject().Seeds;
  std::vector<int64_t> CarriedDict;
  Rng CullRng(Opts.Seed ^ 0xc0ffee);
  uint64_t ExecOffset = 0;
  uint32_t Round = 0;
  std::shared_ptr<telemetry::CampaignTrace> CT;

  // Everything a mid-round checkpoint depends on: the round and its exec
  // offset, completed rounds' aggregate and telemetry, and the cull RNG
  // stream position. The live round rides in the fuzzer snapshot.
  auto WriteState = [&](ByteWriter &W) {
    W.u32(Round);
    W.u64(ExecOffset);
    writeCampaignResult(W, R);
    uint64_t RS[4];
    CullRng.saveState(RS);
    for (uint64_t S : RS)
      W.u64(S);
    telemetry::writeCampaignTrace(W, CT.get());
  };
  std::vector<uint8_t> Blob;
  if (Resume) {
    Round = Resume->u32();
    ExecOffset = Resume->u64();
    R = readCampaignResult(*Resume);
    uint64_t RS[4];
    for (uint64_t &S : RS)
      S = Resume->u64();
    CullRng.loadState(RS);
    CT = telemetry::readCampaignTrace(*Resume);
    if (!readInstanceBlob(*Resume, Round < Rounds, Blob, Err))
      return {};
  }
  const InstrumentedBuild *B =
      instrumentOrError(SB, instr::Feedback::Path, Opts, Err);
  if (!B)
    return {};
  CT = makeCampaignTrace(SB, Opts, CT);

  const bool RandomCull = Opts.Kind == FuzzerKind::CullRandom;
  const std::vector<uint8_t> *Restore = Resume ? &Blob : nullptr;
  for (; Round < Rounds; ++Round) {
    // The last round gets whatever remains of the overall budget (the
    // paper's driver subtracts accumulated culling costs the same way).
    uint64_t Remaining =
        Opts.ExecBudget > ExecOffset ? Opts.ExecBudget - ExecOffset : 0;
    Instance I(B, "round" + std::to_string(Round), Opts.Seed + Round * 7919,
               ExecOffset, (Round + 1 == Rounds) ? Remaining : PerRound);
    I.Blob = std::exchange(Restore, nullptr);
    I.Seeds = std::move(RoundSeeds);
    I.Dict = std::move(CarriedDict);
    I.State = WriteState;
    // Fresh round start: the carried checkpoint trace (if any) already
    // holds this event for the resumed round.
    if (!I.Blob)
      campaignEvent(CT.get(), telemetry::EventKind::PhaseStarted, ExecOffset,
                    Round);
    auto F = runInstance(SB, Opts, I, CT.get(), Err);
    if (!F)
      return {};
    accumulate(R, *F, ExecOffset);
    // Preempted, R is the partial aggregate: completed rounds plus the
    // live instance so far.
    if (F->preempted() || Round + 1 == Rounds)
      break;
    ExecOffset += F->stats().Execs;
    CarriedDict = F->cmpDict();

    // Cull: reduce the queue for the next round. The retained seeds get
    // re-executed by the next instance's addSeed() calls, so the culling
    // cost is charged against the overall budget, as the paper's driver
    // subtracts culling time from the final round.
    const fuzz::Corpus &Q = F->corpus();
    RoundSeeds.clear();
    if (!RandomCull) {
      for (size_t Index : Q.edgePreservingSubset())
        RoundSeeds.push_back(Q[Index].Data);
    } else {
      // Appendix D: retain a random 2-16% of the queue.
      uint64_t KeepPermille = 20 + CullRng.below(141); // 2.0% .. 16.0%
      size_t Keep = std::max<size_t>(
          1, static_cast<size_t>(Q.size() * KeepPermille / 1000));
      std::vector<size_t> All(Q.size());
      for (size_t I = 0; I < All.size(); ++I)
        All[I] = I;
      for (size_t I = 0; I < Keep && I < All.size(); ++I) {
        size_t J = I + CullRng.index(All.size() - I);
        std::swap(All[I], All[J]);
        RoundSeeds.push_back(Q[All[I]].Data);
      }
    }
    if (RoundSeeds.empty())
      RoundSeeds = SB.subject().Seeds;
    campaignEvent(CT.get(), telemetry::EventKind::SeedCulled, ExecOffset,
                  static_cast<uint32_t>(RoundSeeds.size()), Q.size());
  }
  R.Trace = CT;
  return R;
}

CampaignResult runOpp(SubjectBuild &SB, const CampaignOptions &Opts,
                      CampaignError *Err, ByteReader *Resume) {
  uint64_t Phase1Budget = Opts.ExecBudget / 2;
  uint8_t Phase = 1;
  uint64_t Phase1Execs = 0;
  std::vector<uint32_t> Phase1Edges;
  std::shared_ptr<telemetry::CampaignTrace> CT;

  // The phase; phase 2 adds phase 1's exec count, edges and telemetry.
  // The live phase's recorder rides in the fuzzer snapshot.
  auto WriteState = [&](ByteWriter &W) {
    W.u8(Phase);
    if (Phase == 2) {
      W.u64(Phase1Execs);
      W.vecU32(Phase1Edges);
      telemetry::writeCampaignTrace(W, CT.get());
    }
  };
  std::vector<uint8_t> Blob;
  if (Resume) {
    Phase = Resume->u8();
    if (Phase == 2) {
      Phase1Execs = Resume->u64();
      Phase1Edges = Resume->vecU32();
      CT = telemetry::readCampaignTrace(*Resume);
    }
    if (!readInstanceBlob(*Resume, Phase == 1 || Phase == 2, Blob, Err))
      return {};
  }
  CT = makeCampaignTrace(SB, Opts, CT);
  const std::vector<uint8_t> *Restore = Resume ? &Blob : nullptr;

  std::vector<fuzz::Input> Handoff;
  std::vector<int64_t> HandoffDict;
  if (Phase == 1) {
    // Phase-1 checkpoints don't carry the campaign trace (nothing is
    // collected yet), so this event is re-recorded on a phase-1 resume —
    // its position is fixed at exec 0 either way.
    campaignEvent(CT.get(), telemetry::EventKind::PhaseStarted, 0, 0, 0,
                  /*A8=*/1);
    // Phase 1: edge-coverage exploration for half the budget.
    const InstrumentedBuild *EdgeBuild =
        instrumentOrError(SB, instr::Feedback::EdgePrecise, Opts, Err);
    if (!EdgeBuild)
      return {};
    Instance I(EdgeBuild, "phase1", Opts.Seed ^ 0x0bb, /*Offset=*/0,
               Phase1Budget);
    I.Blob = std::exchange(Restore, nullptr);
    I.Seeds = SB.subject().Seeds;
    I.State = WriteState;
    auto Phase1 = runInstance(SB, Opts, I, CT.get(), Err);
    if (!Phase1)
      return {};
    if (Phase1->preempted()) {
      // Informational partial: phase-1 findings (the final opp result
      // deliberately counts only phase 2's — a resume reconverges to it).
      CampaignResult P;
      P.Kind = Opts.Kind;
      accumulate(P, *Phase1, 0);
      P.Trace = CT;
      return P;
    }

    // Queue hand-off: crashing inputs were never queued; trim to an
    // edge-coverage-preserving subset (the paper's pre-processing).
    const fuzz::Corpus &Q1 = Phase1->corpus();
    for (size_t Index : Q1.edgePreservingSubset())
      Handoff.push_back(Q1[Index].Data);
    if (Handoff.empty())
      Handoff = SB.subject().Seeds;
    HandoffDict = Phase1->cmpDict(); // cmplog re-mining on the handoff
    Phase1Execs = Phase1->stats().Execs;
    Phase1Edges = Phase1->coveredEdgeList();
    campaignEvent(CT.get(), telemetry::EventKind::SeedCulled, Phase1Execs,
                  static_cast<uint32_t>(Handoff.size()), Q1.size());
    Phase = 2;
  }

  // Phase 2: path-aware fuzzing on the inherited queue. Only this phase's
  // findings count as opp's (the paper does not credit phase-1 bugs).
  const InstrumentedBuild *PathBuild =
      instrumentOrError(SB, instr::Feedback::Path, Opts, Err);
  if (!PathBuild)
    return {};
  Instance I(PathBuild, "phase2", Opts.Seed ^ 0x0bb1e5, Phase1Execs,
             Opts.ExecBudget - Phase1Budget);
  I.Blob = Restore;
  I.Seeds = std::move(Handoff);
  I.Dict = std::move(HandoffDict);
  I.State = WriteState;
  if (!I.Blob)
    campaignEvent(CT.get(), telemetry::EventKind::PhaseStarted, Phase1Execs, 0,
                  0, /*A8=*/2);
  auto Phase2 = runInstance(SB, Opts, I, CT.get(), Err);
  if (!Phase2)
    return {};

  // Preempted, R is the partial-through-phase-2 aggregate.
  CampaignResult R;
  R.Kind = Opts.Kind;
  accumulate(R, *Phase2, Phase1Budget);
  R.Trace = CT;

  // Edge coverage additionally includes the opportunistic phase-1
  // exploration, as in Table IV's discussion.
  std::vector<uint32_t> Merged;
  std::set_union(R.EdgeSet.begin(), R.EdgeSet.end(), Phase1Edges.begin(),
                 Phase1Edges.end(), std::back_inserter(Merged));
  R.EdgeSet = std::move(Merged);
  R.Execs += Phase1Execs;
  return R;
}

/// Options no driver can run: a MaxInputLen of 0 leaves the mutator no
/// length to draw from, and one past MaxInputLenLimit an absurd buffer.
bool checkOptions(const CampaignOptions &Opts, CampaignError *Err) {
  if (Opts.MaxInputLen >= 1 && Opts.MaxInputLen <= MaxInputLenLimit)
    return true;
  setCampaignError(Err, "MaxInputLen must be in [1, " +
                            std::to_string(MaxInputLenLimit) + "], got " +
                            std::to_string(Opts.MaxInputLen));
  return false;
}

CampaignResult dispatch(SubjectBuild &B, const CampaignOptions &Opts,
                        CampaignError *Err, ByteReader *Resume) {
  if (!checkOptions(Opts, Err))
    return {};
  if (!B.ok()) {
    setCampaignError(Err, B.error(), B.faultSite(), B.transientError());
    return {};
  }
  switch (driverTag(Opts.Kind)) {
  case TagCull:
    return runCull(B, Opts, Err, Resume);
  case TagOpp:
    return runOpp(B, Opts, Err, Resume);
  default:
    return runPlain(B, Opts, Err, Resume);
  }
}

} // namespace

std::vector<uint8_t> fingerprintBytes(const CampaignOptions &Opts) {
  ByteWriter W;
  writeOptionsFingerprint(W, Opts);
  return W.take();
}

void setCampaignError(CampaignError *Err, std::string Message,
                      std::string FaultSite, bool Transient, bool Watchdog) {
  if (!Err)
    return;
  Err->Failed = true;
  Err->Transient = Transient;
  Err->Watchdog = Watchdog;
  Err->Preempted = false;
  Err->FaultSite = std::move(FaultSite);
  Err->Message = std::move(Message);
}

std::vector<uint8_t> serializeCampaignResult(const CampaignResult &R) {
  ByteWriter W;
  writeCampaignResult(W, R);
  return W.take();
}

bool deserializeCampaignResult(const std::vector<uint8_t> &Blob,
                               CampaignResult &R) {
  ByteReader Rd(Blob);
  R = readCampaignResult(Rd);
  return Rd.done();
}

void writeOptionsFingerprint(ByteWriter &W, const CampaignOptions &Opts) {
  W.u8(driverTag(Opts.Kind));
  W.u8(static_cast<uint8_t>(Opts.Kind));
  W.u64(Opts.ExecBudget);
  W.u64(Opts.Seed);
  W.u32(Opts.MapSizeLog2);
  W.u32(Opts.CullRounds);
  W.u64(Opts.MaxInputLen);
  W.u64(Opts.StepLimit);
  W.u8(static_cast<uint8_t>(Opts.Placement));
  W.u32(Opts.GrowthSampleInterval);
}

bool readOptionsFingerprint(ByteReader &Rd, CampaignOptions &Opts) {
  uint8_t Tag = Rd.u8();
  uint8_t Kind = Rd.u8();
  if (Kind > static_cast<uint8_t>(FuzzerKind::Prescient))
    return false;
  Opts.Kind = static_cast<FuzzerKind>(Kind);
  if (Tag != driverTag(Opts.Kind))
    return false;
  Opts.ExecBudget = Rd.u64();
  Opts.Seed = Rd.u64();
  // The manifest envelope is an integrity check, not a MAC: bound the map
  // size to what cov::CoverageMap accepts before it reaches a shift.
  Opts.MapSizeLog2 = Rd.u32();
  if (Opts.MapSizeLog2 < 4 || Opts.MapSizeLog2 > 24)
    return false;
  Opts.CullRounds = Rd.u32();
  Opts.MaxInputLen = Rd.u64();
  if (Opts.MaxInputLen == 0 || Opts.MaxInputLen > MaxInputLenLimit)
    return false;
  Opts.StepLimit = Rd.u64();
  uint8_t Placement = Rd.u8();
  if (Placement > static_cast<uint8_t>(bl::PlacementMode::SpanningTree))
    return false;
  Opts.Placement = static_cast<bl::PlacementMode>(Placement);
  Opts.GrowthSampleInterval = Rd.u32();
  return Rd.ok();
}

CampaignResult runCampaign(const Subject &S, const CampaignOptions &Opts,
                           CampaignError *Err) {
  SubjectBuild B(S);
  return runCampaign(B, Opts, Err);
}

CampaignResult runCampaign(SubjectBuild &B, const CampaignOptions &Opts,
                           CampaignError *Err) {
  // Durable campaigns detour through the store layer, which re-enters
  // here with StoreDir cleared once recovery is resolved. Options are
  // checked first so a store never pins a manifest no run can use.
  if (!checkOptions(Opts, Err))
    return {};
  if (!Opts.StoreDir.empty())
    return runStoredCampaign(B, Opts, Err);
  return dispatch(B, Opts, Err, nullptr);
}

CampaignResult resumeCampaign(SubjectBuild &B, const CampaignOptions &Opts,
                              const std::vector<uint8_t> &Checkpoint,
                              CampaignError *Err) {
  if (!B.ok()) {
    setCampaignError(Err, B.error(), B.faultSite(), B.transientError());
    return {};
  }
  std::vector<uint8_t> Payload;
  std::string VersionErr;
  if (!fuzz::openSnapshot(Checkpoint, Payload, &VersionErr)) {
    setCampaignError(Err, VersionErr.empty()
                              ? "corrupt or truncated checkpoint"
                              : "unsupported checkpoint: " + VersionErr);
    return {};
  }
  // The fingerprint is the public writeOptionsFingerprint (Campaign.h):
  // the durable store's manifest pins the same bytes, so a checkpoint
  // that matches the manifest necessarily matches the resume options.
  const std::vector<uint8_t> Fingerprint = fingerprintBytes(Opts);
  ByteReader Rd(Payload);
  if (Rd.raw(Fingerprint.size()) != Fingerprint) {
    setCampaignError(Err, "checkpoint does not match campaign options");
    return {};
  }
  return dispatch(B, Opts, Err, &Rd);
}

CampaignResult resumeCampaign(const Subject &S, const CampaignOptions &Opts,
                              const std::vector<uint8_t> &Checkpoint,
                              CampaignError *Err) {
  SubjectBuild B(S);
  return resumeCampaign(B, Opts, Checkpoint, Err);
}

} // namespace strategy
} // namespace pathfuzz
