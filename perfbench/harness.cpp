//===- harness.cpp - Campaign benchmark measurement engine ----------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// Runs one benchmark workload in this process, one campaign at a time on
// one thread (a closed loop with one client), and prints everything it
// measured as one JSON document on stdout. run.py turns that document
// into the benchmark's metrics; this file does no statistics.
//
//   perfbench_harness --workload campaign_path|campaign_pcguard|durable
//                     --seed N --seconds S --trace 0|1
//                     --scratch DIR [--spans FILE]
//
// Workloads (all 18 subjects, default CampaignOptions otherwise):
//   campaign_path     FuzzerKind::Path
//   campaign_pcguard  FuzzerKind::Pcguard
//   durable           FuzzerKind::Path through a fresh store per campaign,
//                     preempted once at its middle checkpoint and resumed
//                     from disk with runStoredCampaign
//
// Every run: timed set-up (fresh builds, several times), then suite passes
// until --seconds elapse, then the correctness oracle outside the timed
// region. With --trace 1 a traced run follows: per subject, cold set-up
// calls timed one by one, one traced campaign for the exact counts, a
// fuzz::Fuzzer driven to the same budget, and a seeded sample of mutated
// inputs replayed through each layer's public functions, timing each call.
//
//===----------------------------------------------------------------------===//

#include "cov/CoverageMap.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/Snapshot.h"
#include "instrument/Elide.h"
#include "strategy/BuildCache.h"
#include "strategy/Campaign.h"
#include "strategy/Store.h"
#include "support/Rng.h"
#include "targets/Targets.h"
#include "vm/Image.h"
#include "vm/jit/Jit.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace pathfuzz;
namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Fixed workload parameters
//===----------------------------------------------------------------------===//

/// Executions per campaign: the CampaignOptions default.
const uint64_t ExecBudget = strategy::CampaignOptions().ExecBudget;
/// durable: checkpoint every this many execs. The loop checkpoints at
/// each multiple of the interval it crosses below the budget, not at the
/// budget itself, so a campaign writes 7 checkpoints. It is preempted at
/// the 4th, half-way through, and resumed from disk.
const uint64_t CkptInterval = ExecBudget / 8;
constexpr uint64_t CheckpointsPerCampaign = 7;
constexpr uint64_t PreemptAtCheckpoint = 4;
/// Fresh-build repetitions for setup_s (the median is reported).
constexpr unsigned SetupReps = 51;
/// Cold set-up repetitions per subject in the traced run.
constexpr unsigned TraceSetupReps = 3;
/// Mutated inputs replayed through the layers per subject.
constexpr unsigned ReplaySamples = 1500;
/// Store-layer repetitions per subject (recover/restore).
constexpr unsigned StoreReps = 5;

using Clock = std::chrono::steady_clock;

int64_t nsSince(Clock::time_point T0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              T0)
      .count();
}

/// Time one call, appending its duration (ns) to Out.
template <typename F> void timed(std::vector<int64_t> &Out, F &&Fn) {
  Clock::time_point T0 = Clock::now();
  Fn();
  Out.push_back(nsSince(T0));
}

//===----------------------------------------------------------------------===//
// Minimal JSON writer
//===----------------------------------------------------------------------===//

class Json {
public:
  explicit Json(std::FILE *Out) : Out(Out) {}

  void beginObject() { open('{'); }
  void endObject() { close('}'); }
  void beginArray() { open('['); }
  void endArray() { close(']'); }
  void key(const char *K) {
    sep();
    str(K);
    std::fputc(':', Out);
    AfterKey = true;
  }
  void value(const std::string &S) {
    sep();
    str(S.c_str());
  }
  void value(const char *S) { value(std::string(S)); }
  void value(bool B) {
    sep();
    std::fputs(B ? "true" : "false", Out);
  }
  void value(uint64_t V) {
    sep();
    std::fprintf(Out, "%" PRIu64, V);
  }
  void value(int64_t V) {
    sep();
    std::fprintf(Out, "%" PRId64, V);
  }
  void value(double V) {
    sep();
    std::fprintf(Out, "%.9g", V);
  }
  template <typename T> void field(const char *K, const T &V) {
    key(K);
    value(V);
  }
  void field(const char *K, const std::vector<int64_t> &Vs) {
    key(K);
    beginArray();
    for (int64_t V : Vs)
      value(V);
    endArray();
  }
  void field(const char *K, const std::vector<double> &Vs) {
    key(K);
    beginArray();
    for (double V : Vs)
      value(V);
    endArray();
  }

private:
  void open(char C) {
    sep();
    std::fputc(C, Out);
    First = true;
  }
  void close(char C) {
    std::fputc(C, Out);
    First = false;
  }
  void sep() {
    if (AfterKey) {
      AfterKey = false;
      return;
    }
    if (!First)
      std::fputc(',', Out);
    First = false;
  }
  void str(const char *S) {
    std::fputc('"', Out);
    for (; *S; ++S) {
      if (*S == '"' || *S == '\\')
        std::fputc('\\', Out);
      if (static_cast<unsigned char>(*S) < 0x20)
        std::fprintf(Out, "\\u%04x", *S);
      else
        std::fputc(*S, Out);
    }
    std::fputc('"', Out);
  }

  std::FILE *Out;
  bool First = true;
  bool AfterKey = false;
};

//===----------------------------------------------------------------------===//
// Spans: workload -> subject -> layer batch, kept in memory and written
// when the run ends.
//===----------------------------------------------------------------------===//

struct Span {
  std::string Name;
  int64_t Start = 0, End = 0;
  int Parent = -1;
  uint64_t Calls = 0;  ///< timed calls inside a layer batch
  int64_t SelfNs = 0;  ///< their summed duration
};

class SpanLog {
public:
  SpanLog() : Epoch(Clock::now()) {}
  int begin(const std::string &Name, int Parent) {
    Span S;
    S.Name = Name;
    S.Parent = Parent;
    S.Start = nsSince(Epoch);
    Spans.push_back(S);
    return static_cast<int>(Spans.size() - 1);
  }
  void end(int Id, uint64_t Calls = 0, int64_t SelfNs = 0) {
    Spans[Id].End = nsSince(Epoch);
    Spans[Id].Calls = Calls;
    Spans[Id].SelfNs = SelfNs;
  }
  bool write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    for (size_t I = 0; I < Spans.size(); ++I) {
      Json J(F);
      const Span &S = Spans[I];
      J.beginObject();
      J.field("id", static_cast<int64_t>(I));
      J.field("parent", static_cast<int64_t>(S.Parent));
      J.field("name", S.Name);
      J.field("start_ns", S.Start);
      J.field("end_ns", S.End);
      if (S.Calls) {
        J.field("calls", S.Calls);
        J.field("self_ns", S.SelfNs);
      }
      J.endObject();
      std::fputc('\n', F);
    }
    return std::fclose(F) == 0;
  }

private:
  Clock::time_point Epoch;
  std::vector<Span> Spans;
};

//===----------------------------------------------------------------------===//
// Workload description
//===----------------------------------------------------------------------===//

struct Workload {
  std::string Name;
  strategy::FuzzerKind Kind = strategy::FuzzerKind::Path;
  bool Durable = false;
};

bool parseWorkload(const std::string &Name, Workload &W) {
  W.Name = Name;
  if (Name == "campaign_path") {
    W.Kind = strategy::FuzzerKind::Path;
  } else if (Name == "campaign_pcguard") {
    W.Kind = strategy::FuzzerKind::Pcguard;
  } else if (Name == "durable") {
    W.Kind = strategy::FuzzerKind::Path;
    W.Durable = true;
  } else {
    return false;
  }
  return true;
}

instr::Feedback feedbackOf(strategy::FuzzerKind K) {
  return K == strategy::FuzzerKind::Pcguard ? instr::Feedback::EdgePrecise
                                            : instr::Feedback::Path;
}

/// Campaign seed of subject I: a pure function of the benchmark seed.
uint64_t campaignSeed(uint64_t BenchSeed, size_t I) {
  return mix64(BenchSeed * 0x9e3779b97f4a7c15ULL + I + 1) | 1;
}

strategy::CampaignOptions campaignOptions(const Workload &W, uint64_t Seed) {
  strategy::CampaignOptions O; // Auto engine, Auto selective, 2^16 map
  O.Kind = W.Kind;
  O.Seed = Seed;
  return O;
}

/// Per-subject record of one run.
struct SubjectRun {
  std::string Name;
  uint64_t Seed = 0;
  std::vector<double> WallS; ///< untraced campaign wall time, per pass
  /// memoryProbeSeconds() taken just before each pass's campaign.
  std::vector<double> ProbeS;
  std::vector<uint8_t> Blob; ///< serializeCampaignResult of the first pass
  strategy::CampaignResult Result;
  std::vector<int64_t> CkptBytes; ///< checkpoint sizes at CkptInterval
  bool Ok = true;
  std::string Why;
};

struct Run {
  Workload W;
  uint64_t Seed = 0;
  double Seconds = 0;
  std::vector<SubjectRun> Subjects;
  std::vector<double> SetupS;
  uint64_t Passes = 0;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  int64_t PeakRssKb = 0;
  std::string ScratchDir;
};

void fail(Run &R, SubjectRun &S, const std::string &Why) {
  if (S.Ok)
    ++R.Failed;
  S.Ok = false;
  if (S.Why.empty())
    S.Why = Why;
}

using Builds = std::vector<std::unique_ptr<strategy::SubjectBuild>>;

/// Cold set-up of the whole workload: compile, instrument, decode images
/// and JIT-compile every subject exactly as the first campaign would.
bool setUp(const Workload &W, Builds &Out) {
  const auto &All = targets::allSubjects();
  Out.clear();
  strategy::CampaignOptions O = campaignOptions(W, 1);
  for (const strategy::Subject &S : All) {
    auto B = std::make_unique<strategy::SubjectBuild>(S);
    if (!B->ok() || !B->tryInstrumented(feedbackOf(W.Kind), O))
      return false;
    Out.push_back(std::move(B));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// One campaign (the unit of the closed loop)
//===----------------------------------------------------------------------===//

/// Run one campaign of the workload; returns false (with Why) when it did
/// not complete as the workload requires.
bool runOne(const Workload &W, strategy::SubjectBuild &B, uint64_t Seed,
            const std::string &StoreDir, strategy::CampaignResult &Out,
            std::vector<int64_t> *CkptBytes, std::string &Why,
            const telemetry::TraceConfig *Trace = nullptr) {
  strategy::CampaignOptions O = campaignOptions(W, Seed);
  if (Trace)
    O.Trace = *Trace;
  strategy::CampaignError Err;
  if (!W.Durable) {
    Out = strategy::runCampaign(B, O, &Err);
    if (Err.Failed)
      Why = "campaign failed: " + Err.Message;
    return !Err.Failed;
  }
  uint64_t Seen = 0;
  O.StoreDir = StoreDir;
  O.CheckpointInterval = CkptInterval;
  O.CheckpointSink = [&Seen, CkptBytes](const std::vector<uint8_t> &Blob) {
    ++Seen;
    if (CkptBytes)
      CkptBytes->push_back(static_cast<int64_t>(Blob.size()));
  };
  O.StopRequest = [&Seen] { return Seen == PreemptAtCheckpoint; };
  strategy::runCampaign(B, O, &Err);
  if (!Err.Preempted) {
    Why = "durable campaign was not preempted at its middle checkpoint";
    return false;
  }
  O.StopRequest = nullptr;
  strategy::CampaignError Err2;
  Out = strategy::runStoredCampaign(B, O, &Err2);
  if (Err2.Failed) {
    Why = "resume from store failed: " + Err2.Message;
    return false;
  }
  return true;
}

std::string storeDirFor(const Run &R, size_t Subject, uint64_t Pass) {
  return R.ScratchDir + "/store/" + targets::allSubjects()[Subject].Name +
         "-" + std::to_string(Pass);
}

void removeTree(const std::string &Dir) {
  std::error_code Ec;
  fs::remove_all(Dir, Ec);
}

volatile uint64_t ProbeSink = 0;

constexpr uint32_t ProbeWords = 1u << 20;
constexpr uint32_t SweepWords = 4u << 20;
/// Bytes the probe's buffers keep resident (both are written whole when
/// they are created); peak RSS is reported without them.
constexpr int64_t ProbeBytes = (ProbeWords + SweepWords) * sizeof(uint64_t);

/// Seconds taken by a fixed random-access kernel over an 8 MiB buffer.
/// It shares no code with the program under test and probes how fast the
/// machine's memory hierarchy runs right now: other tenants contending
/// for it slow campaigns and this probe alike, so run.py reports times
/// scaled to a fixed probe speed. Before the clock starts, a sweep over a
/// separate 32 MiB buffer, many times a core's private caches, replaces
/// whatever the last campaign left in them, so how much memory that
/// campaign touched barely moves the probe (README.md has the check).
double memoryProbeSeconds() {
  constexpr uint32_t WordsPerLine = 8;
  static std::vector<uint64_t> Buf(ProbeWords), Sweep(SweepWords);
  uint64_t X = 0x9e3779b97f4a7c15ULL, Acc = 0;
  for (uint32_t I = 0; I < SweepWords; I += WordsPerLine)
    Acc += ++Sweep[I];
  Clock::time_point T0 = Clock::now();
  for (uint32_t I = 0; I < 300000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    uint64_t &W = Buf[X & (ProbeWords - 1)];
    Acc += W;
    W = Acc ^ I;
  }
  ProbeSink = Acc;
  return nsSince(T0) * 1e-9;
}

int64_t peakRssKb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return RU.ru_maxrss - ProbeBytes / 1024;
}

//===----------------------------------------------------------------------===//
// Timed run + oracle
//===----------------------------------------------------------------------===//

void timedRun(Run &R, Builds &B) {
  const auto &All = targets::allSubjects();
  R.Subjects.resize(All.size());
  for (size_t I = 0; I < All.size(); ++I) {
    R.Subjects[I].Name = All[I].Name;
    R.Subjects[I].Seed = campaignSeed(R.Seed, I);
  }
  memoryProbeSeconds(); // maps the probe's buffer outside any measurement
  Clock::time_point T0 = Clock::now();
  do {
    for (size_t I = 0; I < All.size(); ++I) {
      SubjectRun &S = R.Subjects[I];
      std::string Dir = storeDirFor(R, I, R.Passes);
      if (R.W.Durable)
        removeTree(Dir);
      strategy::CampaignResult Res;
      std::string Why;
      std::vector<int64_t> Ckpts;
      ++R.Attempted;
      S.ProbeS.push_back(memoryProbeSeconds());
      Clock::time_point C0 = Clock::now();
      bool Ok = runOne(R.W, *B[I], S.Seed, Dir, Res, &Ckpts, Why);
      S.WallS.push_back(nsSince(C0) * 1e-9);
      if (R.W.Durable)
        removeTree(Dir);
      if (!Ok) {
        fail(R, S, Why);
        continue;
      }
      std::vector<uint8_t> Blob = strategy::serializeCampaignResult(Res);
      if (S.Blob.empty()) {
        S.Blob = std::move(Blob);
        S.Result = std::move(Res);
        S.CkptBytes = std::move(Ckpts);
      } else if (Blob != S.Blob) {
        fail(R, S, "result differs between passes of the same seed");
      }
    }
    ++R.Passes;
  } while (nsSince(T0) * 1e-9 < R.Seconds);
  R.PeakRssKb = peakRssKb();
}

/// The correctness oracle, outside the timed region. campaign_*: the same
/// (subject, kind, seed) on the reference interpreter with selective off.
/// durable: the in-memory campaign_path result for the same subject and
/// seed. Both carry an in-memory checkpoint sink at the durable interval,
/// which never perturbs results and gives ckpt_kb its value on the
/// campaign_* workloads.
void oracle(Run &R, Builds &B) {
  for (size_t I = 0; I < R.Subjects.size(); ++I) {
    SubjectRun &S = R.Subjects[I];
    if (S.Blob.empty())
      continue;
    strategy::CampaignOptions O = campaignOptions(R.W, S.Seed);
    if (!R.W.Durable) {
      O.VmMode = vm::VmExecMode::Interpreter;
      O.Selective = vm::SelectiveMode::Off;
    }
    std::vector<int64_t> Ckpts;
    O.CheckpointInterval = CkptInterval;
    O.CheckpointSink = [&Ckpts](const std::vector<uint8_t> &Blob) {
      Ckpts.push_back(static_cast<int64_t>(Blob.size()));
    };
    strategy::CampaignError Err;
    strategy::CampaignResult Ref = strategy::runCampaign(*B[I], O, &Err);
    if (Err.Failed) {
      fail(R, S, "reference campaign failed: " + Err.Message);
      continue;
    }
    if (strategy::serializeCampaignResult(Ref) != S.Blob)
      fail(R, S,
           R.W.Durable ? "durable result differs from the in-memory campaign"
                       : "result differs from the reference interpreter");
    if (Ckpts.size() != CheckpointsPerCampaign)
      fail(R, S,
           "campaign wrote " + std::to_string(Ckpts.size()) +
               " checkpoints, not " + std::to_string(CheckpointsPerCampaign));
    if (R.W.Durable) {
      // The resumed campaign writes the same checkpoints as the
      // uninterrupted one.
      if (Ckpts != S.CkptBytes)
        fail(R, S, "durable checkpoints differ from the in-memory ones");
    } else {
      S.CkptBytes = std::move(Ckpts);
    }
  }
}

//===----------------------------------------------------------------------===//
// Traced run
//===----------------------------------------------------------------------===//

/// Per-call samples (ns) of every timed layer call, keyed by metric name.
using Samples = std::map<std::string, std::vector<int64_t>>;

struct TraceSubject {
  Samples S;
  std::map<std::string, int64_t> Count; ///< exact per-campaign counts
  double TracedWallS = 0;
  int64_t JitCodeBytes = 0;
  /// memoryProbeSeconds() before the traced campaign and before the
  /// replay, so their times scale like the timed passes'.
  double TracedProbeS = 0, ReplayProbeS = 0;
  /// The traced campaign's exec.steps histogram (log2 buckets), and the
  /// steps of every replayed input: run.py reweights the replayed exec
  /// costs to the campaign's own mix of short and long executions.
  std::vector<int64_t> StepsHist =
      std::vector<int64_t>(telemetry::Histogram::NumBuckets);
  std::vector<int64_t> ReplaySteps;
};

/// FuzzerOptions for the workload's campaign, resolving the Auto engine
/// and selective knobs the way runCampaign does.
fuzz::FuzzerOptions fuzzerOptions(const strategy::InstrumentedBuild &IB,
                                  const strategy::CampaignOptions &O) {
  fuzz::FuzzerOptions FO;
  FO.MapSizeLog2 = O.MapSizeLog2;
  FO.Seed = O.Seed;
  FO.Mut.MaxLen = O.MaxInputLen;
  FO.Exec.StepLimit = O.StepLimit;
  FO.GrowthSampleInterval = O.GrowthSampleInterval;
  if (vm::fastPathEnabled(O.VmMode))
    FO.Image = IB.Image.get();
  if (vm::jitEnabled(O.VmMode))
    FO.Jit = IB.Jit.get();
  if (vm::selectiveEnabled(O.Selective)) {
    FO.Selective = true;
    FO.CheapImage = IB.CheapImage.get();
    if (vm::jitEnabled(O.VmMode))
      FO.CheapJit = IB.CheapJit.get();
  }
  return FO;
}

/// Step 1: the set-up calls on a cold build, one layer at a time.
void traceSetUp(const Workload &W, const strategy::Subject &Subj,
                TraceSubject &T) {
  for (unsigned Rep = 0; Rep < TraceSetupReps; ++Rep) {
    std::unique_ptr<strategy::SubjectBuild> B;
    timed(T.S["lang.compile_ms"],
          [&] { B = std::make_unique<strategy::SubjectBuild>(Subj); });
    // Instrumentation only: no engine, no selective tier.
    strategy::CampaignOptions O = campaignOptions(W, 1);
    O.VmMode = vm::VmExecMode::Interpreter;
    O.Selective = vm::SelectiveMode::Off;
    const strategy::InstrumentedBuild *IB = nullptr;
    timed(T.S["instrument.ms"],
          [&] { IB = B->tryInstrumented(feedbackOf(W.Kind), O); });
    std::unique_ptr<vm::ProgramImage> Full, Cheap;
    timed(T.S["vm.image_ms"], [&] {
      Full = std::make_unique<vm::ProgramImage>(
          vm::ProgramImage::build(IB->Mod, &B->shadow()));
      instr::ElisionPlan Plan = instr::planProbeElision(IB->Mod);
      Cheap = std::make_unique<vm::ProgramImage>(
          vm::ProgramImage::build(IB->Mod, &B->shadow(), &Plan));
    });
    std::unique_ptr<vm::jit::JitProgram> J1, J2;
    timed(T.S["vm.jit_compile_ms"], [&] {
      J1 = vm::jit::JitProgram::compile(*Full);
      J2 = vm::jit::JitProgram::compile(*Cheap);
    });
    T.JitCodeBytes = (J1 ? static_cast<int64_t>(J1->stats().CodeBytes) : 0) +
                     (J2 ? static_cast<int64_t>(J2->stats().CodeBytes) : 0);
  }
}

/// Step 2: one traced campaign; reads the exact counts off its counters.
bool tracedCampaign(const Run &R, size_t I, strategy::SubjectBuild &B,
                    TraceSubject &T, std::string &Why) {
  const SubjectRun &S = R.Subjects[I];
  telemetry::TraceConfig TC;
  TC.Enabled = true;
  TC.RingCapacityLog2 = 20; // no SeedAdded event may be overwritten
  std::string Dir = R.ScratchDir + "/store/traced-" + S.Name;
  removeTree(Dir);
  strategy::CampaignResult Res;
  std::vector<int64_t> Ckpts;
  T.TracedProbeS = memoryProbeSeconds();
  Clock::time_point C0 = Clock::now();
  bool Ok = runOne(R.W, B, S.Seed, Dir, Res, &Ckpts, Why, &TC);
  T.TracedWallS = nsSince(C0) * 1e-9;
  removeTree(Dir);
  if (!Ok)
    return false;
  if (strategy::serializeCampaignResult(Res) != S.Blob) {
    Why = "traced campaign result differs from the untraced one";
    return false;
  }
  if (!Res.Trace) {
    Why = "traced campaign carries no trace";
    return false;
  }
  uint64_t SeedAdds = 0;
  for (const telemetry::InstanceRecord &Inst : Res.Trace->Instances) {
    for (const auto &[Name, V] : Inst.Metrics.counters())
      T.Count["ctr." + Name] += static_cast<int64_t>(V);
    for (const auto &[Name, H] : Inst.Metrics.histograms()) {
      T.Count["hist." + Name + ".count"] += static_cast<int64_t>(H.Count);
      T.Count["hist." + Name + ".sum"] += static_cast<int64_t>(H.Sum);
    }
    if (auto It = Inst.Metrics.histograms().find("exec.steps");
        It != Inst.Metrics.histograms().end())
      for (uint32_t Bk = 0; Bk < telemetry::Histogram::NumBuckets; ++Bk)
        T.StepsHist[Bk] += static_cast<int64_t>(It->second.Buckets[Bk]);
    for (const telemetry::Event &E : Inst.Events)
      SeedAdds += E.Kind == telemetry::EventKind::SeedAdded;
  }
  T.Count["seed_added_events"] = static_cast<int64_t>(SeedAdds);
  T.Count["checkpoints"] = static_cast<int64_t>(Ckpts.size());
  T.Count["crashes"] = static_cast<int64_t>(Res.TotalCrashes);
  T.Count["hangs"] = static_cast<int64_t>(Res.TotalHangs);
  return true;
}

/// Steps 3 and 4: drive a fuzz::Fuzzer to the same budget, then replay a
/// seeded sample of mutated inputs through each layer's public functions.
bool replayLayers(const Run &R, size_t I, strategy::SubjectBuild &B,
                  TraceSubject &T, std::string &Why) {
  const SubjectRun &S = R.Subjects[I];
  strategy::CampaignOptions O = campaignOptions(R.W, S.Seed);
  const strategy::InstrumentedBuild *IB =
      B.tryInstrumented(feedbackOf(R.W.Kind), O);
  if (!IB) {
    Why = "instrumentation failed";
    return false;
  }
  fuzz::FuzzerOptions FO = fuzzerOptions(*IB, O);

  // durable: time the store layer at every real checkpoint of the run.
  std::unique_ptr<strategy::CampaignStore> Store;
  std::vector<uint8_t> LastCkpt;
  std::string StoreDir = R.ScratchDir + "/store/replay-" + S.Name;
  if (R.W.Durable) {
    removeTree(StoreDir);
    std::string Err;
    Store = strategy::CampaignStore::open(StoreDir, S.Name, O, &Err);
    if (!Store) {
      Why = "cannot open store: " + Err;
      return false;
    }
    FO.CheckpointInterval = CkptInterval;
    FO.OnCheckpoint = [&](const fuzz::Fuzzer &F) {
      std::vector<uint8_t> Snap;
      timed(T.S["fuzz.snapshot_ms"], [&] { Snap = F.snapshot(); });
      std::vector<uint8_t> Sealed;
      timed(T.S["strategy.serialize_us"], [&] {
        ByteWriter W;
        strategy::writeOptionsFingerprint(W, O);
        W.blob(Snap);
        Sealed = fuzz::sealSnapshot(W.take());
      });
      timed(T.S["strategy.store_write_ms"],
            [&] { Store->writeCheckpoint(Sealed); });
      LastCkpt = std::move(Snap);
    };
  }

  fuzz::Fuzzer F(IB->Mod, IB->Report, B.shadow(), FO);
  for (const fuzz::Input &Seed : B.subject().Seeds)
    F.addSeed(Seed);
  const int64_t SeedsKept = static_cast<int64_t>(F.corpus().size());
  F.run(O.ExecBudget);
  const fuzz::Corpus &Q = F.corpus();
  if (Q.size() != S.Result.FinalQueueSize ||
      F.coveredEdgeList() != S.Result.EdgeSet) {
    Why = "replay fuzzer diverged from the campaign";
    return false;
  }
  T.Count["seeds"] = static_cast<int64_t>(B.subject().Seeds.size());
  T.Count["seeds_kept"] = SeedsKept;
  T.Count["queue_adds"] = static_cast<int64_t>(Q.size());
  T.Count["cull_passes"] = static_cast<int64_t>(Q.cullPasses());
  T.Count["selective"] = FO.Selective ? 1 : 0;

  if (Store) {
    for (unsigned Rep = 0; Rep < StoreReps; ++Rep) {
      std::vector<uint8_t> Blob;
      timed(T.S["strategy.store_recover_ms"], [&] { Store->recover(Blob); });
      fuzz::Fuzzer G(IB->Mod, IB->Report, B.shadow(), FO);
      bool Restored = false;
      timed(T.S["fuzz.restore_ms"],
            [&] { Restored = G.restore(LastCkpt); });
      if (!Restored || Blob.empty()) {
        Why = "store recover/restore failed";
        return false;
      }
    }
    Store.reset();
    removeTree(StoreDir);
  }

  // Layer replay. The machines and map are the campaign's own kinds: the
  // full image (+JIT) writing a 2^16 map, and the probe-free cheap tier.
  vm::Vm Full(IB->Mod, &B.shadow());
  if (FO.Image)
    Full.attachImage(FO.Image);
  if (FO.Jit)
    Full.attachJit(FO.Jit);
  std::unique_ptr<vm::Vm> Cheap;
  if (FO.Selective) {
    Cheap = std::make_unique<vm::Vm>(IB->Mod, &B.shadow());
    if (FO.CheapImage)
      Cheap->attachImage(FO.CheapImage);
    if (FO.CheapJit)
      Cheap->attachJit(FO.CheapJit);
  }
  cov::CoverageMap Map(O.MapSizeLog2);
  cov::VirginMap Virgin(Map.size());
  vm::FeedbackContext Fb;
  Fb.Map = Map.data();
  Fb.MapMask = Map.mask();
  Fb.FuncKeys = IB->Report.FuncKeys.data();

  // Warm the virgin map with the final corpus, so novelty checks below
  // run against an end-of-campaign view.
  for (size_t E = 0; E < Q.size(); ++E) {
    Map.reset();
    vm::ExecResult Res = Full.run(Q[E].Data.data(), Q[E].Data.size(),
                                  FO.Exec, &Fb);
    if (!Res.crashed() && !Res.hung()) {
      Map.classifyCounts();
      Virgin.hasNewBits(Map);
    }
  }

  Rng Pick(mix64(S.Seed ^ 0x7e91a1ULL));
  Rng MutRng(mix64(S.Seed ^ 0x5911ceULL));
  fuzz::Mutator Mut(MutRng, FO.Mut);
  const std::vector<int64_t> &Dict = F.cmpDict();
  int64_t DensitySum = 0, DensityN = 0;
  T.ReplayProbeS = memoryProbeSeconds();
  for (unsigned K = 0; K < ReplaySamples; ++K) {
    size_t Index = Pick.index(Q.size());
    fuzz::Input Data = Q[Index].Data;
    if (Q.size() > 1 && Pick.chance(FO.SplicePercent, 100)) {
      size_t Donor = Pick.index(Q.size());
      while (Donor == Index)
        Donor = Pick.index(Q.size());
      const fuzz::Input &Other = Q[Donor].Data;
      timed(T.S["fuzz.splice_us"], [&] { Mut.splice(Data, Other, Dict); });
    } else {
      timed(T.S["fuzz.havoc_us"], [&] { Mut.havoc(Data, Dict); });
    }
    vm::ExecOptions EO = FO.Exec;
    EO.LogCmps = Pick.oneIn(16);
    if (Cheap) {
      uint64_t Sig = 0;
      vm::FeedbackContext CFb;
      CFb.PathSig = &Sig;
      timed(T.S["vm.cheap_exec_us"],
            [&] { Cheap->run(Data.data(), Data.size(), EO, &CFb); });
    }
    timed(T.S["cov.reset_us"], [&] { Map.reset(); });
    vm::ExecResult Res;
    timed(T.S["vm.full_exec_us"],
          [&] { Res = Full.run(Data.data(), Data.size(), EO, &Fb); });
    T.ReplaySteps.push_back(static_cast<int64_t>(Res.Steps));
    if (Res.crashed() || Res.hung())
      continue;
    timed(T.S["cov.classify_us"], [&] { Map.classifyCounts(); });
    timed(T.S["cov.novelty_us"], [&] { Virgin.hasNewBits(Map); });
    timed(T.S["cov.checksum_us"], [&] { (void)Map.checksum(); });
    DensitySum += Map.countBytes();
    ++DensityN;
  }
  T.Count["density_sum"] = DensitySum;
  T.Count["density_n"] = DensityN;

  // Queue layer: rebuild the final corpus entry by entry, culling
  // whenever the top-rated table changed (as the loop does).
  fuzz::Corpus Rebuilt(Map.size());
  for (size_t E = 0; E < Q.size(); ++E) {
    fuzz::QueueEntry Copy = Q[E];
    timed(T.S["fuzz.queue_add_us"], [&] { Rebuilt.add(std::move(Copy)); });
    if (Rebuilt.cullPending())
      timed(T.S["fuzz.cull_us"], [&] { Rebuilt.cullIfNeeded(); });
  }
  return true;
}

void traceRun(Run &R, Builds &B, SpanLog &Spans, int Root,
              std::vector<TraceSubject> &Out) {
  const auto &All = targets::allSubjects();
  Out.resize(All.size());
  for (size_t I = 0; I < All.size(); ++I) {
    SubjectRun &S = R.Subjects[I];
    if (!S.Ok)
      continue;
    TraceSubject &T = Out[I];
    int Sub = Spans.begin(S.Name, Root);
    int Ph = Spans.begin("setup", Sub);
    traceSetUp(R.W, All[I], T);
    Spans.end(Ph);
    Ph = Spans.begin("traced_campaign", Sub);
    std::string Why;
    bool Ok = tracedCampaign(R, I, *B[I], T, Why);
    Spans.end(Ph);
    if (Ok) {
      Ph = Spans.begin("layer_replay", Sub);
      Ok = replayLayers(R, I, *B[I], T, Why);
      Spans.end(Ph);
    }
    if (Ok && T.Count["seed_added_events"] != T.Count["queue_adds"]) {
      Ok = false;
      Why = "SeedAdded events disagree with the replayed queue";
    }
    if (!Ok)
      fail(R, S, Why);
    // One span per layer batch, carrying its call count and self time.
    for (const auto &[Name, Vs] : T.S) {
      int64_t Self = 0;
      for (int64_t V : Vs)
        Self += V;
      int L = Spans.begin(Name, Sub);
      Spans.end(L, Vs.size(), Self);
    }
    Spans.end(Sub);
  }
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

void printConfig(Json &J) {
  J.key("config");
  J.beginObject();
  vm::VmExecMode A = vm::VmExecMode::Auto;
  J.field("engine", vm::jitEnabled(A)        ? "jit"
                    : vm::fastPathEnabled(A) ? "fastpath"
                                             : "interpreter");
  J.field("jit_available", vm::jit::available());
  J.field("selective", vm::selectiveEnabled(vm::SelectiveMode::Auto));
  J.field("map_size", static_cast<uint64_t>(1u << strategy::CampaignOptions()
                                                       .MapSizeLog2));
  J.field("threaded_dispatch", vm::threadedDispatch());
  J.field("build_type", PERFBENCH_BUILD_TYPE);
  J.field("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  J.field("exec_budget", ExecBudget);
  J.field("ckpt_interval", CkptInterval);
  J.endObject();
}

void printRun(const Run &R, const std::vector<TraceSubject> *Trace) {
  Json J(stdout);
  J.beginObject();
  J.field("workload", R.W.Name);
  J.field("seed", R.Seed);
  printConfig(J);
  J.field("setup_s", R.SetupS);
  J.field("passes", R.Passes);
  J.field("attempted", R.Attempted);
  J.field("failed", R.Failed);
  J.field("peak_rss_kb", R.PeakRssKb);
  J.key("subjects");
  J.beginArray();
  for (size_t I = 0; I < R.Subjects.size(); ++I) {
    const SubjectRun &S = R.Subjects[I];
    J.beginObject();
    J.field("name", S.Name);
    J.field("seed", S.Seed);
    J.field("ok", S.Ok);
    if (!S.Ok)
      J.field("why", S.Why);
    J.field("execs", S.Result.Execs);
    J.field("edges", static_cast<uint64_t>(S.Result.edgesCovered()));
    J.field("bugs", static_cast<uint64_t>(S.Result.BugIds.size()));
    J.field("queue", S.Result.FinalQueueSize);
    J.field("wall_s", S.WallS);
    J.field("probe_s", S.ProbeS);
    J.field("ckpt_bytes", S.CkptBytes);
    if (Trace) {
      const TraceSubject &T = (*Trace)[I];
      J.field("traced_wall_s", T.TracedWallS);
      J.field("traced_probe_s", T.TracedProbeS);
      J.field("replay_probe_s", T.ReplayProbeS);
      J.field("steps_hist", T.StepsHist);
      J.field("replay_steps", T.ReplaySteps);
      J.field("jit_code_bytes", T.JitCodeBytes);
      J.key("counts");
      J.beginObject();
      for (const auto &[Name, V] : T.Count)
        J.field(Name.c_str(), V);
      J.endObject();
      J.key("samples_ns");
      J.beginObject();
      for (const auto &[Name, Vs] : T.S)
        J.field(Name.c_str(), Vs);
      J.endObject();
    }
    J.endObject();
  }
  J.endArray();
  J.endObject();
  std::fputc('\n', stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload NAME --seed N "
               "--seconds S --trace 0|1 --scratch DIR [--spans FILE]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Run R;
  std::string Workload, SpansPath;
  bool Trace = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      Workload = V;
    else if (K == "--seed")
      R.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      R.Seconds = std::strtod(V.c_str(), nullptr);
    else if (K == "--trace")
      Trace = V == "1";
    else if (K == "--scratch")
      R.ScratchDir = V;
    else if (K == "--spans")
      SpansPath = V;
    else
      return usage();
  }
  if (!parseWorkload(Workload, R.W) || R.ScratchDir.empty() ||
      R.Seconds <= 0)
    return usage();

  SpanLog Spans;
  int Root = Spans.begin(R.W.Name, -1);

  // Set-up, several times from cold; the last set of builds is kept.
  Builds B;
  int Ph = Spans.begin("setup", Root);
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    Clock::time_point T0 = Clock::now();
    if (!setUp(R.W, B)) {
      std::fprintf(stderr, "perfbench: subject set-up failed\n");
      return 2;
    }
    R.SetupS.push_back(nsSince(T0) * 1e-9);
  }
  Spans.end(Ph);

  Ph = Spans.begin("timed", Root);
  timedRun(R, B);
  Spans.end(Ph);
  Ph = Spans.begin("oracle", Root);
  oracle(R, B);
  Spans.end(Ph);

  std::vector<TraceSubject> TraceOut;
  if (Trace) {
    Ph = Spans.begin("traced", Root);
    traceRun(R, B, Spans, Ph, TraceOut);
    Spans.end(Ph);
  }
  removeTree(R.ScratchDir + "/store");
  Spans.end(Root);
  if (!SpansPath.empty() && !Spans.write(SpansPath))
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 SpansPath.c_str());
  printRun(R, Trace ? &TraceOut : nullptr);
  return R.Failed ? 1 : 0;
}
