//===- vm_throughput.cpp - VM engine-matrix throughput measurement ------------===//
//
// Part of the pathfuzz project.
//
// Measures what each VM execution engine buys over the reference
// interpreter, backing docs/PERFORMANCE.md. The harness is an N-engine
// matrix — the interpreter is always engine 0 (the baseline), and every
// other engine (the pre-decoded fast path, the baseline JIT when the
// platform supports it) rides the same legs:
//
//  - raw executor throughput on the example subjects
//    (examples/minilang/*.ml): each replays the same mutated-seed input
//    set through every engine — ns/step, execs/sec, best-of and
//    median-of-paired-reps speedup per subject, with a field-level
//    identity sweep (fault, steps, return value, coverage map, shadow
//    edges, cmp log) before any timing. The headline is the median
//    speedup across the example subjects, per engine;
//  - end-to-end: one campaign leg per engine on a shared target build,
//    rotating leg order across reps, median per-pair speedup and
//    best-of-N execs/sec, plus the serializeCampaignResult
//    byte-identity check against the interpreter leg;
//  - engine bookkeeping: pre-decoded image size and cache hits, JIT
//    code size and bailout counts, and the vm.fastpath.* / vm.jit.*
//    telemetry series from a traced campaign on the fastest engine;
//  - and writes the whole record to BENCH_vm.json (PATHFUZZ_BENCH_OUT
//    overrides the path).
//
// The speedup is machine-dependent; the exit code reflects only the
// identity checks, which must hold everywhere.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "cov/CoverageMap.h"
#include "strategy/BuildCache.h"
#include "vm/Image.h"
#include "vm/jit/Jit.h"

#include <algorithm>
#include <cinttypes>
#include <cstring>

using namespace pathfuzz;
using namespace pathfuzz::bench;
using namespace pathfuzz::strategy;

namespace {

/// One row of the engine matrix. Engine 0 is always the reference
/// interpreter; speedups are relative to it.
struct EngineSpec {
  const char *Name;
  vm::VmExecMode Mode;
  bool UseImage; ///< attach the pre-decoded image
  bool UseJit;   ///< attach the compiled native program too
};

/// The engines this build can run. The JIT row is present only when the
/// platform supports it (x86-64 with W^X code pages).
std::vector<EngineSpec> engineMatrix() {
  std::vector<EngineSpec> E = {
      {"interp", vm::VmExecMode::Interpreter, false, false},
      {"fastpath", vm::VmExecMode::FastPath, true, false},
  };
  if (vm::jit::available())
    E.push_back({"jit", vm::VmExecMode::Jit, true, true});
  return E;
}

/// The raw-executor workload: the subject's seeds plus mutated copies
/// (fixed random stream, independent of the engine under test) — the
/// same shape of input a fuzzing campaign replays.
std::vector<fuzz::Input> makeWorkload(const Subject &S, size_t Count) {
  std::vector<fuzz::Input> Inputs = S.Seeds;
  Rng R(0x5eedbeef);
  while (Inputs.size() < Count) {
    fuzz::Input In = S.Seeds[R.index(S.Seeds.size())];
    for (int M = 0; M < 4; ++M)
      In[R.index(In.size())] = static_cast<uint8_t>(R.below(256));
    Inputs.push_back(std::move(In));
  }
  return Inputs;
}

struct RawEngine {
  vm::Vm Machine;
  cov::CoverageMap Map;

  RawEngine(const InstrumentedBuild &IB, const instr::ShadowEdgeIndex &Shadow,
            const EngineSpec &Spec)
      : Machine(IB.Mod, &Shadow), Map(16) {
    if (Spec.UseImage)
      Machine.attachImage(IB.Image.get());
    if (Spec.UseJit)
      Machine.attachJit(IB.Jit.get());
  }

  vm::ExecResult exec(const InstrumentedBuild &IB, const fuzz::Input &In,
                      bool LogCmps, bool ResetMap) {
    if (ResetMap)
      Map.reset();
    vm::FeedbackContext Fb;
    Fb.Map = Map.data();
    Fb.MapMask = Map.mask();
    Fb.FuncKeys = IB.Report.FuncKeys.data();
    vm::ExecOptions EO;
    EO.LogCmps = LogCmps;
    return Machine.run(In.data(), In.size(), EO, &Fb);
  }
};

/// Field-level identity of two executions (everything ExecResult carries
/// except the fast-path-only DirtyGlobalCells bookkeeping).
bool sameResult(const vm::ExecResult &A, const vm::ExecResult &B) {
  return A.TheFault.Kind == B.TheFault.Kind && A.TheFault.Func == B.TheFault.Func &&
         A.TheFault.Block == B.TheFault.Block &&
         A.TheFault.InstrIdx == B.TheFault.InstrIdx &&
         A.TheFault.stackHash() == B.TheFault.stackHash() &&
         A.Steps == B.Steps && A.ReturnValue == B.ReturnValue &&
         A.ShadowEdges == B.ShadowEdges && A.CmpOperands == B.CmpOperands &&
         A.HeapAllocs == B.HeapAllocs &&
         A.HeapCellsAllocated == B.HeapCellsAllocated;
}

/// Per-engine timing stats within one subject's measurement.
struct EngineRawStats {
  double NsPerStep = 0.0;
  double Eps = 0.0;
  double SpeedupBest = 0.0;   ///< vs engine 0, best-of-reps legs
  double SpeedupMedian = 0.0; ///< vs engine 0, median of per-rep pairs
  bool Identical = true;      ///< matched engine 0 on every input
};

/// Per-example-subject measurement record: one EngineRawStats per row of
/// the matrix (index-aligned with the EngineSpec list).
struct RawMeasurement {
  std::string Name;
  uint64_t StepsPerExec = 0;
  std::vector<EngineRawStats> Per;
};

/// Identity sweep + rotating-leg timing of one subject through every
/// engine. The identity pass resets the coverage map per exec and
/// compares every observable field against engine 0; the timed legs skip
/// the reset (a constant memset cost identical for all engines) so they
/// measure the executor itself, and every timed rep checks that each
/// engine's step total matches engine 0's.
RawMeasurement measureRaw(const Subject &S, const InstrumentedBuild &IB,
                          const SubjectBuild &SB,
                          const std::vector<EngineSpec> &Engines,
                          uint32_t Reps) {
  const size_t N = Engines.size();
  RawMeasurement M;
  M.Name = S.Name;
  M.Per.resize(N);

  std::vector<fuzz::Input> Inputs = makeWorkload(S, 256);
  std::vector<RawEngine> Eng;
  Eng.reserve(N);
  for (const EngineSpec &Spec : Engines)
    Eng.emplace_back(IB, SB.shadow(), Spec);

  uint64_t TotalSteps = 0;
  for (const fuzz::Input &In : Inputs) {
    vm::ExecResult Base = Eng[0].exec(IB, In, /*LogCmps=*/true, true);
    for (size_t I = 1; I < N; ++I) {
      vm::ExecResult R = Eng[I].exec(IB, In, /*LogCmps=*/true, true);
      M.Per[I].Identical &= sameResult(Base, R);
      M.Per[I].Identical &=
          std::memcmp(Eng[0].Map.data(), Eng[I].Map.data(),
                      Eng[0].Map.size()) == 0;
    }
    TotalSteps += Base.Steps;
  }
  M.StepsPerExec = TotalSteps / Inputs.size();

  const LegTimes T = timeLegs(
      N, Reps,
      [&](size_t I, uint32_t) {
        uint64_t Steps = 0;
        for (const fuzz::Input &In : Inputs)
          Steps += Eng[I].exec(IB, In, /*LogCmps=*/false, false).Steps;
        return Steps;
      },
      [&](uint32_t, const std::vector<uint64_t> &Steps) {
        for (size_t I = 1; I < N; ++I)
          M.Per[I].Identical &= Steps[I] == Steps[0];
      });
  for (size_t I = 0; I < N; ++I) {
    EngineRawStats &St = M.Per[I];
    const uint64_t Best = T.best(I);
    if (TotalSteps)
      St.NsPerStep = double(Best) * 1000.0 / double(TotalSteps);
    St.Eps = T.perSec(I, Inputs.size());
    if (I) {
      St.SpeedupMedian = T.medianRatio(0, I);
      St.SpeedupBest = Best ? double(T.best(0)) / double(Best) : 0.0;
    }
  }
  return M;
}

/// Per-engine campaign stats (index-aligned with the EngineSpec list).
struct EngineCampaignStats {
  uint64_t MinMicros = ~0ull;
  double Eps = 0.0;
  double SpeedupMedian = 0.0; ///< vs engine 0
  bool Identical = true;      ///< serialized result matched engine 0
};

} // namespace

int main() {
  BenchConfig C = BenchConfig::fromEnv();
  C.printHeader("VM throughput: engine matrix vs reference interpreter");

  const std::vector<EngineSpec> Engines = engineMatrix();
  const size_t N = Engines.size();

  //===--------------------------------------------------------------------===//
  // Raw executor on the example subjects: identity sweep, rotating-leg
  // timing through every engine.
  //===--------------------------------------------------------------------===//

  std::vector<Subject> Examples = loadExampleSubjects();
  const uint32_t RawReps = std::max<uint32_t>(7, C.Runs);
  std::vector<RawMeasurement> Raw;
  bool RawIdentical = true;
  int64_t JitCodeBytes = 0, JitFuncs = 0;
  for (const Subject &S : Examples) {
    BuildCache Cache;
    std::shared_ptr<SubjectBuild> SB = Cache.get(S);
    CampaignOptions O;
    O.VmMode = Engines.back().Mode; // deepest engine compiles image + JIT
    const InstrumentedBuild &IB = SB->instrumented(instr::Feedback::Path, O);
    if (IB.Jit) {
      JitCodeBytes += static_cast<int64_t>(IB.Jit->stats().CodeBytes);
      JitFuncs += IB.Jit->stats().NumFuncs;
    }
    Raw.push_back(measureRaw(S, IB, *SB, Engines, RawReps));
    for (size_t I = 1; I < N; ++I)
      RawIdentical &= Raw.back().Per[I].Identical;
  }
  // Headline per engine: median across subjects of the per-subject
  // median speedup.
  std::vector<double> HeadlineMedian(N, 0.0);
  for (size_t I = 1; I < N; ++I) {
    std::vector<double> Medians;
    for (const RawMeasurement &M : Raw)
      Medians.push_back(M.Per[I].SpeedupMedian);
    HeadlineMedian[I] = median(std::move(Medians));
  }

  //===--------------------------------------------------------------------===//
  // End-to-end campaigns: one leg per engine per rep on a shared target
  // build, leg order rotating across reps (the fuzzing layer on top
  // dilutes the raw-executor win; both numbers are reported).
  //===--------------------------------------------------------------------===//

  const Subject *S = &C.timingSubject();

  BuildCache Cache;
  std::shared_ptr<SubjectBuild> SB = Cache.get(*S);

  std::vector<CampaignOptions> Opts(N);
  for (size_t I = 0; I < N; ++I) {
    Opts[I] = C.campaignOptions();
    Opts[I].Kind = FuzzerKind::Path;
    Opts[I].Trace = telemetry::TraceConfig(); // timed legs run untraced
    Opts[I].VmMode = Engines[I].Mode;
  }

  const uint32_t Reps = std::max<uint32_t>(3, C.Runs);
  std::vector<EngineCampaignStats> Camp(N);
  (void)runCampaign(*SB, Opts.back()); // warm caches before timing anything
  const LegTimes T = timeLegs(
      N, Reps, [&](size_t I, uint32_t) { return runCampaign(*SB, Opts[I]); },
      [&](uint32_t, const std::vector<CampaignResult> &R) {
        const std::vector<uint8_t> Base = serializeCampaignResult(R[0]);
        for (size_t I = 1; I < N; ++I)
          Camp[I].Identical &= serializeCampaignResult(R[I]) == Base;
      });
  bool CampaignIdentical = true;
  for (size_t I = 0; I < N; ++I) {
    Camp[I].MinMicros = T.best(I);
    Camp[I].Eps = T.perSec(I, C.Execs);
    if (I) {
      Camp[I].SpeedupMedian = T.medianRatio(0, I);
      CampaignIdentical &= Camp[I].Identical;
    }
  }

  //===--------------------------------------------------------------------===//
  // Engine bookkeeping: image cache stats plus the vm.fastpath.* and
  // vm.jit.* series from one traced campaign on the deepest engine.
  //===--------------------------------------------------------------------===//

  CampaignOptions Traced = Opts.back();
  Traced.Trace.Enabled = true;
  CampaignResult TracedR = runCampaign(*SB, Traced);
  uint64_t DirtyResetBytes = 0, JitExecs = 0, JitBailouts = 0;
  int64_t ImageBytes = 0, JitBytesGauge = 0, JitCompiled = 0;
  if (TracedR.Trace)
    for (const telemetry::InstanceRecord &I : TracedR.Trace->Instances) {
      const auto &Ctr = I.Metrics.counters();
      const auto &Gau = I.Metrics.gauges();
      auto It = Ctr.find("vm.fastpath.reset.bytes");
      if (It != Ctr.end())
        DirtyResetBytes += It->second;
      if ((It = Ctr.find("vm.jit.execs")) != Ctr.end())
        JitExecs += It->second;
      if ((It = Ctr.find("vm.jit.bailouts")) != Ctr.end())
        JitBailouts += It->second;
      auto Gt = Gau.find("vm.fastpath.image.bytes");
      if (Gt != Gau.end())
        ImageBytes = Gt->second;
      if ((Gt = Gau.find("vm.jit.bytes")) != Gau.end())
        JitBytesGauge = Gt->second;
      if ((Gt = Gau.find("vm.jit.compiled")) != Gau.end())
        JitCompiled = Gt->second;
    }

  const bool Identical = RawIdentical && CampaignIdentical;

  std::printf("dispatch: %s; engines:", vm::threadedDispatch()
                                            ? "computed-goto (threaded)"
                                            : "portable switch");
  for (const EngineSpec &E : Engines)
    std::printf(" %s", E.Name);
  if (!vm::jit::available())
    std::printf(" (jit unavailable on this platform)");
  std::printf("\n\n");
  std::printf("raw executor, example subjects (256 mutated-seed inputs, "
              "%u rotating reps each):\n",
              RawReps);
  std::printf("  %-9s %11s %15s", "subject", "steps/exec", "interp ns/step");
  for (size_t I = 1; I < N; ++I)
    std::printf(" %9s-x(med)", Engines[I].Name);
  std::printf("\n");
  for (const RawMeasurement &M : Raw) {
    std::printf("  %-9s %11" PRIu64 " %15.2f", M.Name.c_str(), M.StepsPerExec,
                M.Per[0].NsPerStep);
    for (size_t I = 1; I < N; ++I)
      std::printf(" %15.2fx", M.Per[I].SpeedupMedian);
    std::printf("\n");
  }
  for (size_t I = 1; I < N; ++I)
    std::printf("  median speedup across example subjects (%s): %.2fx\n",
                Engines[I].Name, HeadlineMedian[I]);
  std::printf("\ncampaign subject: %s (%" PRIu64 " execs, %u rotating reps)\n",
              S->Name.c_str(), C.Execs, Reps);
  for (size_t I = 0; I < N; ++I)
    std::printf("campaign %-9s %8" PRIu64 " us (best), %9.0f execs/sec"
                "%s%.2fx median)\n",
                Engines[I].Name, Camp[I].MinMicros, Camp[I].Eps,
                I ? " (" : " (baseline; ", I ? Camp[I].SpeedupMedian : 1.0);
  std::printf("image: %" PRId64 " bytes, %zu decode(s), %zu cache hit(s)\n",
              ImageBytes, SB->imageBuilds(), SB->imageHits());
  if (vm::jit::available())
    std::printf("jit: %" PRId64 " funcs, %" PRId64 " native bytes, %" PRIu64
                " execs, %" PRIu64 " bailouts over the traced campaign\n",
                JitCompiled, JitBytesGauge, JitExecs, JitBailouts);
  std::printf("snapshot reset: %" PRIu64 " bytes restored over the traced "
              "campaign\n",
              DirtyResetBytes);
  std::printf("all engines == interpreter results: %s\n",
              Identical ? "yes" : "NO");

  std::string Extra;
  {
    char Buf[512];
    Extra += "\"engines\":[";
    for (size_t I = 0; I < N; ++I) {
      std::snprintf(Buf, sizeof(Buf), "%s\"%s\"", I ? "," : "",
                    Engines[I].Name);
      Extra += Buf;
    }
    Extra += "],";
    Extra += "\"examples\":[";
    for (size_t J = 0; J < Raw.size(); ++J) {
      const RawMeasurement &M = Raw[J];
      std::snprintf(Buf, sizeof(Buf),
                    "%s{\"name\":\"%s\",\"steps_per_exec\":%" PRIu64
                    ",\"interp_ns_per_step\":%.3f,\"engines\":{",
                    J ? "," : "", M.Name.c_str(), M.StepsPerExec,
                    M.Per[0].NsPerStep);
      Extra += Buf;
      for (size_t I = 1; I < N; ++I) {
        const EngineRawStats &St = M.Per[I];
        std::snprintf(Buf, sizeof(Buf),
                      "%s\"%s\":{\"ns_per_step\":%.3f,\"execs_per_sec\":%.1f,"
                      "\"speedup_best\":%.3f,\"speedup_median\":%.3f,"
                      "\"identical\":%s}",
                      I > 1 ? "," : "", Engines[I].Name, St.NsPerStep, St.Eps,
                      St.SpeedupBest, St.SpeedupMedian,
                      St.Identical ? "true" : "false");
        Extra += Buf;
      }
      Extra += "}}";
    }
    Extra += "],";
    for (size_t I = 1; I < N; ++I) {
      std::snprintf(Buf, sizeof(Buf), "\"examples_%s_speedup_median\":%.3f,",
                    Engines[I].Name, HeadlineMedian[I]);
      Extra += Buf;
    }
    std::snprintf(
        Buf, sizeof(Buf),
        "\"threaded_dispatch\":%s,\"jit_available\":%s,"
        "\"campaign_subject\":\"%s\",\"campaign_execs\":%" PRIu64 ",\"reps\":%u,"
        "\"campaigns\":{",
        vm::threadedDispatch() ? "true" : "false",
        vm::jit::available() ? "true" : "false", S->Name.c_str(), C.Execs,
        Reps);
    Extra += Buf;
    for (size_t I = 0; I < N; ++I) {
      std::snprintf(Buf, sizeof(Buf),
                    "%s\"%s\":{\"micros\":%" PRIu64 ",\"execs_per_sec\":%.1f,"
                    "\"speedup_median\":%.3f,\"identical\":%s}",
                    I ? "," : "", Engines[I].Name, Camp[I].MinMicros,
                    Camp[I].Eps, I ? Camp[I].SpeedupMedian : 1.0,
                    Camp[I].Identical ? "true" : "false");
      Extra += Buf;
    }
    Extra += "},";
    std::snprintf(
        Buf, sizeof(Buf),
        "\"image_bytes\":%" PRId64 ",\"image_builds\":%zu,\"image_hits\":%zu,"
        "\"jit_funcs\":%" PRId64 ",\"jit_code_bytes\":%" PRId64
        ",\"jit_execs\":%" PRIu64 ",\"jit_bailouts\":%" PRIu64
        ",\"dirty_reset_bytes\":%" PRIu64 ",\"results_identical\":%s,",
        ImageBytes, SB->imageBuilds(), SB->imageHits(), JitFuncs, JitCodeBytes,
        JitExecs, JitBailouts, DirtyResetBytes, Identical ? "true" : "false");
    Extra += Buf;
  }
  return writeBenchRecord(envStr("PATHFUZZ_BENCH_OUT", "BENCH_vm.json"),
                          benchRecord("vm_throughput", {&TracedR}, Extra),
                          Identical);
}
