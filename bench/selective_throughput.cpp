//===- selective_throughput.cpp - Two-tier selective mode measurement ---------===//
//
// Part of the pathfuzz project.
//
// Measures what two-tier selective execution (probe-free cheap image +
// signature-gated replay; see docs/PERFORMANCE.md's cost-model section)
// buys over always-instrumented campaigns:
//
//  - end-to-end campaigns on every example subject
//    (examples/minilang/*.ml), alternating paired selective-on /
//    selective-off legs on a shared build, best-of-N execs/sec and the
//    median of per-pair speedups per subject;
//  - the serializeCampaignResult byte-identity check on every pair — the
//    mode's defining contract;
//  - the vm.selective.* counters (skips, replays, replay mismatches)
//    from one traced selective campaign per subject;
//  - and writes the whole record to BENCH_selective.json
//    (PATHFUZZ_BENCH_OUT overrides the path).
//
// The speedup is machine- and workload-shaped (replay-rate-dependent);
// the exit code reflects only the identity checks.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "strategy/BuildCache.h"
#include "telemetry/Export.h"
#include "telemetry/Report.h"
#include "vm/Image.h"

#include <algorithm>
#include <cinttypes>

using namespace pathfuzz;
using namespace pathfuzz::bench;
using namespace pathfuzz::strategy;

namespace {

struct SubjectMeasurement {
  std::string Name;
  double OffEps = 0.0;
  double OnEps = 0.0;
  double SpeedupBest = 0.0;
  double SpeedupMedian = 0.0;
  uint64_t Skipped = 0;
  uint64_t Replays = 0;
  uint64_t ReplayMismatch = 0;
  bool Identical = false;
};

SubjectMeasurement measureSubject(const Subject &S, const CampaignOptions &Base,
                                  uint64_t Execs, uint32_t Reps) {
  SubjectMeasurement M;
  M.Name = S.Name;

  BuildCache Cache;
  std::shared_ptr<SubjectBuild> SB = Cache.get(S);

  CampaignOptions Off = Base;
  Off.Kind = FuzzerKind::Path;
  Off.Trace = telemetry::TraceConfig(); // timed legs run untraced
  Off.Selective = vm::SelectiveMode::Off;
  CampaignOptions On = Off;
  On.Selective = vm::SelectiveMode::On;

  // Warm both builds (full + cheap image) before timing anything.
  (void)runCampaign(*SB, On);

  uint64_t OffMin = ~0ull, OnMin = ~0ull;
  std::vector<double> PairSpeedup;
  M.Identical = true;
  for (uint32_t Rep = 0; Rep < Reps; ++Rep) {
    const bool OnFirst = (Rep & 1) != 0;
    uint64_t UOff = 0, UOn = 0;
    std::vector<uint8_t> BytesOff, BytesOn;
    for (int Leg = 0; Leg < 2; ++Leg) {
      const bool RunOn = OnFirst == (Leg == 0);
      uint64_t T0 = nowMicros();
      CampaignResult R = runCampaign(*SB, RunOn ? On : Off);
      uint64_t Dt = nowMicros() - T0;
      (RunOn ? UOn : UOff) = Dt;
      (RunOn ? BytesOn : BytesOff) = serializeCampaignResult(R);
    }
    OffMin = std::min(OffMin, UOff);
    OnMin = std::min(OnMin, UOn);
    if (UOn)
      PairSpeedup.push_back(double(UOff) / double(UOn));
    M.Identical &= BytesOff == BytesOn;
  }
  std::sort(PairSpeedup.begin(), PairSpeedup.end());
  M.SpeedupMedian =
      PairSpeedup.empty() ? 0.0 : PairSpeedup[PairSpeedup.size() / 2];
  M.SpeedupBest = OnMin ? double(OffMin) / double(OnMin) : 0.0;
  if (OffMin)
    M.OffEps = double(Execs) * 1e6 / double(OffMin);
  if (OnMin)
    M.OnEps = double(Execs) * 1e6 / double(OnMin);

  // One traced selective campaign for the vm.selective.* counters.
  CampaignOptions Traced = On;
  Traced.Trace.Enabled = true;
  CampaignResult R = runCampaign(*SB, Traced);
  if (R.Trace)
    for (const telemetry::InstanceRecord &I : R.Trace->Instances) {
      auto Get = [&I](const char *Name) -> uint64_t {
        auto It = I.Metrics.counters().find(Name);
        return It == I.Metrics.counters().end() ? 0 : It->second;
      };
      M.Skipped += Get("vm.selective.skipped");
      M.Replays += Get("vm.selective.replays");
      M.ReplayMismatch += Get("vm.selective.replay.mismatch");
    }
  return M;
}

} // namespace

int main() {
  BenchConfig C = BenchConfig::fromEnv();
  C.printHeader("Selective (two-tier) execution: campaign throughput vs "
                "always-instrumented");

  std::vector<Subject> Examples = loadExampleSubjects();
  const uint32_t Reps = std::max<uint32_t>(3, C.Runs);
  CampaignOptions Base = C.campaignOptions();

  std::vector<SubjectMeasurement> Subjects;
  bool Identical = true;
  bool MismatchFree = true;
  for (const Subject &S : Examples) {
    Subjects.push_back(measureSubject(S, Base, C.Execs, Reps));
    Identical &= Subjects.back().Identical;
    MismatchFree &= Subjects.back().ReplayMismatch == 0;
  }

  std::vector<double> Medians;
  for (const SubjectMeasurement &M : Subjects)
    Medians.push_back(M.SpeedupMedian);
  std::sort(Medians.begin(), Medians.end());
  const double CampaignSpeedupMedian =
      Medians.empty() ? 0.0 : Medians[Medians.size() / 2];

  std::printf("example-subject campaigns (%" PRIu64 " execs, %u paired "
              "reps each):\n",
              C.Execs, Reps);
  std::printf("  %-9s %12s %12s %8s %8s %10s %9s %9s\n", "subject",
              "off exec/s", "on exec/s", "best", "median", "skipped",
              "replays", "mismatch");
  for (const SubjectMeasurement &M : Subjects)
    std::printf("  %-9s %12.0f %12.0f %7.2fx %7.2fx %10" PRIu64 " %9" PRIu64
                " %9" PRIu64 "\n",
                M.Name.c_str(), M.OffEps, M.OnEps, M.SpeedupBest,
                M.SpeedupMedian, M.Skipped, M.Replays, M.ReplayMismatch);
  std::printf("  median campaign speedup across example subjects: %.2fx\n",
              CampaignSpeedupMedian);
  std::printf("selective == always-instrumented results: %s\n",
              Identical ? "yes" : "NO");
  std::printf("replay mismatches: %s\n", MismatchFree ? "none" : "PRESENT");

  std::string Doc = "{\"name\":\"selective_throughput\",";
  {
    char Buf[512];
    Doc += "\"subjects\":[";
    for (size_t I = 0; I < Subjects.size(); ++I) {
      const SubjectMeasurement &M = Subjects[I];
      std::snprintf(
          Buf, sizeof(Buf),
          "%s{\"name\":\"%s\",\"off_execs_per_sec\":%.1f,"
          "\"on_execs_per_sec\":%.1f,\"speedup_best\":%.3f,"
          "\"speedup_median\":%.3f,\"skipped\":%" PRIu64
          ",\"replays\":%" PRIu64 ",\"replay_mismatch\":%" PRIu64
          ",\"identical\":%s}",
          I ? "," : "", M.Name.c_str(), M.OffEps, M.OnEps, M.SpeedupBest,
          M.SpeedupMedian, M.Skipped, M.Replays, M.ReplayMismatch,
          M.Identical ? "true" : "false");
      Doc += Buf;
    }
    Doc += "],";
    std::snprintf(Buf, sizeof(Buf),
                  "\"campaign_execs\":%" PRIu64 ",\"reps\":%u,"
                  "\"campaign_speedup_median\":%.3f,"
                  "\"results_identical\":%s}\n",
                  C.Execs, Reps, CampaignSpeedupMedian,
                  Identical && MismatchFree ? "true" : "false");
    Doc += Buf;
  }

  return writeBenchRecord(envStr("PATHFUZZ_BENCH_OUT", "BENCH_selective.json"),
                          Doc, Identical && MismatchFree);
}
