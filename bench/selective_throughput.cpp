//===- selective_throughput.cpp - Two-tier selective mode measurement ---------===//
//
// Part of the pathfuzz project.
//
// Measures what two-tier selective execution (probe-free cheap image +
// signature-gated replay; see docs/PERFORMANCE.md's cost-model section)
// buys over always-instrumented campaigns:
//
//  - end-to-end path campaigns under the default engine on every example
//    subject (examples/minilang/*.ml) and on the paper subjects
//    (REPRO_SUBJECTS, default all 18), rotating selective-off /
//    selective-on legs on a shared build, best-of-N execs/sec and the
//    median of per-pair speedups per subject;
//  - the serializeCampaignResult byte-identity check on every pair — the
//    mode's defining contract;
//  - the vm.selective.* counters (skips, replays, replay mismatches) and
//    the replay rate replays / (skips + replays) from one traced
//    selective campaign per subject;
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

  double replayRate() const {
    return Skipped + Replays ? double(Replays) / double(Skipped + Replays)
                             : 0.0;
  }
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

  // Off (leg 0) against on (leg 1) on rotating legs.
  M.Identical = true;
  const LegTimes T = timeLegs(
      2, Reps,
      [&](size_t Leg, uint32_t) { return runCampaign(*SB, Leg ? On : Off); },
      [&](uint32_t, const std::vector<CampaignResult> &R) {
        M.Identical &=
            serializeCampaignResult(R[0]) == serializeCampaignResult(R[1]);
      });
  M.SpeedupMedian = T.medianRatio(0, 1);
  M.SpeedupBest = T.best(1) ? double(T.best(0)) / double(T.best(1)) : 0.0;
  M.OffEps = T.perSec(0, Execs);
  M.OnEps = T.perSec(1, Execs);

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

/// One group of subjects: the per-subject measurements, the median of
/// their per-subject median speedups, and whether every pair was
/// byte-identical with no replay mismatch.
struct Group {
  std::vector<SubjectMeasurement> Subjects;
  double SpeedupMedian = 0.0;
  bool Identical = true;
  bool MismatchFree = true;
};

Group measureGroup(const std::vector<Subject> &Subjects,
                   const CampaignOptions &Base, uint64_t Execs,
                   uint32_t Reps) {
  Group G;
  std::vector<double> Medians;
  for (const Subject &S : Subjects) {
    G.Subjects.push_back(measureSubject(S, Base, Execs, Reps));
    const SubjectMeasurement &M = G.Subjects.back();
    G.Identical &= M.Identical;
    G.MismatchFree &= M.ReplayMismatch == 0;
    Medians.push_back(M.SpeedupMedian);
  }
  G.SpeedupMedian = median(std::move(Medians));
  return G;
}

void printGroup(const char *What, const Group &G) {
  std::printf("%s:\n", What);
  std::printf("  %-9s %12s %12s %8s %8s %10s %9s %7s %9s\n", "subject",
              "off exec/s", "on exec/s", "best", "median", "skipped",
              "replays", "r", "mismatch");
  for (const SubjectMeasurement &M : G.Subjects)
    std::printf("  %-9s %12.0f %12.0f %7.2fx %7.2fx %10" PRIu64 " %9" PRIu64
                " %7.3f %9" PRIu64 "\n",
                M.Name.c_str(), M.OffEps, M.OnEps, M.SpeedupBest,
                M.SpeedupMedian, M.Skipped, M.Replays, M.replayRate(),
                M.ReplayMismatch);
  std::printf("  median campaign speedup: %.2fx\n\n", G.SpeedupMedian);
}

std::string groupJson(const Group &G) {
  std::string Out = "[";
  char Buf[512];
  for (size_t I = 0; I < G.Subjects.size(); ++I) {
    const SubjectMeasurement &M = G.Subjects[I];
    std::snprintf(Buf, sizeof(Buf),
                  "%s{\"name\":\"%s\",\"off_execs_per_sec\":%.1f,"
                  "\"on_execs_per_sec\":%.1f,\"speedup_best\":%.3f,"
                  "\"speedup_median\":%.3f,\"skipped\":%" PRIu64
                  ",\"replays\":%" PRIu64 ",\"replay_rate\":%.4f"
                  ",\"replay_mismatch\":%" PRIu64 ",\"identical\":%s}",
                  I ? "," : "", M.Name.c_str(), M.OffEps, M.OnEps,
                  M.SpeedupBest, M.SpeedupMedian, M.Skipped, M.Replays,
                  M.replayRate(), M.ReplayMismatch,
                  M.Identical ? "true" : "false");
    Out += Buf;
  }
  return Out + "]";
}

} // namespace

int main() {
  BenchConfig C = BenchConfig::fromEnv();
  C.printHeader("Selective (two-tier) execution: campaign throughput vs "
                "always-instrumented");

  const uint32_t Reps = std::max<uint32_t>(3, C.Runs);
  CampaignOptions Base = C.campaignOptions();
  Group Examples = measureGroup(loadExampleSubjects(), Base, C.Execs, Reps);
  Group Paper = measureGroup(C.Subjects, Base, C.Execs, Reps);
  const bool Identical = Examples.Identical && Paper.Identical;
  const bool MismatchFree = Examples.MismatchFree && Paper.MismatchFree;

  std::printf("path campaigns, default engine (%" PRIu64 " execs, %u paired "
              "reps each; r = replays / cheap execs):\n\n",
              C.Execs, Reps);
  printGroup("example subjects", Examples);
  printGroup("paper subjects", Paper);
  std::printf("selective == always-instrumented results: %s\n",
              Identical ? "yes" : "NO");
  std::printf("replay mismatches: %s\n", MismatchFree ? "none" : "PRESENT");

  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "\"campaign_execs\":%" PRIu64 ",\"reps\":%u,"
                "\"campaign_speedup_median\":%.3f,"
                "\"paper_speedup_median\":%.3f,"
                "\"results_identical\":%s}\n",
                C.Execs, Reps, Examples.SpeedupMedian, Paper.SpeedupMedian,
                Identical && MismatchFree ? "true" : "false");
  std::string Doc = "{\"name\":\"selective_throughput\",\"subjects\":" +
                    groupJson(Examples) +
                    ",\"paper_subjects\":" + groupJson(Paper) + "," + Buf;

  return writeBenchRecord(envStr("PATHFUZZ_BENCH_OUT", "BENCH_selective.json"),
                          Doc, Identical && MismatchFree);
}
