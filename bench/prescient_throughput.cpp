//===- prescient_throughput.cpp - Frontier-directed scheduling measurement ----===//
//
// Part of the pathfuzz project.
//
// Measures what the prescient configuration (static interprocedural
// reachability driving queue energy; see docs/CONFIG.md and DESIGN.md's
// frontier-scoring formula) costs and buys relative to its pcguard
// baseline:
//
//  - a standard evaluation (REPRO_RUNS x REPRO_EXECS per pair) of
//    pcguard vs prescient on the bundled subjects: cumulative unique
//    bugs, cumulative edge coverage and median queue size per subject;
//  - paired prescient / pcguard timing legs on a shared BuildCache,
//    best-of-N execs/sec per subject and the median per-pair overhead
//    ratio (the price of frontierScore() per energy assignment);
//  - the determinism contract: two identical prescient campaigns are
//    byte-identical under serializeCampaignResult;
//  - the ReachabilitySummary cache counters — one build per subject,
//    every further trial a hit;
//  - and writes the whole record to BENCH_prescient.json
//    (PATHFUZZ_BENCH_OUT overrides the path).
//
// The overhead is workload-shaped (frontier scoring runs once per queue
// scheduling decision, not per exec); the exit code reflects only the
// determinism checks.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "strategy/BuildCache.h"
#include "telemetry/Export.h"

#include <algorithm>
#include <cinttypes>

using namespace pathfuzz;
using namespace pathfuzz::bench;
using namespace pathfuzz::strategy;

namespace {

struct SubjectMeasurement {
  std::string Name;
  size_t BugsPcguard = 0;
  size_t BugsPrescient = 0;
  size_t EdgesPcguard = 0;
  size_t EdgesPrescient = 0;
  double QueuePrescient = 0.0;
  double PcguardEps = 0.0;
  double PrescientEps = 0.0;
  double OverheadMedian = 0.0; // prescient time / pcguard time
  bool Deterministic = false;
};

/// Pcguard (leg 0) against prescient (leg 1) on rotating legs over a
/// shared build, plus the byte-identity check across every prescient rep.
void timeSubject(SubjectMeasurement &M, SubjectBuild &SB,
                 const CampaignOptions &Base, uint64_t Execs, uint32_t Reps) {
  CampaignOptions Pc = Base;
  Pc.Kind = FuzzerKind::Pcguard;
  Pc.Trace = telemetry::TraceConfig(); // timed legs run untraced
  CampaignOptions Pre = Pc;
  Pre.Kind = FuzzerKind::Prescient;

  // Warm the build (image + reachability summary) before timing.
  (void)runCampaign(SB, Pre);

  std::vector<uint8_t> FirstPrescient;
  M.Deterministic = true;
  const LegTimes T = timeLegs(
      2, Reps,
      [&](size_t Leg, uint32_t) { return runCampaign(SB, Leg ? Pre : Pc); },
      [&](uint32_t Rep, const std::vector<CampaignResult> &R) {
        std::vector<uint8_t> Bytes = serializeCampaignResult(R[1]);
        if (Rep == 0)
          FirstPrescient = std::move(Bytes);
        else
          M.Deterministic &= Bytes == FirstPrescient;
      });
  M.OverheadMedian = T.medianRatio(1, 0);
  M.PcguardEps = T.perSec(0, Execs);
  M.PrescientEps = T.perSec(1, Execs);
}

} // namespace

int main() {
  BenchConfig C = BenchConfig::fromEnv();
  C.printHeader("Prescient (frontier-directed) scheduling: findings and "
                "throughput vs pcguard");

  const std::vector<FuzzerKind> Kinds = {FuzzerKind::Pcguard,
                                         FuzzerKind::Prescient};
  Evaluation E = runEvaluation(C, Kinds);

  const uint32_t Reps = std::max<uint32_t>(3, C.Runs);
  CampaignOptions Base = C.campaignOptions();

  // One shared cache for the timing legs: the reachability counters at
  // the end prove every prescient trial reused one summary per subject.
  BuildCache Cache;
  std::vector<SubjectMeasurement> Subjects;
  bool Deterministic = true;
  for (const Subject &S : C.Subjects) {
    SubjectMeasurement M;
    M.Name = S.Name;
    const RunSet &RPc = E.at(S.Name, FuzzerKind::Pcguard);
    const RunSet &RPre = E.at(S.Name, FuzzerKind::Prescient);
    M.BugsPcguard = RPc.cumulativeBugs().size();
    M.BugsPrescient = RPre.cumulativeBugs().size();
    M.EdgesPcguard = RPc.cumulativeEdges().size();
    M.EdgesPrescient = RPre.cumulativeEdges().size();
    M.QueuePrescient = RPre.medianQueueSize();

    std::shared_ptr<SubjectBuild> SB = Cache.get(S);
    timeSubject(M, *SB, Base, C.Execs, Reps);
    Deterministic &= M.Deterministic;
    Subjects.push_back(std::move(M));
  }

  std::vector<double> Overheads;
  for (const SubjectMeasurement &M : Subjects)
    Overheads.push_back(M.OverheadMedian);
  const double OverheadMedian = median(Overheads);

  std::printf("pcguard vs prescient (%" PRIu64 " execs, %u paired reps "
              "each):\n",
              C.Execs, Reps);
  std::printf("  %-10s %5s %5s %7s %7s %7s %12s %12s %9s\n", "subject",
              "bugs", "bugs+", "edges", "edges+", "queue+", "pc exec/s",
              "pre exec/s", "overhead");
  for (const SubjectMeasurement &M : Subjects)
    std::printf("  %-10s %5zu %5zu %7zu %7zu %7.0f %12.0f %12.0f %8.2fx\n",
                M.Name.c_str(), M.BugsPcguard, M.BugsPrescient,
                M.EdgesPcguard, M.EdgesPrescient, M.QueuePrescient,
                M.PcguardEps, M.PrescientEps, M.OverheadMedian);
  std::printf("  median scheduling overhead across subjects: %.2fx\n",
              OverheadMedian);
  std::printf("reachability summaries built %zu / cache hits %zu\n",
              Cache.reachabilitySummaries(), Cache.reachabilityCacheHits());
  std::printf("prescient campaigns deterministic: %s\n",
              Deterministic ? "yes" : "NO");

  std::string Doc = "{\"name\":\"prescient_throughput\",";
  {
    char Buf[512];
    Doc += "\"subjects\":[";
    for (size_t I = 0; I < Subjects.size(); ++I) {
      const SubjectMeasurement &M = Subjects[I];
      std::snprintf(
          Buf, sizeof(Buf),
          "%s{\"name\":\"%s\",\"bugs_pcguard\":%zu,\"bugs_prescient\":%zu,"
          "\"edges_pcguard\":%zu,\"edges_prescient\":%zu,"
          "\"queue_prescient\":%.1f,\"pcguard_execs_per_sec\":%.1f,"
          "\"prescient_execs_per_sec\":%.1f,\"overhead_median\":%.3f,"
          "\"deterministic\":%s}",
          I ? "," : "", M.Name.c_str(), M.BugsPcguard, M.BugsPrescient,
          M.EdgesPcguard, M.EdgesPrescient, M.QueuePrescient, M.PcguardEps,
          M.PrescientEps, M.OverheadMedian,
          M.Deterministic ? "true" : "false");
      Doc += Buf;
    }
    Doc += "],";
    std::snprintf(Buf, sizeof(Buf),
                  "\"campaign_execs\":%" PRIu64 ",\"reps\":%u,"
                  "\"overhead_median\":%.3f,"
                  "\"reachability_builds\":%zu,\"reachability_hits\":%zu,"
                  "\"deterministic\":%s}\n",
                  C.Execs, Reps, OverheadMedian,
                  Cache.reachabilitySummaries(),
                  Cache.reachabilityCacheHits(),
                  Deterministic ? "true" : "false");
    Doc += Buf;
  }

  return writeBenchRecord(envStr("PATHFUZZ_BENCH_OUT", "BENCH_prescient.json"),
                          Doc, Deterministic);
}
