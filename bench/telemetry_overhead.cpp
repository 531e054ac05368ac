//===- telemetry_overhead.cpp - Telemetry cost measurement --------------------===//
//
// Part of the pathfuzz project.
//
// Measures what the telemetry subsystem costs, backing the observability
// section's overhead claims:
//
//  - per-event micro cost: PF_TRACE_EVENT against a null recorder (what
//    every untraced execution pays — one branch) vs against a live ring;
//  - end-to-end: a traced vs untraced path campaign on a shared build,
//    best-of-N wall time, plus the byte-identity check that tracing is
//    purely observational;
//  - and writes the whole record, with per-config end states from the
//    traced campaigns, to BENCH_telemetry.json (PATHFUZZ_BENCH_OUT
//    overrides the path).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "strategy/BuildCache.h"

#include <algorithm>
#include <cinttypes>

using namespace pathfuzz;
using namespace pathfuzz::bench;
using namespace pathfuzz::strategy;

namespace {

/// ns/op of PF_TRACE_EVENT through a pointer the optimizer cannot
/// constant-fold. Tr == nullptr measures the disabled (untraced) branch.
double traceEventNs(telemetry::InstanceTrace *Tr, uint64_t Iters) {
  telemetry::InstanceTrace *volatile Slot = Tr;
  uint64_t T0 = nowMicros();
  for (uint64_t I = 0; I < Iters; ++I) {
    telemetry::InstanceTrace *P = Slot;
    (void)P; // PF_TRACE_EVENT is empty under PATHFUZZ_NO_TELEMETRY
    PF_TRACE_EVENT(P, telemetry::EventKind::ExecCompleted, I, 64, 1000, 0);
  }
  return double(nowMicros() - T0) * 1000.0 / double(Iters);
}

} // namespace

int main() {
  BenchConfig C = BenchConfig::fromEnv();
  C.printHeader("Telemetry overhead: traced vs untraced campaigns");

  const Subject *S = &C.timingSubject();

  // Per-event micro cost first; the disabled case is the only cost an
  // untraced campaign ever sees.
  const double DisabledNs = traceEventNs(nullptr, 1u << 26);
  telemetry::TraceConfig RingCfg;
  RingCfg.Enabled = true;
  telemetry::InstanceTrace MicroTrace(RingCfg);
  const double EnabledNs = traceEventNs(&MicroTrace, 1u << 24);

  // End-to-end: same pre-compiled build, untraced (leg 0) and traced
  // (leg 1) on rotating legs. The reported overhead is the median of the
  // per-rep ratios. Tracing must not perturb the campaign, so the two
  // serialized results must compare equal on every rep.
  BuildCache Cache;
  std::shared_ptr<SubjectBuild> B = Cache.get(*S);

  CampaignOptions Untraced = C.campaignOptions();
  Untraced.Kind = FuzzerKind::Path;
  Untraced.Trace = telemetry::TraceConfig(); // baseline ignores the env
  CampaignOptions Traced = Untraced;
  Traced.Trace.Enabled = true;

  const uint32_t Reps = std::max<uint32_t>(5, C.Runs);
  bool Identical = true;
  CampaignResult TracedR;
  (void)runCampaign(*B, Untraced); // warm caches before timing anything
  const LegTimes T = timeLegs(
      2, Reps,
      [&](size_t Leg, uint32_t) {
        return runCampaign(*B, Leg ? Traced : Untraced);
      },
      [&](uint32_t Rep, std::vector<CampaignResult> &R) {
        Identical &=
            serializeCampaignResult(R[0]) == serializeCampaignResult(R[1]);
        if (Rep == 0)
          TracedR = std::move(R[1]);
      });
  const uint64_t UntracedMin = T.best(0), TracedMin = T.best(1);
  const double OverheadPct = 100.0 * (T.medianRatio(1, 0) - 1.0);

  // One traced pcguard campaign joins the record so the configs table
  // has both feedback families.
  CampaignOptions Pcguard = Traced;
  Pcguard.Kind = FuzzerKind::Pcguard;
  CampaignResult PcR = runCampaign(*B, Pcguard);

  std::printf("subject: %s (%" PRIu64 " execs, %u paired reps)\n",
              S->Name.c_str(), C.Execs, Reps);
  std::printf("trace event, disabled: %8.2f ns/op\n", DisabledNs);
  std::printf("trace event, enabled:  %8.2f ns/op\n", EnabledNs);
  std::printf("campaign, untraced:    %8" PRIu64 " us (best)\n", UntracedMin);
  std::printf("campaign, traced:      %8" PRIu64 " us (best)\n", TracedMin);
  std::printf("overhead, median of paired reps: %+.2f%%\n", OverheadPct);
  std::printf("traced == untraced results: %s\n", Identical ? "yes" : "NO");

  char Fields[512];
  std::snprintf(Fields, sizeof(Fields),
                "\"subject\":\"%s\",\"execs\":%" PRIu64 ",\"reps\":%u,"
                "\"trace_event_disabled_ns\":%.3f,"
                "\"trace_event_enabled_ns\":%.3f,"
                "\"campaign_untraced_micros\":%" PRIu64 ","
                "\"campaign_traced_micros\":%" PRIu64 ","
                "\"overhead_pct\":%.3f,\"results_identical\":%s,",
                S->Name.c_str(), C.Execs, Reps, DisabledNs, EnabledNs,
                UntracedMin, TracedMin, OverheadPct,
                Identical ? "true" : "false");
  std::string Doc = benchRecord("telemetry_overhead", {&TracedR, &PcR}, Fields);

  return writeBenchRecord(envStr("PATHFUZZ_BENCH_OUT", "BENCH_telemetry.json"),
                          Doc, Identical);
}
