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
#include "telemetry/Report.h"

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

  const Subject *S = nullptr;
  for (const Subject &Sub : C.Subjects)
    if (Sub.Name == "jhead")
      S = &Sub;
  if (!S)
    S = &C.Subjects.front();

  // Per-event micro cost first; the disabled case is the only cost an
  // untraced campaign ever sees.
  const double DisabledNs = traceEventNs(nullptr, 1u << 26);
  telemetry::TraceConfig RingCfg;
  RingCfg.Enabled = true;
  telemetry::InstanceTrace MicroTrace(RingCfg);
  const double EnabledNs = traceEventNs(&MicroTrace, 1u << 24);

  // End-to-end: same pre-compiled build, alternating untraced / traced
  // reps. Each adjacent pair sees the same machine conditions, so the
  // reported overhead is the MEDIAN of the per-pair ratios — best-of-N
  // on each side separately lets a single lucky outlier flip the sign
  // on a noisy box. Tracing must not perturb the campaign, so the two
  // serialized results must compare equal.
  BuildCache Cache;
  std::shared_ptr<SubjectBuild> B = Cache.get(*S);

  CampaignOptions Untraced = C.campaignOptions();
  Untraced.Kind = FuzzerKind::Path;
  Untraced.Trace = telemetry::TraceConfig(); // baseline ignores the env
  CampaignOptions Traced = Untraced;
  Traced.Trace.Enabled = true;

  const uint32_t Reps = std::max<uint32_t>(5, C.Runs);
  uint64_t UntracedMin = ~0ull, TracedMin = ~0ull;
  std::vector<double> PairPct;
  std::vector<uint8_t> UntracedBytes, TracedBytes;
  CampaignResult TracedR;
  (void)runCampaign(*B, Untraced); // warm caches before timing anything
  for (uint32_t Rep = 0; Rep < Reps; ++Rep) {
    // Swap which config runs first each rep: if the machine slows down
    // monotonically through a pair (thermal / scheduler drift), a fixed
    // order would tax whichever side always runs second.
    const bool TracedFirst = (Rep & 1) != 0;
    uint64_t U = 0, T = 0;
    CampaignResult RU, RT;
    for (int Leg = 0; Leg < 2; ++Leg) {
      const bool RunTraced = TracedFirst == (Leg == 0);
      uint64_t T0 = nowMicros();
      CampaignResult R = runCampaign(*B, RunTraced ? Traced : Untraced);
      uint64_t Dt = nowMicros() - T0;
      if (RunTraced) {
        T = Dt;
        RT = std::move(R);
      } else {
        U = Dt;
        RU = std::move(R);
      }
    }
    UntracedMin = std::min(UntracedMin, U);
    TracedMin = std::min(TracedMin, T);
    if (U)
      PairPct.push_back(100.0 * (double(T) - double(U)) / double(U));

    if (Rep == 0) {
      UntracedBytes = serializeCampaignResult(RU);
      TracedBytes = serializeCampaignResult(RT);
      TracedR = std::move(RT);
    }
  }
  const bool Identical = UntracedBytes == TracedBytes;
  const double OverheadPct = median(PairPct);

  // One traced pcguard campaign joins the record so the configs table
  // has both feedback families.
  CampaignOptions Pcguard = Traced;
  Pcguard.Kind = FuzzerKind::Pcguard;
  CampaignResult PcR = runCampaign(*B, Pcguard);

  std::vector<const telemetry::CampaignTrace *> Traces;
  if (TracedR.Trace)
    Traces.push_back(TracedR.Trace.get());
  if (PcR.Trace)
    Traces.push_back(PcR.Trace.get());
  std::string Jsonl = telemetry::mergedJsonl(Traces);
  std::string Bench = telemetry::benchJsonFromJsonl(Jsonl, "telemetry_overhead");

  std::printf("subject: %s (%" PRIu64 " execs, %u paired reps)\n",
              S->Name.c_str(), C.Execs, Reps);
  std::printf("trace event, disabled: %8.2f ns/op\n", DisabledNs);
  std::printf("trace event, enabled:  %8.2f ns/op\n", EnabledNs);
  std::printf("campaign, untraced:    %8" PRIu64 " us (best)\n", UntracedMin);
  std::printf("campaign, traced:      %8" PRIu64 " us (best)\n", TracedMin);
  std::printf("overhead, median of paired reps: %+.2f%%\n", OverheadPct);
  std::printf("traced == untraced results: %s\n", Identical ? "yes" : "NO");

  // Splice the measurements into the report tool's bench record, right
  // before its "configs" array.
  char Extra[512];
  std::snprintf(Extra, sizeof(Extra),
                "\"subject\":\"%s\",\"execs\":%" PRIu64 ",\"reps\":%u,"
                "\"trace_event_disabled_ns\":%.3f,"
                "\"trace_event_enabled_ns\":%.3f,"
                "\"campaign_untraced_micros\":%" PRIu64 ","
                "\"campaign_traced_micros\":%" PRIu64 ","
                "\"overhead_pct\":%.3f,\"results_identical\":%s,",
                S->Name.c_str(), C.Execs, Reps, DisabledNs, EnabledNs,
                UntracedMin, TracedMin, OverheadPct,
                Identical ? "true" : "false");
  std::string Doc = Bench;
  size_t Pos = Doc.find("\"configs\":");
  if (Pos != std::string::npos)
    Doc.insert(Pos, Extra);

  return writeBenchRecord(envStr("PATHFUZZ_BENCH_OUT", "BENCH_telemetry.json"),
                          Doc, Identical);
}
