//===- store_overhead.cpp - Durable-store cost measurement --------------------===//
//
// Part of the pathfuzz project.
//
// Measures what the durability layer costs — the per-checkpoint
// seal+fsync tax is fixed, so it dominates the second-long bench
// campaigns here and amortizes to noise on real ones:
//
//  - end-to-end: a stored (checkpoint-every-interval, fsync-per-write)
//    vs an in-memory campaign on a shared build, median of paired reps,
//    plus the byte-identity check that durability is purely protective;
//  - the resume leg: time to finish a campaign from its last persisted
//    checkpoint vs running it whole;
//  - checkpoint volume: files written, bytes per checkpoint;
//  - and writes the record to BENCH_store.json (PATHFUZZ_BENCH_OUT
//    overrides the path).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "strategy/BuildCache.h"
#include "strategy/Store.h"

#include <algorithm>
#include <cinttypes>
#include <filesystem>

#include <unistd.h>

using namespace pathfuzz;
using namespace pathfuzz::bench;
using namespace pathfuzz::strategy;
namespace fs = std::filesystem;

int main() {
  BenchConfig C = BenchConfig::fromEnv();
  C.printHeader("Durable-store overhead: stored vs in-memory campaigns");

  const Subject *S = &C.timingSubject();

  BuildCache Cache;
  std::shared_ptr<SubjectBuild> B = Cache.get(*S);

  CampaignOptions InMemory = C.campaignOptions();
  InMemory.Kind = FuzzerKind::Path;
  InMemory.Trace = telemetry::TraceConfig(); // baseline ignores the env

  const std::string Root =
      (fs::temp_directory_path() /
       ("pathfuzz-bench-store-" + std::to_string(::getpid())))
          .string();
  std::error_code Ec;
  fs::remove_all(Root, Ec);

  // 8 checkpoints per campaign — the runStoredCampaign default cadence —
  // so the measured tax includes seal + atomic write + fsync + rotate,
  // eight times per run.
  const uint64_t Interval = std::max<uint64_t>(1, C.Execs / 8);

  // In-memory (leg 0) against stored (leg 1) on rotating legs. Each
  // stored rep gets a fresh directory, so it pays the full fresh-start
  // cost, never a short-circuit through a done manifest.
  const uint32_t Reps = std::max<uint32_t>(5, C.Runs);
  std::vector<CampaignOptions> Stored(Reps, InMemory);
  for (uint32_t Rep = 0; Rep < Reps; ++Rep) {
    Stored[Rep].StoreDir = Root + "/rep-" + std::to_string(Rep);
    Stored[Rep].CheckpointInterval = Interval;
  }
  bool Identical = true;
  std::vector<uint8_t> MemBytes;
  (void)runCampaign(*B, InMemory); // warm caches before timing anything
  const LegTimes T = timeLegs(
      2, Reps,
      [&](size_t Leg, uint32_t Rep) {
        return runCampaign(*B, Leg ? Stored[Rep] : InMemory);
      },
      [&](uint32_t, const std::vector<CampaignResult> &R) {
        MemBytes = serializeCampaignResult(R[0]);
        Identical &= MemBytes == serializeCampaignResult(R[1]);
      });
  const uint64_t MemMin = T.best(0), StoredMin = T.best(1);
  const double OverheadPct = 100.0 * (T.medianRatio(1, 0) - 1.0);

  // Checkpoint volume, from one traced stored run in its own directory.
  CampaignOptions Traced = InMemory;
  Traced.StoreDir = Root + "/traced";
  Traced.CheckpointInterval = Interval;
  Traced.Trace.Enabled = true;
  CampaignResult TracedR = runCampaign(*B, Traced);
  uint64_t CkptWritten = 0, CkptBytes = 0;
  if (TracedR.Trace)
    for (const telemetry::InstanceRecord &Rec : TracedR.Trace->Instances)
      if (Rec.Label == "store") {
        auto Find = [&Rec](const char *Name) -> uint64_t {
          auto It = Rec.Metrics.counters().find(Name);
          return It == Rec.Metrics.counters().end() ? 0 : It->second;
        };
        CkptWritten = Find("store.checkpoint.written");
        CkptBytes = Find("store.checkpoint.bytes");
      }

  // The resume leg: seed a fresh directory with the campaign's persisted
  // checkpoints minus the last interval's progress (as a SIGKILL there
  // would leave it), then time finishing from disk.
  uint64_t ResumeMicros = 0;
  {
    CampaignOptions Seeded = InMemory;
    Seeded.CheckpointInterval = Interval;
    std::vector<std::vector<uint8_t>> Ckpts;
    Seeded.CheckpointSink = [&Ckpts](const std::vector<uint8_t> &Blob) {
      Ckpts.push_back(Blob);
    };
    (void)runCampaign(*B, Seeded);
    if (!Ckpts.empty()) {
      std::string Err;
      auto Store =
          CampaignStore::open(Root + "/resume", S->Name, InMemory, &Err);
      if (Store)
        Store->writeCheckpoint(Ckpts.back());
      CampaignOptions Resume = InMemory;
      Resume.StoreDir = Root + "/resume";
      Resume.CheckpointInterval = Interval;
      uint64_t T0 = nowMicros();
      CampaignResult R = runCampaign(*B, Resume);
      ResumeMicros = nowMicros() - T0;
      if (serializeCampaignResult(R) != MemBytes)
        std::fprintf(stderr, "warning: resumed result diverged\n");
    }
  }

  // Interval sweep: the tax scales with checkpoint count, so price the
  // layer at coarser and finer cadences than the default too.
  struct SweepPoint {
    uint64_t Interval;
    uint64_t Micros;
  };
  std::vector<SweepPoint> Sweep;
  for (uint64_t Div : {4, 8, 16}) {
    CampaignOptions Pt = InMemory;
    Pt.StoreDir = Root + "/sweep-" + std::to_string(Div);
    Pt.CheckpointInterval = std::max<uint64_t>(1, C.Execs / Div);
    uint64_t Best = ~0ull;
    for (uint32_t Rep = 0; Rep < 2; ++Rep) {
      fs::remove_all(Pt.StoreDir, Ec); // fresh start, never a done-replay
      uint64_t T0 = nowMicros();
      (void)runCampaign(*B, Pt);
      Best = std::min(Best, nowMicros() - T0);
    }
    Sweep.push_back({Pt.CheckpointInterval, Best});
  }

  std::printf("subject: %s (%" PRIu64 " execs, %u paired reps, "
              "%" PRIu64 "-exec checkpoint interval)\n",
              S->Name.c_str(), C.Execs, Reps, Interval);
  std::printf("campaign, in-memory:   %8" PRIu64 " us (best)\n", MemMin);
  std::printf("campaign, stored:      %8" PRIu64 " us (best)\n", StoredMin);
  std::printf("overhead, median of paired reps: %+.2f%%\n", OverheadPct);
  std::printf("checkpoints per run: %" PRIu64 " (%" PRIu64
              " bytes total, %" PRIu64 " bytes each)\n",
              CkptWritten, CkptBytes,
              CkptWritten ? CkptBytes / CkptWritten : 0);
  std::printf("resume from last checkpoint: %8" PRIu64 " us\n", ResumeMicros);
  for (const SweepPoint &P : Sweep)
    std::printf("interval sweep: every %6" PRIu64 " execs -> %8" PRIu64
                " us (%+.2f%% vs in-memory best)\n",
                P.Interval, P.Micros,
                MemMin ? 100.0 * (double(P.Micros) - double(MemMin)) /
                             double(MemMin)
                       : 0.0);
  std::printf("stored == in-memory results: %s\n", Identical ? "yes" : "NO");

  std::string SweepJson = "\"interval_sweep\":[";
  for (size_t I = 0; I < Sweep.size(); ++I) {
    char Pt[96];
    std::snprintf(Pt, sizeof(Pt),
                  "%s{\"interval\":%" PRIu64 ",\"micros\":%" PRIu64 "}",
                  I ? "," : "", Sweep[I].Interval, Sweep[I].Micros);
    SweepJson += Pt;
  }
  SweepJson += "],";

  char Extra[512];
  std::snprintf(Extra, sizeof(Extra),
                "\"subject\":\"%s\",\"execs\":%" PRIu64 ",\"reps\":%u,"
                "\"checkpoint_interval\":%" PRIu64 ","
                "\"campaign_inmemory_micros\":%" PRIu64 ","
                "\"campaign_stored_micros\":%" PRIu64 ","
                "\"overhead_pct\":%.3f,"
                "\"checkpoints_written\":%" PRIu64 ","
                "\"checkpoint_bytes\":%" PRIu64 ","
                "\"resume_micros\":%" PRIu64 ","
                "\"results_identical\":%s,",
                S->Name.c_str(), C.Execs, Reps, Interval, MemMin, StoredMin,
                OverheadPct, CkptWritten, CkptBytes, ResumeMicros,
                Identical ? "true" : "false");
  std::string Doc = benchRecord("store_overhead", {&TracedR}, SweepJson + Extra);

  fs::remove_all(Root, Ec);

  return writeBenchRecord(envStr("PATHFUZZ_BENCH_OUT", "BENCH_store.json"),
                          Doc, Identical);
}
