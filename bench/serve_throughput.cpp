//===- serve_throughput.cpp - Campaign service cost measurement ---------------===//
//
// Part of the pathfuzz project.
//
// Prices the service daemon's three taxes on top of the campaigns it
// runs, and proves the multiplexing loses nothing:
//
//  - submission latency: protocol round-trip micros over a live unix
//    socket (submit + the idempotent resubmit, separately — the second
//    is the pure protocol floor, the first includes the durable
//    store-open admission write);
//  - scheduling throughput: campaigns/sec at 1, 8, 64 and 512 concurrent
//    campaigns spread across up to 8 tenants, with the zero-lost-work
//    check at the top scale — every campaign Done, every exec budget
//    fully consumed, every result byte-identical to an uninterrupted
//    plain runCampaigns() of the same cells;
//  - preemption overhead: the same 16-campaign workload with slices of 1
//    checkpoint (maximum interleaving) vs effectively-infinite slices
//    (run-to-completion), vs the plain batch runner without the service
//    or the store at all.
//
// Writes the record to BENCH_serve.json (PATHFUZZ_BENCH_OUT overrides).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "serve/Protocol.h"
#include "serve/Scheduler.h"
#include "serve/Server.h"

#include <algorithm>
#include <cinttypes>
#include <filesystem>
#include <thread>

#include <unistd.h>

using namespace pathfuzz;
using namespace pathfuzz::bench;
using namespace pathfuzz::serve;
using strategy::BatchJob;
using strategy::CampaignOptions;
using strategy::CampaignResult;
using strategy::Subject;
namespace fs = std::filesystem;

namespace {

uint64_t counterOf(const telemetry::MetricsRegistry &Snap, const char *Name) {
  auto It = Snap.counters().find(Name);
  return It == Snap.counters().end() ? 0 : It->second;
}

std::string freshRoot(const char *Tag) {
  std::string Root = (fs::temp_directory_path() /
                      ("pathfuzz-bench-serve-" + std::string(Tag) + "-" +
                       std::to_string(::getpid())))
                         .string();
  std::error_code Ec;
  fs::remove_all(Root, Ec);
  return Root;
}

/// The options the scheduler derives from one submission — the reference
/// side of the zero-lost-work identity check.
CampaignOptions cellOpts(uint64_t Seed, uint64_t Budget, uint64_t Interval) {
  CampaignOptions Opts;
  Opts.ExecBudget = Budget;
  Opts.Seed = Seed;
  Opts.CheckpointInterval = Interval;
  Opts.CheckpointSink = [](const std::vector<uint8_t> &) {};
  return Opts;
}

struct ScaleResult {
  size_t Campaigns = 0;
  size_t Tenants = 0;
  uint64_t Micros = 0;
  uint64_t Preempted = 0;
  uint64_t Slices = 0;
  bool AllDone = false;
};

} // namespace

int main() {
  BenchConfig C = BenchConfig::fromEnv();
  C.printHeader("Campaign service: submission latency, scheduling "
                "throughput, preemption overhead");

  const Subject &S = C.Subjects.front();
  // Small per-campaign budgets: the top scale runs 512 of them, and the
  // daemon's own cost is what's being priced, not the campaigns'.
  const uint64_t Budget = std::max<uint64_t>(300, C.Execs / 32);
  const uint64_t Interval = std::max<uint64_t>(100, Budget / 3);

  //===------------------------------------------------------------------===//
  // Leg 1: submission latency over a live socket.
  //===------------------------------------------------------------------===//
  double SubmitMedian = 0, ResubmitMedian = 0, StatusMedian = 0;
  {
    SchedulerConfig SC;
    SC.Root = freshRoot("latency");
    SC.CheckpointInterval = Interval;
    Scheduler Sched(SC, {S});
    ServerConfig VC;
    VC.SocketPath = (fs::temp_directory_path() /
                     ("pf-bench-" + std::to_string(::getpid()) + ".sock"))
                        .string();
    Server Srv(VC, Sched);
    std::string Err;
    if (!Srv.start(&Err)) {
      std::fprintf(stderr, "serve_throughput: %s\n", Err.c_str());
      return 1;
    }
    std::thread ServerThread([&Srv] { Srv.run(); });

    Client Cl;
    if (!Cl.connect(VC.SocketPath, &Err)) {
      std::fprintf(stderr, "serve_throughput: %s\n", Err.c_str());
      return 1;
    }
    auto TimedRequest = [&Cl](const std::string &Line) {
      std::string Reply;
      uint64_t T0 = nowMicros();
      bool Ok = Cl.request(Line, Reply);
      uint64_t Dt = nowMicros() - T0;
      return std::make_pair(Ok, Dt);
    };
    const size_t Reps = 64;
    std::vector<uint64_t> Submit, Resubmit, Status;
    for (size_t I = 0; I < Reps; ++I) {
      std::string Req = "{\"verb\":\"submit\",\"tenant\":\"lat\",\"subject\":\"" +
                        S.Name + "\",\"seed\":" + std::to_string(1000 + I) +
                        ",\"budget\":" + std::to_string(Budget) +
                        ",\"trace\":0}";
      auto First = TimedRequest(Req);  // pays the durable store-open
      auto Second = TimedRequest(Req); // pure protocol floor (idempotent)
      std::string Id = campaignId("lat", S.Name, "pcguard", 1000 + I, Budget);
      auto St = TimedRequest("{\"verb\":\"status\",\"id\":\"" + Id + "\"}");
      if (First.first)
        Submit.push_back(First.second);
      if (Second.first)
        Resubmit.push_back(Second.second);
      if (St.first)
        Status.push_back(St.second);
    }
    SubmitMedian = median(Submit);
    ResubmitMedian = median(Resubmit);
    StatusMedian = median(Status);

    Srv.stop();
    ServerThread.join();
    Sched.drain();
    std::error_code Ec;
    fs::remove_all(SC.Root, Ec);
  }
  std::printf("submission latency over the socket (median of 64):\n");
  std::printf("  submit (admission + store open): %8.1f us\n",
              SubmitMedian);
  std::printf("  resubmit (idempotent, no store): %8.1f us\n",
              ResubmitMedian);
  std::printf("  status:                          %8.1f us\n",
              StatusMedian);

  //===------------------------------------------------------------------===//
  // Leg 2: campaigns/sec at 1 / 8 / 64 / 512 concurrent campaigns, the
  // top scale doubling as the zero-lost-work drill.
  //===------------------------------------------------------------------===//
  // References for the identity check: results depend on the cell
  // (subject, fuzzer, seed, budget), not the tenant, so 512 campaigns
  // across 8 tenants need only 64 distinct references.
  const size_t MaxScale = 512, TenantFan = 8;
  const size_t DistinctSeeds = MaxScale / TenantFan;
  std::vector<std::vector<uint8_t>> Refs(DistinctSeeds);
  {
    std::vector<BatchJob> Jobs(DistinctSeeds);
    for (size_t I = 0; I < DistinctSeeds; ++I) {
      Jobs[I].S = &S;
      Jobs[I].Opts = cellOpts(C.Seed + I, Budget, Interval);
    }
    std::vector<CampaignResult> Results = strategy::runCampaigns(Jobs);
    for (size_t I = 0; I < DistinctSeeds; ++I)
      Refs[I] = strategy::serializeCampaignResult(Results[I]);
  }

  std::vector<ScaleResult> Scales;
  bool ZeroLostWork = true;
  for (size_t N : {size_t(1), size_t(8), size_t(64), MaxScale}) {
    SchedulerConfig SC;
    SC.Root = freshRoot("scale");
    SC.CheckpointInterval = Interval;
    // 1-checkpoint slices: short bench campaigns would otherwise finish
    // inside the default slice and never preempt, and the zero-lost-work
    // check below is only interesting under real preemption churn.
    SC.SliceCheckpoints = 1;
    Scheduler Sched(SC, {S});

    const size_t Tenants = std::min(N, TenantFan);
    ScaleResult R;
    R.Campaigns = N;
    R.Tenants = Tenants;
    uint64_t T0 = nowMicros();
    for (size_t I = 0; I < N; ++I) {
      std::string Id, Err;
      bool Existing = false;
      if (!Sched.submit("tenant" + std::to_string(I % Tenants), S.Name,
                        "pcguard", C.Seed + I / Tenants, Budget,
                        /*Trace=*/false, Id, Existing, Err)) {
        std::fprintf(stderr, "serve_throughput: submit: %s\n", Err.c_str());
        return 1;
      }
    }
    if (!Sched.waitIdle(600000)) {
      std::fprintf(stderr, "serve_throughput: waitIdle timed out\n");
      return 1;
    }
    R.Micros = nowMicros() - T0;
    telemetry::MetricsRegistry Snap = Sched.statsSnapshot();
    R.Preempted = counterOf(Snap, "serve.preempted");
    R.Slices = counterOf(Snap, "serve.slices");
    R.AllDone = counterOf(Snap, "serve.done") == N;

    // Zero lost work at the top scale: every campaign Done with its full
    // budget, byte-identical to the uninterrupted reference of its cell.
    if (N == MaxScale) {
      for (size_t I = 0; I < N && R.AllDone; ++I) {
        std::string Id =
            campaignId("tenant" + std::to_string(I % Tenants), S.Name,
                       "pcguard", C.Seed + I / Tenants, Budget);
        std::vector<uint8_t> Blob;
        std::string Err;
        if (!Sched.results(Id, Blob, Err) || Blob != Refs[I / Tenants])
          ZeroLostWork = false;
      }
      ZeroLostWork = ZeroLostWork && R.AllDone;
    }
    Scales.push_back(R);
    std::error_code Ec;
    fs::remove_all(SC.Root, Ec);
  }

  std::printf("\nscheduling throughput (%" PRIu64 "-exec campaigns, "
              "%" PRIu64 "-exec checkpoints, %zu workers):\n",
              Budget, Interval, strategy::resolvedJobCount());
  for (const ScaleResult &R : Scales)
    std::printf("  %4zu campaigns / %zu tenant(s): %8.1f campaigns/sec "
                "(%" PRIu64 " slices, %" PRIu64 " preemptions)%s\n",
                R.Campaigns, R.Tenants,
                R.Micros ? 1e6 * double(R.Campaigns) / double(R.Micros) : 0.0,
                R.Slices, R.Preempted, R.AllDone ? "" : "  [INCOMPLETE]");
  std::printf("zero lost work at %zu campaigns x %zu tenants: %s\n", MaxScale,
              TenantFan, ZeroLostWork ? "yes" : "NO");

  //===------------------------------------------------------------------===//
  // Leg 3: preemption overhead. The same 16-campaign workload three ways.
  //===------------------------------------------------------------------===//
  const size_t PreemptN = 16;
  auto RunSliced = [&](uint32_t SliceCheckpoints) -> uint64_t {
    SchedulerConfig SC;
    SC.Root = freshRoot("preempt");
    SC.CheckpointInterval = Interval;
    SC.SliceCheckpoints = SliceCheckpoints;
    Scheduler Sched(SC, {S});
    uint64_t T0 = nowMicros();
    for (size_t I = 0; I < PreemptN; ++I) {
      std::string Id, Err;
      bool Existing = false;
      if (!Sched.submit("t" + std::to_string(I % TenantFan), S.Name, "pcguard",
                        C.Seed + I, Budget, false, Id, Existing, Err))
        return 0;
    }
    if (!Sched.waitIdle(600000))
      return 0;
    uint64_t Dt = nowMicros() - T0;
    std::error_code Ec;
    fs::remove_all(SC.Root, Ec);
    return Dt;
  };
  const uint64_t SlicedMicros = RunSliced(1);    // preempt at every ckpt
  const uint64_t UnslicedMicros = RunSliced(~0u); // run to completion
  uint64_t PlainMicros = 0;
  {
    std::vector<BatchJob> Jobs(PreemptN);
    for (size_t I = 0; I < PreemptN; ++I) {
      Jobs[I].S = &S;
      Jobs[I].Opts = cellOpts(C.Seed + I, Budget, Interval);
    }
    uint64_t T0 = nowMicros();
    (void)strategy::runCampaigns(Jobs);
    PlainMicros = nowMicros() - T0;
  }
  auto Pct = [](uint64_t A, uint64_t Base) {
    return Base ? 100.0 * (double(A) - double(Base)) / double(Base) : 0.0;
  };
  std::printf("\npreemption overhead (%zu campaigns):\n", PreemptN);
  std::printf("  plain runCampaigns (no service):   %8" PRIu64 " us\n",
              PlainMicros);
  std::printf("  service, run-to-completion slices: %8" PRIu64
              " us (%+.2f%% vs plain)\n",
              UnslicedMicros, Pct(UnslicedMicros, PlainMicros));
  std::printf("  service, 1-checkpoint slices:      %8" PRIu64
              " us (%+.2f%% vs plain, %+.2f%% vs unsliced)\n",
              SlicedMicros, Pct(SlicedMicros, PlainMicros),
              Pct(SlicedMicros, UnslicedMicros));

  //===------------------------------------------------------------------===//
  // The bench record.
  //===------------------------------------------------------------------===//
  std::string ScaleJson = "\"scales\":[";
  for (size_t I = 0; I < Scales.size(); ++I) {
    const ScaleResult &R = Scales[I];
    char Pt[192];
    std::snprintf(Pt, sizeof(Pt),
                  "%s{\"campaigns\":%zu,\"tenants\":%zu,\"micros\":%" PRIu64
                  ",\"slices\":%" PRIu64 ",\"preempted\":%" PRIu64
                  ",\"all_done\":%s}",
                  I ? "," : "", R.Campaigns, R.Tenants, R.Micros, R.Slices,
                  R.Preempted, R.AllDone ? "true" : "false");
    ScaleJson += Pt;
  }
  ScaleJson += "]";

  char Doc[1536];
  std::snprintf(
      Doc, sizeof(Doc),
      "{\"bench\":\"serve_throughput\",\"subject\":\"%s\","
      "\"budget\":%" PRIu64 ",\"checkpoint_interval\":%" PRIu64 ","
      "\"workers\":%zu,"
      "\"submit_micros\":%.1f,\"resubmit_micros\":%.1f,"
      "\"status_micros\":%.1f,%s,"
      "\"zero_lost_work\":%s,"
      "\"preempt_campaigns\":%zu,\"plain_micros\":%" PRIu64 ","
      "\"unsliced_micros\":%" PRIu64 ",\"sliced_micros\":%" PRIu64 ","
      "\"preempt_overhead_pct\":%.3f}\n",
      S.Name.c_str(), Budget, Interval, strategy::resolvedJobCount(),
      SubmitMedian, ResubmitMedian, StatusMedian, ScaleJson.c_str(),
      ZeroLostWork ? "true" : "false", PreemptN, PlainMicros, UnslicedMicros,
      SlicedMicros, Pct(SlicedMicros, UnslicedMicros));

  return writeBenchRecord(envStr("PATHFUZZ_BENCH_OUT", "BENCH_serve.json"),
                          Doc, ZeroLostWork);
}
