//===- BenchCommon.h - Shared benchmark-harness configuration ---*- C++ -*-===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// Every table/figure binary reads the same environment knobs, mirroring
// the artifact's RUNTIME / FUZZING_WINDOW_ORIG variables:
//
//   REPRO_RUNS      runs per (subject, fuzzer) pair   (default 3;
//                   the paper uses 10)
//   REPRO_EXECS     execution budget per run          (default 20000;
//                   the paper uses 48 hours)
//   REPRO_SUBJECTS  comma-separated subject subset    (default: all 18)
//   REPRO_SEED      base seed                         (default 7)
//   REPRO_LONG      multiply the budget by 8 (the "1-week campaign")
//   REPRO_VERBOSE   progress lines on stderr
//   PATHFUZZ_JOBS   worker threads for the campaign batch runner
//                   (default: hardware concurrency; results are
//                   byte-identical at any value)
//   PATHFUZZ_TRACE  telemetry tracing (see telemetry/Trace.h); with
//                   out=PATH the drivers that call exportTraces() write
//                   the merged campaign trace JSONL (and, with csv, the
//                   queue-trajectory CSV) next to their printed tables
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_BENCH_BENCHCOMMON_H
#define PATHFUZZ_BENCH_BENCHCOMMON_H

#include "strategy/Batch.h"
#include "strategy/Evaluation.h"
#include "support/Env.h"
#include "support/Hashing.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "support/Table.h"
#include "targets/Targets.h"
#include "telemetry/Export.h"
#include "telemetry/Report.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <type_traits>

namespace pathfuzz {
namespace bench {

/// Monotonic wall clock in microseconds, for the timing harnesses' legs.
inline uint64_t nowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Wall times from timeLegs: Micros[Leg][Rep].
struct LegTimes {
  std::vector<std::vector<uint64_t>> Micros;

  /// Leg I's fastest rep.
  uint64_t best(size_t I) const {
    uint64_t Best = ~0ull;
    for (uint64_t M : Micros[I])
      Best = std::min(Best, M);
    return Best;
  }

  /// Leg I's best-of-N rate: Ops operations in its fastest rep, per second.
  double perSec(size_t I, uint64_t Ops) const {
    const uint64_t Best = best(I);
    return Best && Best != ~0ull ? double(Ops) * 1e6 / double(Best) : 0.0;
  }

  /// Median over reps of Micros[Num][Rep] / Micros[Den][Rep], skipping
  /// reps where leg Den read 0 us. Each ratio pairs two legs of one rep,
  /// so both saw the same machine conditions; best-of-N on each side
  /// separately lets one lucky outlier flip the sign on a noisy box.
  double medianRatio(size_t Num, size_t Den) const {
    std::vector<double> Ratios;
    for (size_t Rep = 0; Rep < Micros[Den].size(); ++Rep)
      if (Micros[Den][Rep])
        Ratios.push_back(double(Micros[Num][Rep]) / double(Micros[Den][Rep]));
    return median(std::move(Ratios));
  }
};

/// The timing method every A/B harness shares: Reps reps of N legs. Rep R
/// runs the legs in the order R, R+1, ..., R+N-1 (mod N), so no leg
/// always runs first (cold) or last (warm), and machine drift taxes every
/// leg evenly. Leg(I, Rep) runs leg I under the clock and returns its
/// result; once every leg of a rep has run, Check(Rep, Results) sees the
/// rep's results, indexed by leg, off the clock. Callers warm their
/// caches before calling.
template <typename LegFn, typename CheckFn>
LegTimes timeLegs(size_t N, uint32_t Reps, LegFn &&Leg, CheckFn &&Check) {
  using Result = std::invoke_result_t<LegFn &, size_t, uint32_t>;
  LegTimes T;
  T.Micros.assign(N, std::vector<uint64_t>(Reps, 0));
  for (uint32_t Rep = 0; Rep < Reps; ++Rep) {
    std::vector<Result> Results(N);
    for (size_t K = 0; K < N; ++K) {
      const size_t I = (K + Rep) % N;
      const uint64_t T0 = nowMicros();
      Results[I] = Leg(I, Rep);
      T.Micros[I][Rep] = nowMicros() - T0;
    }
    Check(Rep, Results);
  }
  return T;
}

/// The example subjects under examples/minilang/. PATHFUZZ_EXAMPLES_DIR
/// overrides the baked-in source location (for out-of-tree runs); a
/// harness bakes it in by defining PATHFUZZ_SOURCE_DIR.
inline std::vector<strategy::Subject> loadExampleSubjects() {
#ifdef PATHFUZZ_SOURCE_DIR
  const char *Default = PATHFUZZ_SOURCE_DIR "/examples/minilang";
#else
  const char *Default = "examples/minilang";
#endif
  std::string Dir = envStr("PATHFUZZ_EXAMPLES_DIR", Default);
  std::vector<strategy::Subject> Out;
  for (const char *Name : {"sum", "lookup", "checksum", "tokens", "rle"}) {
    std::ifstream F(Dir + "/" + Name + ".ml");
    if (!F)
      continue;
    std::ostringstream SS;
    SS << F.rdbuf();
    strategy::Subject S;
    S.Name = Name;
    S.Source = SS.str();
    if (std::strcmp(Name, "lookup") == 0) {
      S.Seeds.push_back({'a', 'b', 'c'});
    } else {
      // The loop subjects scale with input length; a 1 KiB seed keeps
      // the measurement in the executor rather than in per-exec setup.
      fuzz::Input In(1024);
      Rng R(7);
      for (uint8_t &B : In)
        B = static_cast<uint8_t>(R.below(256));
      S.Seeds.push_back(std::move(In));
    }
    Out.push_back(std::move(S));
  }
  return Out;
}

/// Write a harness's JSON record to OutPath (each harness passes
/// envStr("PATHFUZZ_BENCH_OUT", "BENCH_<name>.json")) and return the exit
/// code: 0 when its checks held. A failed export only warns — the record
/// is a by-product, the checks are the verdict.
inline int writeBenchRecord(const std::string &OutPath,
                            const std::string &Doc, bool ChecksHeld) {
  std::string Err;
  if (!telemetry::exportFile(OutPath, Doc, &Err))
    std::fprintf(stderr, "warning: bench record export failed: %s\n",
                 Err.c_str());
  else
    std::printf("\nwrote %s\n", OutPath.c_str());
  return ChecksHeld ? 0 : 1;
}

/// The report tool's bench record (telemetry::benchJsonFromJsonl) over
/// the traced campaigns among Results, with a harness's own measurements
/// spliced in before its "configs" array. Fields is a run of JSON
/// members, each followed by a comma.
inline std::string
benchRecord(const std::string &Name,
            std::initializer_list<const strategy::CampaignResult *> Results,
            const std::string &Fields) {
  std::vector<const telemetry::CampaignTrace *> Traces;
  for (const strategy::CampaignResult *R : Results)
    if (R->Trace)
      Traces.push_back(R->Trace.get());
  std::string Doc =
      telemetry::benchJsonFromJsonl(telemetry::mergedJsonl(Traces), Name);
  size_t Pos = Doc.find("\"configs\":");
  if (Pos != std::string::npos)
    Doc.insert(Pos, Fields);
  return Doc;
}

struct BenchConfig {
  uint32_t Runs;
  uint64_t Execs;
  uint64_t Seed;
  bool Verbose;
  std::vector<strategy::Subject> Subjects;
  telemetry::TraceConfig Trace;

  static BenchConfig fromEnv() {
    BenchConfig C;
    C.Runs = static_cast<uint32_t>(envU64("REPRO_RUNS", 3));
    C.Execs = envU64("REPRO_EXECS", 20000);
    if (envU64("REPRO_LONG", 0))
      C.Execs *= 8;
    C.Seed = envU64("REPRO_SEED", 7);
    C.Verbose = envU64("REPRO_VERBOSE", 0) != 0;
    C.Subjects = targets::subjectsFromEnv();
    C.Trace = telemetry::traceConfigFromEnv();
    return C;
  }

  strategy::CampaignOptions campaignOptions() const {
    strategy::CampaignOptions Opts;
    Opts.ExecBudget = Execs;
    Opts.Seed = Seed;
    Opts.Trace = Trace;
    return Opts;
  }

  /// The subject the single-subject timing harnesses campaign on: jhead
  /// when REPRO_SUBJECTS selects it, else the first selected subject.
  const strategy::Subject &timingSubject() const {
    for (const strategy::Subject &S : Subjects)
      if (S.Name == "jhead")
        return S;
    return Subjects.front();
  }

  void printHeader(const char *What) const {
    std::printf("=== %s ===\n", What);
    std::printf("(%u run(s) x %llu execs per <subject, fuzzer> on %zu "
                "thread(s); REPRO_RUNS/REPRO_EXECS/REPRO_SUBJECTS/"
                "PATHFUZZ_JOBS scale this)\n\n",
                Runs, static_cast<unsigned long long>(Execs),
                strategy::resolvedJobCount());
  }
};

/// Run the standard evaluation for this binary's fuzzers. Campaigns fan
/// out across the batch runner's thread pool; output stays byte-identical
/// at any PATHFUZZ_JOBS value.
inline strategy::Evaluation
runEvaluation(const BenchConfig &C,
              const std::vector<strategy::FuzzerKind> &Kinds) {
  return strategy::evaluate(C.Subjects, Kinds, C.Runs, C.campaignOptions(),
                            C.Verbose);
}

/// Emit the campaign traces a driver collected when PATHFUZZ_TRACE asks
/// for out=PATH: the merged JSONL goes to PATH, and with the csv flag
/// the queue-trajectory table additionally goes to PATH.csv. Export
/// failures (including the telemetry.export.fail fault site) degrade to
/// a stderr warning — the driver's printed tables are never affected.
inline void exportTraces(const BenchConfig &C,
                         const std::vector<strategy::CampaignResult> &Results) {
  if (!C.Trace.Enabled || C.Trace.OutPath.empty())
    return;
  std::vector<const telemetry::CampaignTrace *> Traces;
  for (const strategy::CampaignResult &R : Results)
    if (R.Trace)
      Traces.push_back(R.Trace.get());
  if (Traces.empty())
    return;
  std::string Err;
  std::string Jsonl = telemetry::mergedJsonl(Traces, C.Trace.Wall);
  if (!telemetry::exportFile(C.Trace.OutPath, Jsonl, &Err))
    std::fprintf(stderr, "warning: trace export failed: %s\n", Err.c_str());
  if (C.Trace.Csv &&
      !telemetry::exportFile(C.Trace.OutPath + ".csv",
                             telemetry::queueTrajectoryCsv(Traces), &Err))
    std::fprintf(stderr, "warning: trace export failed: %s\n", Err.c_str());
}

} // namespace bench
} // namespace pathfuzz

#endif // PATHFUZZ_BENCH_BENCHCOMMON_H
