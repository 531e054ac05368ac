//===- Export.cpp - JSONL / CSV trace exporters ---------------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Export.h"

#include "support/FaultInjection.h"
#include "support/Io.h"
#include "telemetry/Report.h"

#include <algorithm>
#include <sstream>

namespace pathfuzz {
namespace telemetry {

namespace {

/// The shared identity prefix every line carries, so each JSONL line is
/// independently attributable after merging.
void identity(std::ostringstream &O, const CampaignTrace &T) {
  O << "\"subject\":\"" << jsonEscape(T.Subject) << "\",\"fuzzer\":\""
    << jsonEscape(T.Fuzzer) << "\",\"seed\":" << T.Seed;
}

void emitEvent(std::ostringstream &O, const CampaignTrace &T,
               const std::string &Label, uint64_t Offset, const Event &E) {
  O << "{\"type\":\"event\",";
  identity(O, T);
  O << ",\"instance\":\"" << jsonEscape(Label) << "\",\"kind\":\""
    << eventKindName(E.Kind) << "\",\"exec\":" << (Offset + E.Exec)
    << ",\"a32\":" << E.Arg32 << ",\"a64\":" << E.Arg64
    << ",\"a8\":" << unsigned(E.Arg8) << "}\n";
}

void emitSample(std::ostringstream &O, const CampaignTrace &T,
                const std::string &Label, uint64_t Offset, const Sample &S) {
  O << "{\"type\":\"sample\",";
  identity(O, T);
  O << ",\"instance\":\"" << jsonEscape(Label) << "\",\"exec\":"
    << (Offset + S.Exec) << ",\"queue\":" << S.QueueSize
    << ",\"favored\":" << S.Favored << ",\"edges\":" << S.EdgesCovered
    << ",\"crashes\":" << S.Crashes << ",\"uniq_crashes\":" << S.UniqueCrashes
    << ",\"hangs\":" << S.Hangs << ",\"uniq_bugs\":" << S.UniqueBugs
    << ",\"cull_passes\":" << S.CullPasses << ",\"dict\":" << S.DictSize
    << "}\n";
}

void emitMetrics(std::ostringstream &O, const CampaignTrace &T,
                 const std::string &Label, const MetricsRegistry &M) {
  for (const auto &[Name, V] : M.counters()) {
    O << "{\"type\":\"counter\",";
    identity(O, T);
    O << ",\"instance\":\"" << jsonEscape(Label) << "\",\"name\":\""
      << jsonEscape(Name) << "\",\"value\":" << V << "}\n";
  }
  for (const auto &[Name, V] : M.gauges()) {
    O << "{\"type\":\"gauge\",";
    identity(O, T);
    O << ",\"instance\":\"" << jsonEscape(Label) << "\",\"name\":\""
      << jsonEscape(Name) << "\",\"value\":" << V << "}\n";
  }
  for (const auto &[Name, H] : M.histograms()) {
    O << "{\"type\":\"histogram\",";
    identity(O, T);
    O << ",\"instance\":\"" << jsonEscape(Label) << "\",\"name\":\""
      << jsonEscape(Name) << "\",\"count\":" << H.Count << ",\"sum\":" << H.Sum
      << ",\"min\":" << (H.Count ? H.Min : 0) << ",\"max\":" << H.Max
      << ",\"buckets\":[";
    // Sparse [bucket, count] pairs: 64 fixed buckets are mostly empty.
    bool FirstB = true;
    for (uint32_t B = 0; B < Histogram::NumBuckets; ++B) {
      if (!H.Buckets[B])
        continue;
      if (!FirstB)
        O << ",";
      FirstB = false;
      O << "[" << B << "," << H.Buckets[B] << "]";
    }
    O << "]}\n";
  }
}

/// Stable presentation order for merged artifacts.
std::vector<const CampaignTrace *>
sorted(const std::vector<const CampaignTrace *> &Traces) {
  std::vector<const CampaignTrace *> Out;
  Out.reserve(Traces.size());
  for (const CampaignTrace *T : Traces)
    if (T)
      Out.push_back(T);
  std::stable_sort(Out.begin(), Out.end(),
                   [](const CampaignTrace *A, const CampaignTrace *B) {
                     if (A->Subject != B->Subject)
                       return A->Subject < B->Subject;
                     if (A->Fuzzer != B->Fuzzer)
                       return A->Fuzzer < B->Fuzzer;
                     return A->Seed < B->Seed;
                   });
  return Out;
}

} // namespace

std::string traceJsonl(const CampaignTrace &T, bool Wall) {
  std::ostringstream O;
  O << "{\"type\":\"campaign\",";
  identity(O, T);
  O << ",\"instances\":" << T.Instances.size();
  if (Wall)
    O << ",\"wall_micros\":" << T.WallMicros;
  O << "}\n";
  for (const InstanceRecord &Rec : T.Instances) {
    O << "{\"type\":\"instance\",";
    identity(O, T);
    O << ",\"instance\":\"" << jsonEscape(Rec.Label)
      << "\",\"exec_offset\":" << Rec.ExecOffset
      << ",\"events_recorded\":" << Rec.EventsRecorded
      << ",\"events_kept\":" << Rec.Events.size() << "}\n";
    for (const Sample &S : Rec.Samples)
      emitSample(O, T, Rec.Label, Rec.ExecOffset, S);
    for (const Event &E : Rec.Events)
      emitEvent(O, T, Rec.Label, Rec.ExecOffset, E);
    emitMetrics(O, T, Rec.Label, Rec.Metrics);
  }
  // Campaign-level driver events already carry cumulative exec indices.
  for (const Event &E : T.CampaignEvents)
    emitEvent(O, T, "campaign", 0, E);
  return O.str();
}

std::string mergedJsonl(const std::vector<const CampaignTrace *> &Traces,
                        bool Wall) {
  std::string Out;
  for (const CampaignTrace *T : sorted(Traces))
    Out += traceJsonl(*T, Wall);
  return Out;
}

std::string csvField(const std::string &Raw) {
  if (Raw.find_first_of(",\"\n\r") == std::string::npos)
    return Raw;
  std::string Out = "\"";
  for (char C : Raw) {
    if (C == '"')
      Out += '"';
    Out += C;
  }
  Out += '"';
  return Out;
}

std::string
queueTrajectoryCsv(const std::vector<const CampaignTrace *> &Traces) {
  std::ostringstream O;
  O << "subject,fuzzer,seed,execs,queue\n";
  for (const CampaignTrace *T : sorted(Traces))
    for (const InstanceRecord &Rec : T->Instances)
      for (const Sample &S : Rec.Samples)
        O << csvField(T->Subject) << "," << csvField(T->Fuzzer) << ","
          << T->Seed << "," << (Rec.ExecOffset + S.Exec) << ","
          << S.QueueSize << "\n";
  return O.str();
}

std::string coverageCsv(const std::vector<const CampaignTrace *> &Traces) {
  std::ostringstream O;
  O << "subject,fuzzer,seed,execs,edges\n";
  for (const CampaignTrace *T : sorted(Traces))
    for (const InstanceRecord &Rec : T->Instances)
      for (const Sample &S : Rec.Samples)
        O << csvField(T->Subject) << "," << csvField(T->Fuzzer) << ","
          << T->Seed << "," << (Rec.ExecOffset + S.Exec) << ","
          << S.EdgesCovered << "\n";
  return O.str();
}

bool exportFile(const std::string &Path, const std::string &Content,
                std::string *Err) {
  if (fault::enabled() && fault::shouldFail("telemetry.export.fail")) {
    if (Err)
      *Err = "injected fault at telemetry.export.fail";
    return false;
  }
  // Atomic publish (support/Io.h): a crash mid-export must leave the
  // previous complete trace, never a half-written JSONL/CSV a downstream
  // report run would misparse.
  return io::atomicWriteFile(Path, Content, Err);
}

} // namespace telemetry
} // namespace pathfuzz
