//===- Campaign.h - Fuzzer configurations and campaign drivers --*- C++ -*-===//
//
// Part of the pathfuzz project: a reproduction of "Towards Path-Aware
// Coverage-Guided Fuzzing" (CGO 2026).
//
//===----------------------------------------------------------------------===//
//
// The fuzzer configurations of the paper's evaluation (plus the prescient
// extension), each driving the same fuzzing core with a different feedback
// and/or exploration-biasing strategy:
//
//   pcguard  — AFL++'s default precise edge coverage (the baseline).
//   path     — Ball-Larus intra-procedural path feedback (Section III-A).
//   cull     — path + periodic edge-coverage-preserving queue culling
//              (Section III-B1): the campaign is divided into culling
//              rounds; after each round the queue is reduced to a
//              favored-corpus-style subset that preserves all covered
//              edges and a fresh fuzzer instance restarts from it. The
//              culling cost (re-running the retained seeds) is charged
//              against the budget, as the paper's driver does.
//   cull_r   — the Appendix D ablation: culling with *random* retention
//              (84-98% of the queue trimmed per round).
//   opp      — opportunistic (Section III-B2): half the budget fuzzes
//              with edge feedback; the resulting queue is stripped of
//              crashes, trimmed to an edge-preserving subset, and handed
//              to a path-aware fuzzer for the second half. Only the
//              second phase's bugs count for opp, matching the paper.
//   afl      — classic AFL edge hashing (the base of PathAFL).
//   pathafl  — the PathAFL comparator: classic AFL feedback plus coarse
//              whole-program call-path hashing with partial
//              instrumentation (Appendix C).
//   prescient — pcguard feedback plus static lookahead (the PrescientFuzz
//              analogue): mutation energy is scaled by each seed's
//              *frontier score* — the number of statically reachable-but-
//              uncovered blocks bordering the seed's covered edge set,
//              from the interprocedural reachability summary cached in
//              the build cache (analysis/Reachability.h). Strictly a
//              scheduling-weight change; feedback and mutation are the
//              pcguard baseline's.
//
// Budgets are measured in executions, the deterministic analogue of the
// paper's 48-hour wall-clock budgets.
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_STRATEGY_CAMPAIGN_H
#define PATHFUZZ_STRATEGY_CAMPAIGN_H

#include "fuzz/Fuzzer.h"
#include "lang/Compile.h"
#include "support/Bytes.h"
#include "vm/Image.h"

#include <functional>
#include <set>
#include <string>

namespace pathfuzz {
namespace strategy {

enum class FuzzerKind : uint8_t {
  Pcguard,
  Path,
  Cull,
  CullRandom,
  Opp,
  Afl,
  PathAfl,
  Prescient,
};

const char *fuzzerKindName(FuzzerKind K);

/// Inverse of fuzzerKindName: parse "pcguard"/"cull_r"/... back into a
/// kind. Returns false (leaving K untouched) when Name matches no
/// configuration — the service protocol and supervisors route client
/// strings through this instead of trusting raw enum values.
bool fuzzerKindFromName(const std::string &Name, FuzzerKind &K);

/// A program under test: MiniLang source plus its seed corpus.
struct Subject {
  std::string Name;
  std::string Source;
  std::vector<fuzz::Input> Seeds;
};

/// Upper bound on CampaignOptions::MaxInputLen. Each fuzzer instance
/// reserves a mutation buffer of MaxInputLen bytes.
constexpr size_t MaxInputLenLimit = size_t(1) << 20;

struct CampaignOptions {
  FuzzerKind Kind = FuzzerKind::Pcguard;
  uint64_t ExecBudget = 20000;
  uint64_t Seed = 1;
  uint32_t MapSizeLog2 = 16;
  /// Number of culling rounds for Cull/CullRandom. The paper uses
  /// 48h/6h = 8 rounds; with the scaled-down execution budgets 2 rounds
  /// keep each round long enough to rebuild momentum after a cull.
  uint32_t CullRounds = 2;
  /// Largest mutated input, in bytes: 1..MaxInputLenLimit (campaigns and
  /// fingerprints reject anything else).
  size_t MaxInputLen = 256;
  uint64_t StepLimit = 50000;
  bl::PlacementMode Placement = bl::PlacementMode::SpanningTree;
  /// Queue-size sampling interval (execs); 0 disables sampling.
  uint32_t GrowthSampleInterval = 1024;

  // Robustness knobs. None of these perturb the campaign's results: a
  // checkpointed or watchdog-bounded run executes the exact same fuzzing
  // schedule as an unadorned one.

  /// Emit a checkpoint through CheckpointSink roughly every this many
  /// campaign-cumulative execs (0 disables checkpointing). Checkpoints
  /// fire only at fuzzer safe points, so a run resumed from any emitted
  /// checkpoint is byte-identical to the uninterrupted run.
  uint64_t CheckpointInterval = 0;
  /// Receives each sealed checkpoint blob (see resumeCampaign).
  std::function<void(const std::vector<uint8_t> &)> CheckpointSink;
  /// Campaign-level exec watchdog: abort the campaign (with a structured
  /// CampaignError) once total executions reach this limit. 0 means the
  /// batch runner's default (a generous multiple of ExecBudget); the
  /// deterministic analogue of a wall-clock hang detector.
  uint64_t WatchdogExecLimit = 0;

  /// Cooperative preemption hook (the service scheduler and graceful
  /// drain): consulted at every safe-point checkpoint, immediately after
  /// the checkpoint was delivered to CheckpointSink. Returning true stops
  /// the campaign there — the driver returns its *partial* findings with
  /// CampaignError::Preempted set (informational only; partial results
  /// are not covered by the byte-identity oracle), and resuming from the
  /// just-emitted checkpoint later drives the campaign to a final result
  /// byte-identical to an uninterrupted run. Requires CheckpointInterval
  /// + CheckpointSink to ever fire; like the other robustness knobs it is
  /// excluded from the checkpoint fingerprint.
  std::function<bool()> StopRequest;

  /// Durable campaign store (strategy/Store.h). When non-empty,
  /// runCampaign() persists checkpoints under this directory and first
  /// recovers from the newest valid one already there, so a SIGKILL at
  /// any instant loses at most one checkpoint interval. The batch runner
  /// derives per-trial directories from the PATHFUZZ_STORE root for jobs
  /// that leave this empty. Like the other robustness knobs it never
  /// perturbs results and is excluded from the checkpoint fingerprint.
  std::string StoreDir;
  /// Checkpoint files retained on disk per campaign (oldest rotated out;
  /// min 1). More files buy deeper fallback when the newest is corrupt.
  uint32_t StoreKeepLast = 3;

  /// Telemetry: when enabled, every fuzzer instance records events,
  /// metrics and time-series samples, folded into CampaignResult::Trace.
  /// Observational only — traced and untraced campaigns produce
  /// byte-identical results. The batch runner arms this from the
  /// PATHFUZZ_TRACE environment knob for jobs that don't set it.
  telemetry::TraceConfig Trace;

  /// VM execution engine. Auto (the default) follows the
  /// PATHFUZZ_VM_FASTPATH and PATHFUZZ_VM_JIT environment knobs (JIT on
  /// where supported unless either is "0", fast path on unless
  /// PATHFUZZ_VM_FASTPATH is "0"); Interpreter/FastPath/Jit force one
  /// engine regardless of the environment (Jit falls back to the fast
  /// path on unsupported platforms — see vm::jitEnabled). All engines
  /// produce bit-identical campaign results — they only change per-exec
  /// cost — so, like the robustness knobs above, this is excluded from
  /// the checkpoint fingerprint: a run checkpointed under one engine may
  /// be resumed under another.
  vm::VmExecMode VmMode = vm::VmExecMode::Auto;

  /// Two-tier selective execution (fuzz/Fuzzer.h): bulk execs on a cheap
  /// probe-free image, full instrumented replay only on unseen exec-path
  /// signatures. Only On enables it; Auto (the default) and Off run one
  /// full exec per input (see vm::selectiveEnabled). Byte-identical
  /// campaign results either way — like VmMode, the mode only changes
  /// per-exec cost, and it is likewise excluded from the checkpoint
  /// fingerprint.
  vm::SelectiveMode Selective = vm::SelectiveMode::Auto;
};

/// Structured campaign failure, replacing in-band aborts: compile and
/// instrumentation errors (genuine or injected) and watchdog trips land
/// here instead of killing the process.
struct CampaignError {
  /// True when the campaign did not produce a (complete) result.
  bool Failed = false;
  /// Whether a retry may succeed (injected transient faults).
  bool Transient = false;
  /// True when the exec watchdog stopped a runaway campaign.
  bool Watchdog = false;
  /// True when CampaignOptions::StopRequest preempted the campaign at a
  /// safe-point checkpoint. Not a real failure: the accompanying result
  /// holds the findings so far, the emitted checkpoint resumes exactly,
  /// and retrying is pointless until whoever requested the stop clears it
  /// (Transient stays false).
  bool Preempted = false;
  /// Fault-injection site that triggered, when any (empty otherwise).
  std::string FaultSite;
  /// Human-readable diagnostic; for compile failures this preserves the
  /// frontend's full message.
  std::string Message;
};

/// Aggregated outcome of one campaign run (across culling rounds /
/// opportunistic phases where applicable).
struct CampaignResult {
  FuzzerKind Kind = FuzzerKind::Pcguard;
  uint64_t Execs = 0;
  /// Queue size at the end of the run (current instance for cull).
  uint64_t FinalQueueSize = 0;
  uint64_t TotalCrashes = 0;
  uint64_t TotalHangs = 0;
  /// Stack-hash-deduplicated crashes ("unique crashes").
  std::set<uint64_t> CrashHashes;
  /// Input-hash-deduplicated hangs across fuzzer instances.
  std::set<uint64_t> HangHashes;
  /// Ground-truth bug identities ("unique bugs").
  std::set<uint64_t> BugIds;
  /// Union of covered shadow edges, sorted ("afl-showmap" coverage).
  std::vector<uint32_t> EdgeSet;
  /// (execs, queue size) samples with cross-round offsets applied.
  std::vector<std::pair<uint64_t, uint64_t>> QueueGrowth;
  /// One representative crash per distinct stack hash.
  std::vector<fuzz::CrashRecord> UniqueCrashes;
  /// One representative hang per distinct input (Table V's overhead
  /// discussion references the step-limited tail).
  std::vector<fuzz::HangRecord> UniqueHangs;
  /// Telemetry trace (null when tracing was off). Deliberately excluded
  /// from serializeCampaignResult: the byte-identity oracle covers the
  /// campaign's *findings*, and the trace is exported through its own
  /// deterministic JSONL/CSV path instead.
  std::shared_ptr<telemetry::CampaignTrace> Trace;

  uint32_t edgesCovered() const {
    return static_cast<uint32_t>(EdgeSet.size());
  }
  uint64_t uniqueHangs() const { return HangHashes.size(); }
};

class SubjectBuild;

/// Compile, instrument and fuzz a subject under the given configuration.
/// Failures (compile errors, injected faults, watchdog trips) are
/// reported through *Err when provided; without an Err out-param a
/// failed campaign returns an empty result.
CampaignResult runCampaign(const Subject &S, const CampaignOptions &Opts,
                           CampaignError *Err = nullptr);

/// Same campaign, but on a pre-compiled shared build (see BuildCache.h).
/// Produces byte-identical results to the Subject overload for the same
/// options; the batch runner uses this to compile each subject once per
/// (feedback mode, placement, map size) instead of once per trial.
CampaignResult runCampaign(SubjectBuild &B, const CampaignOptions &Opts,
                           CampaignError *Err = nullptr);

/// Resume a campaign from a checkpoint blob previously delivered to
/// CheckpointSink. Opts must match the original run's options (the
/// checkpoint carries a fingerprint and the resume fails on mismatch).
/// Contract: the returned result is byte-identical (per
/// serializeCampaignResult) to the uninterrupted run's.
CampaignResult resumeCampaign(SubjectBuild &B, const CampaignOptions &Opts,
                              const std::vector<uint8_t> &Checkpoint,
                              CampaignError *Err = nullptr);
CampaignResult resumeCampaign(const Subject &S, const CampaignOptions &Opts,
                              const std::vector<uint8_t> &Checkpoint,
                              CampaignError *Err = nullptr);

/// Canonical byte serialization of a CampaignResult — the equality oracle
/// for the determinism and checkpoint/resume guarantees (two results are
/// "byte-identical" iff these blobs compare equal).
std::vector<uint8_t> serializeCampaignResult(const CampaignResult &R);

/// Inverse of serializeCampaignResult (the durable store persists final
/// results in this form). Returns false on malformed input, leaving R in
/// an unspecified state.
bool deserializeCampaignResult(const std::vector<uint8_t> &Blob,
                               CampaignResult &R);

/// Serialize the options fingerprint: every option the campaign schedule
/// depends on (kind, budget, seed, map size, cull rounds, input/step
/// limits, placement, sampling interval). Checkpoints and the durable
/// store's manifest both pin resumes to it; the robustness and engine
/// knobs (checkpoint cadence, watchdog, VmMode, Selective, StoreDir) are
/// deliberately excluded — they never affect results.
void writeOptionsFingerprint(ByteWriter &W, const CampaignOptions &Opts);

/// Parse a fingerprint back into Opts (only the pinned fields are
/// assigned; the rest keep their defaults). Returns false on malformed or
/// out-of-range input. The supervisor uses this to reconstruct runnable
/// options from a store manifest.
bool readOptionsFingerprint(ByteReader &Rd, CampaignOptions &Opts);

/// writeOptionsFingerprint's bytes on their own: every checkpoint payload
/// starts with them, and the store compares manifests by them.
std::vector<uint8_t> fingerprintBytes(const CampaignOptions &Opts);

/// Mark *Err (when non-null) as a failed campaign with this diagnostic,
/// clearing any earlier preemption. The one setter the drivers and the
/// store report failures through.
void setCampaignError(CampaignError *Err, std::string Message,
                      std::string FaultSite = "", bool Transient = false,
                      bool Watchdog = false);

} // namespace strategy
} // namespace pathfuzz

#endif // PATHFUZZ_STRATEGY_CAMPAIGN_H
