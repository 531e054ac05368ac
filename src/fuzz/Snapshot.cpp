//===- Snapshot.cpp - Versioned, checksummed fuzzer-state snapshots -----------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Snapshot.h"

#include "support/Hashing.h"

#include <algorithm>

namespace pathfuzz {
namespace fuzz {

std::vector<uint8_t> sealSnapshot(std::vector<uint8_t> Payload) {
  ByteWriter W;
  W.u32(SnapshotMagic);
  W.u32(SnapshotVersion);
  W.u64(Payload.size());
  W.u64(fnv1a(Payload.data(), Payload.size()));
  W.bytes(Payload.data(), Payload.size());
  return W.take();
}

bool openSnapshot(const std::vector<uint8_t> &Blob,
                  std::vector<uint8_t> &Payload, std::string *VersionError) {
  ByteReader R(Blob);
  if (R.u32() != SnapshotMagic)
    return false;
  uint32_t Version = R.u32();
  uint64_t Len = R.u64();
  uint64_t Checksum = R.u64();
  if (!R.ok() || Len != R.remaining())
    return false;
  std::vector<uint8_t> P = R.raw(Len);
  if (!R.done() || fnv1a(P.data(), P.size()) != Checksum)
    return false;
  if (Version != SnapshotVersion) {
    if (VersionError)
      *VersionError = "snapshot version " + std::to_string(Version) +
                      ", this build reads version " +
                      std::to_string(SnapshotVersion);
    return false;
  }
  Payload = std::move(P);
  return true;
}

void writeInput(ByteWriter &W, const Input &Data) { W.blob(Data); }

Input readInput(ByteReader &R) { return R.blob(); }

namespace {

void writeFault(ByteWriter &W, const vm::Fault &F) {
  W.u8(static_cast<uint8_t>(F.Kind));
  W.u32(F.Func);
  W.u32(F.Block);
  W.u32(F.InstrIdx);
  W.u64(F.Stack.size());
  for (const vm::StackFrameRef &Fr : F.Stack) {
    W.u32(Fr.Func);
    W.u32(Fr.Block);
    W.u32(Fr.InstrIdx);
  }
}

vm::Fault readFault(ByteReader &R) {
  vm::Fault F;
  F.Kind = static_cast<vm::FaultKind>(R.u8());
  F.Func = R.u32();
  F.Block = R.u32();
  F.InstrIdx = R.u32();
  uint64_t N = R.u64();
  if (N > R.remaining() / 12) {
    // Poison the reader; the caller's done()/ok() check rejects the blob.
    R.invalidate();
    N = 0;
  }
  F.Stack.resize(N);
  for (vm::StackFrameRef &Fr : F.Stack) {
    Fr.Func = R.u32();
    Fr.Block = R.u32();
    Fr.InstrIdx = R.u32();
  }
  return F;
}

} // namespace

void writeCrashRecord(ByteWriter &W, const CrashRecord &C) {
  writeInput(W, C.Data);
  writeFault(W, C.TheFault);
  W.u64(C.StackHash);
  W.u64(C.BugId);
  W.u64(C.AtExec);
}

CrashRecord readCrashRecord(ByteReader &R) {
  CrashRecord C;
  C.Data = readInput(R);
  C.TheFault = readFault(R);
  C.StackHash = R.u64();
  C.BugId = R.u64();
  C.AtExec = R.u64();
  return C;
}

void writeHangRecord(ByteWriter &W, const HangRecord &H) {
  writeInput(W, H.Data);
  W.u64(H.Steps);
  W.u64(H.AtExec);
  W.u64(H.InputHash);
}

HangRecord readHangRecord(ByteReader &R) {
  HangRecord H;
  H.Data = readInput(R);
  H.Steps = R.u64();
  H.AtExec = R.u64();
  H.InputHash = R.u64();
  return H;
}

namespace {

void writeQueueEntry(ByteWriter &W, const QueueEntry &E) {
  W.blob(E.Data);
  W.u64(E.Checksum);
  W.u64(E.Steps);
  W.u32(E.Depth);
  W.u8(E.Favored);
  W.u8(E.WasFuzzed);
  W.u64(E.FoundAtExec);
  W.ascendingU32(E.MapSet);
  W.ascendingU32(E.EdgeSet);
}

QueueEntry readQueueEntry(ByteReader &R, uint32_t MapSize,
                          uint32_t NumEdges) {
  QueueEntry E;
  E.Data = R.blob();
  E.Checksum = R.u64();
  E.Steps = R.u64();
  E.Depth = R.u32();
  E.Favored = R.u8() != 0;
  E.WasFuzzed = R.u8() != 0;
  E.FoundAtExec = R.u64();
  E.MapSet = R.ascendingU32(MapSize);
  E.EdgeSet = R.ascendingU32(NumEdges);
  return E;
}

} // namespace

std::vector<uint8_t> Fuzzer::snapshot() const {
  ByteWriter W;

  // Structural fingerprint, validated before restore() mutates anything.
  W.u32(Trace.size());
  W.u32(static_cast<uint32_t>(EdgeCovered.size()));

  // RNG stream position and schedule cursor.
  uint64_t RngState[4];
  R.saveState(RngState);
  for (uint64_t S : RngState)
    W.u64(S);
  W.u64(Sched.CurIdx);
  W.u64(Sched.CycleEnd);
  W.u64(Sched.Cycles);

  // Stats.
  W.u64(Stats.Execs);
  W.u64(Stats.Crashes);
  W.u64(Stats.Hangs);
  W.u64(Stats.LastFindExec);
  W.u64(Stats.QueueCycles);
  W.u64(Stats.QueueGrowth.size());
  for (auto [Execs, QueueSize] : Stats.QueueGrowth) {
    W.u64(Execs);
    W.u64(QueueSize);
  }
  W.u64(AvgStepsNum);
  W.u64(AvgStepsDen);

  // Coverage, sparse: the virgin map's touched indices and their bytes,
  // then the covered shadow edges.
  std::vector<uint32_t> Touched = Virgin.touchedIndices();
  W.ascendingU32(Touched);
  for (uint32_t I : Touched)
    W.u8(Virgin.data()[I]);
  W.ascendingU32(coveredEdgeList());

  // Cmp dictionary (the set is rebuilt from the vector on restore).
  W.vecI64(CmpDict);

  // Findings. The hash sets are exactly the records' hashes, so only the
  // records are serialized; Bugs is materialized sorted for determinism.
  std::vector<uint64_t> BugList(Bugs.begin(), Bugs.end());
  std::sort(BugList.begin(), BugList.end());
  W.vecU64(BugList);
  W.u64(Crashes.size());
  for (const CrashRecord &C : Crashes)
    writeCrashRecord(W, C);
  W.u64(Hangs.size());
  for (const HangRecord &H : Hangs)
    writeHangRecord(W, H);

  // Corpus and its cull state; restore rebuilds the top-rated table from
  // the entries.
  W.u64(Q.size());
  for (size_t I = 0; I < Q.size(); ++I)
    writeQueueEntry(W, Q[I]);
  W.u8(Q.cullPending());
  W.u32(Q.pendingFavored());
  W.u64(Q.cullPasses());

  // Telemetry section (version 2): the instance recorder's cumulative
  // state, so a killed-and-resumed campaign reports the same metrics,
  // samples and event history as an uninterrupted one. Untraced fuzzers
  // write an absence byte.
  if (Tr) {
    W.u8(1);
    Tr->serializeState(W);
  } else {
    W.u8(0);
  }

  return sealSnapshot(W.take());
}

bool Fuzzer::restore(const std::vector<uint8_t> &Blob) {
  std::vector<uint8_t> Payload;
  if (!openSnapshot(Blob, Payload))
    return false;
  ByteReader Rd(Payload);

  // Structural fingerprint first: nothing is mutated on mismatch. Past
  // this point state is overwritten as it is read, so a false return from
  // a later check leaves the fuzzer half-restored and it must be
  // discarded (the campaign drivers do).
  if (Rd.u32() != Trace.size() ||
      Rd.u32() != static_cast<uint32_t>(EdgeCovered.size()) || !Rd.ok())
    return false;

  // The selective-mode signature cache is deliberately absent from the
  // blob (it is pure cache: a resumed run just replays more). It must not
  // survive the restore either — entries observed before the restore may
  // name paths the restored virgin map has never consumed, and a stale
  // skip would drop real novelty.
  SeenSigs.clear();

  uint64_t RngState[4];
  for (uint64_t &S : RngState)
    S = Rd.u64();
  R.loadState(RngState);
  Sched.CurIdx = Rd.u64();
  Sched.CycleEnd = Rd.u64();
  Sched.Cycles = Rd.u64();

  Stats.Execs = Rd.u64();
  Stats.Crashes = Rd.u64();
  Stats.Hangs = Rd.u64();
  Stats.LastFindExec = Rd.u64();
  Stats.QueueCycles = Rd.u64();
  Stats.QueueGrowth.clear();
  uint64_t NGrowth = Rd.u64();
  if (NGrowth > Rd.remaining() / 16)
    return false;
  Stats.QueueGrowth.reserve(NGrowth);
  for (uint64_t I = 0; I < NGrowth; ++I) {
    uint64_t Execs = Rd.u64();
    uint64_t QueueSize = Rd.u64();
    Stats.QueueGrowth.push_back({Execs, QueueSize});
  }
  AvgStepsNum = Rd.u64();
  AvgStepsDen = Rd.u64();

  std::vector<uint32_t> Touched = Rd.ascendingU32(Trace.size());
  if (!Virgin.restoreSparse(Touched, Rd.raw(Touched.size())))
    return false;
  std::vector<uint32_t> Covered = Rd.ascendingU32(EdgeCovered.size());
  std::fill(EdgeCovered.begin(), EdgeCovered.end(), 0);
  for (uint32_t Edge : Covered)
    EdgeCovered[Edge] = 1;
  EdgeCoveredCount = static_cast<uint32_t>(Covered.size());

  CmpDict = Rd.vecI64();
  CmpDictSet.clear();
  CmpDictSet.insert(CmpDict.begin(), CmpDict.end());

  std::vector<uint64_t> BugList = Rd.vecU64();
  Bugs.clear();
  Bugs.insert(BugList.begin(), BugList.end());

  uint64_t NCrashes = Rd.u64();
  Crashes.clear();
  CrashHashes.clear();
  for (uint64_t I = 0; I < NCrashes && Rd.ok(); ++I) {
    Crashes.push_back(readCrashRecord(Rd));
    CrashHashes.insert(Crashes.back().StackHash);
  }
  uint64_t NHangs = Rd.u64();
  Hangs.clear();
  HangHashes.clear();
  for (uint64_t I = 0; I < NHangs && Rd.ok(); ++I) {
    Hangs.push_back(readHangRecord(Rd));
    HangHashes.insert(Hangs.back().InputHash);
  }

  // Every MapSet and EdgeSet is range- and order-checked by the set codec;
  // the cycle must end within the queue. (The envelope checksum guards
  // against damage, not forgery, and the corpus, the cull and the
  // scheduler index by these values unchecked.)
  uint64_t NEntries = Rd.u64();
  std::vector<QueueEntry> Entries;
  for (uint64_t I = 0; I < NEntries && Rd.ok(); ++I)
    Entries.push_back(readQueueEntry(Rd, Trace.size(),
                                     static_cast<uint32_t>(EdgeCovered.size())));
  bool NeedCull = Rd.u8() != 0;
  uint32_t PendingFavored = Rd.u32();
  uint64_t CullPasses = Rd.u64();
  if (Sched.CycleEnd > Entries.size())
    return false;

  // Telemetry section. When this fuzzer is untraced the section is still
  // parsed (into a scratch recorder) so the trailing done() check keeps
  // validating the whole payload.
  if (Rd.u8() != 0) {
    if (Tr) {
      if (!Tr->restoreState(Rd))
        return false;
    } else {
      telemetry::InstanceTrace Scratch{telemetry::TraceConfig{}};
      if (!Scratch.restoreState(Rd))
        return false;
    }
  }

  if (!Rd.done())
    return false;
  Q.restoreState(std::move(Entries), NeedCull, PendingFavored, CullPasses);
  return true;
}

} // namespace fuzz
} // namespace pathfuzz
