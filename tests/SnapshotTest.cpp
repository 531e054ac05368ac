//===- SnapshotTest.cpp - Fuzzer snapshot/restore ------------------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Snapshot.h"

#include "lang/Compile.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace pathfuzz;
using namespace pathfuzz::fuzz;

namespace {

struct Harness {
  mir::Module Mod;
  instr::ShadowEdgeIndex Shadow;
  instr::InstrumentReport Report;

  Harness(const char *Src, instr::Feedback Mode, uint32_t MapSizeLog2 = 16) {
    lang::CompileResult CR = lang::compileSource(Src, "t");
    EXPECT_TRUE(CR.ok()) << CR.message();
    Mod = std::move(*CR.Mod);
    Shadow = instr::ShadowEdgeIndex::build(Mod);
    instr::InstrumentOptions IO;
    IO.Mode = Mode;
    IO.MapSizeLog2 = MapSizeLog2;
    Report = instr::instrumentModule(Mod, IO);
  }
};

const char *BuggyLoop = R"ml(
fn main() {
  var a[4];
  var i = 0;
  var k = 0;
  while (i < len()) {
    var c = in(i);
    if (c == 'B') { k = k + 1; }
    if (c == 'U' && k > 1) { a[in(i + 1) % 8] = 1; }
    i = i + 1;
  }
  return k;
}
)ml";

/// Everything observable about a fuzzer the campaign layer reads.
struct Observed {
  FuzzStats Stats;
  size_t QueueSize;
  std::vector<uint32_t> Edges;
  std::vector<int64_t> Dict;
  size_t Crashes, Hangs, Bugs;

  static Observed of(const Fuzzer &F) {
    Observed O{F.stats(),
               F.corpus().size(),
               F.coveredEdgeList(),
               F.cmpDict(),
               F.uniqueCrashes().size(),
               F.uniqueHangs().size(),
               F.bugIds().size()};
    return O;
  }
};

void expectSame(const Observed &A, const Observed &B) {
  EXPECT_EQ(A.Stats.Execs, B.Stats.Execs);
  EXPECT_EQ(A.Stats.Crashes, B.Stats.Crashes);
  EXPECT_EQ(A.Stats.Hangs, B.Stats.Hangs);
  EXPECT_EQ(A.Stats.LastFindExec, B.Stats.LastFindExec);
  EXPECT_EQ(A.Stats.QueueCycles, B.Stats.QueueCycles);
  EXPECT_EQ(A.Stats.QueueGrowth, B.Stats.QueueGrowth);
  EXPECT_EQ(A.QueueSize, B.QueueSize);
  EXPECT_EQ(A.Edges, B.Edges);
  EXPECT_EQ(A.Dict, B.Dict);
  EXPECT_EQ(A.Crashes, B.Crashes);
  EXPECT_EQ(A.Hangs, B.Hangs);
  EXPECT_EQ(A.Bugs, B.Bugs);
}

TEST(Snapshot, EnvelopeRoundTrips) {
  std::vector<uint8_t> Payload = {1, 2, 3, 4, 5};
  std::vector<uint8_t> Blob = sealSnapshot(Payload);
  std::vector<uint8_t> Out;
  ASSERT_TRUE(openSnapshot(Blob, Out));
  EXPECT_EQ(Out, Payload);
}

TEST(Snapshot, EnvelopeRejectsCorruption) {
  std::vector<uint8_t> Blob = sealSnapshot({10, 20, 30, 40});
  std::vector<uint8_t> Out;

  // Bit flip in the payload: checksum mismatch.
  std::vector<uint8_t> Flipped = Blob;
  Flipped.back() ^= 0x01;
  EXPECT_FALSE(openSnapshot(Flipped, Out));

  // Truncation at every prefix length.
  for (size_t N = 0; N < Blob.size(); ++N) {
    std::vector<uint8_t> Cut(Blob.begin(), Blob.begin() + N);
    EXPECT_FALSE(openSnapshot(Cut, Out)) << "prefix " << N;
  }

  // Trailing garbage.
  std::vector<uint8_t> Long = Blob;
  Long.push_back(0);
  EXPECT_FALSE(openSnapshot(Long, Out));

  // Wrong magic.
  std::vector<uint8_t> BadMagic = Blob;
  BadMagic[0] ^= 0xff;
  EXPECT_FALSE(openSnapshot(BadMagic, Out));

  // Unknown version: rejected, and named when the caller asks why.
  std::vector<uint8_t> BadVersion = Blob;
  BadVersion[4] = 0x7f;
  EXPECT_FALSE(openSnapshot(BadVersion, Out));
  std::string Why;
  EXPECT_FALSE(openSnapshot(BadVersion, Out, &Why));
  EXPECT_EQ(Why, "snapshot version 127, this build reads version " +
                     std::to_string(SnapshotVersion));

  // Damage is never reported as a version mismatch, even next to one.
  BadVersion.back() ^= 0x01;
  for (const std::vector<uint8_t> *Bad : {&Flipped, &Long, &BadVersion}) {
    Why.clear();
    EXPECT_FALSE(openSnapshot(*Bad, Out, &Why));
    EXPECT_EQ(Why, "");
  }
}

TEST(Snapshot, ByteReaderRejectsOversizedLengths) {
  // A length prefix larger than the remaining bytes must fail cleanly,
  // including values that would overflow a naive `N * width` check.
  ByteWriter W;
  W.u64(~0ull);
  std::vector<uint8_t> Buf = W.take();
  {
    ByteReader R(Buf);
    (void)R.vecU64();
    EXPECT_FALSE(R.ok());
  }
  {
    ByteReader R(Buf);
    (void)R.vecU32();
    EXPECT_FALSE(R.ok());
  }
  {
    ByteReader R(Buf);
    (void)R.blob();
    EXPECT_FALSE(R.ok());
  }
}

TEST(Snapshot, RestoredFuzzerContinuesByteIdentically) {
  for (instr::Feedback Mode :
       {instr::Feedback::EdgePrecise, instr::Feedback::Path}) {
    SCOPED_TRACE(static_cast<int>(Mode));
    // Reference: one uninterrupted run. Traced, so the snapshot carries
    // the versioned metrics section and the restore must round-trip it.
    // Every fuzzer in this test shares the same checkpoint cadence (the
    // reference's hook is a no-op): CheckpointWritten events land in the
    // ring at identical exec points, keeping the event comparison exact.
    Harness HRef(BuggyLoop, Mode);
    FuzzerOptions FO;
    FO.Seed = 17;
    FO.Trace.Enabled = true;
    FO.Trace.SampleInterval = 512;
    FO.CheckpointInterval = 4000;
    FO.OnCheckpoint = [](const Fuzzer &) {};
    Fuzzer Ref(HRef.Mod, HRef.Report, HRef.Shadow, FO);
    Ref.addSeed({'B', 'B', 'U', 'x'});
    Ref.run(8000);

    // Interrupted: capture a snapshot at the ~4000-exec safe point (the
    // checkpoint hook — run()'s budget stop can land mid-energy-loop,
    // which is exactly why checkpoints only fire at safe points), then
    // restore into a fresh fuzzer on a fresh (bit-identical) build and
    // finish the budget there.
    Harness HA(BuggyLoop, Mode);
    FuzzerOptions FA = FO;
    std::vector<uint8_t> Blob;
    Observed AtCheckpoint;
    FA.OnCheckpoint = [&Blob, &AtCheckpoint](const Fuzzer &F) {
      if (Blob.empty()) {
        Blob = F.snapshot();
        AtCheckpoint = Observed::of(F);
      }
    };
    Fuzzer A(HA.Mod, HA.Report, HA.Shadow, FA);
    A.addSeed({'B', 'B', 'U', 'x'});
    A.run(8000);
    ASSERT_FALSE(Blob.empty());

    Harness HB(BuggyLoop, Mode);
    Fuzzer B(HB.Mod, HB.Report, HB.Shadow, FO);
    ASSERT_TRUE(B.restore(Blob));
    expectSame(AtCheckpoint, Observed::of(B));
    B.run(8000);

    expectSame(Observed::of(Ref), Observed::of(B));
    // Corpus contents, not just sizes.
    ASSERT_EQ(Ref.corpus().size(), B.corpus().size());
    for (size_t I = 0; I < Ref.corpus().size(); ++I) {
      EXPECT_EQ(Ref.corpus()[I].Data, B.corpus()[I].Data);
      EXPECT_EQ(Ref.corpus()[I].Favored, B.corpus()[I].Favored);
    }
    // Telemetry state too: same cumulative metrics, samples and events
    // as the uninterrupted run (under PATHFUZZ_NO_TELEMETRY no trace is
    // ever attached, so only the campaign-state half applies).
    if (telemetry::Compiled) {
      ASSERT_NE(Ref.trace(), nullptr);
      ASSERT_NE(B.trace(), nullptr);
      EXPECT_TRUE(Ref.trace()->metrics() == B.trace()->metrics());
      EXPECT_EQ(Ref.trace()->samples(), B.trace()->samples());
      EXPECT_EQ(Ref.trace()->ring().recorded(), B.trace()->ring().recorded());
      EXPECT_EQ(Ref.trace()->ring().events(), B.trace()->ring().events());
    }
  }
}

TEST(Snapshot, UntracedFuzzerAcceptsATracedSnapshot) {
  // Restoring a traced snapshot into an untraced fuzzer must consume the
  // metrics section (validating the trailing done() check) and simply
  // drop it — operators may resume a campaign with tracing off.
  Harness HA(BuggyLoop, instr::Feedback::Path);
  FuzzerOptions Traced;
  Traced.Seed = 11;
  Traced.Trace.Enabled = true;
  Fuzzer A(HA.Mod, HA.Report, HA.Shadow, Traced);
  A.addSeed({'B', 'B', 'U', 'x'});
  A.run(2000);
  std::vector<uint8_t> Blob = A.snapshot();

  Harness HB(BuggyLoop, instr::Feedback::Path);
  FuzzerOptions Untraced;
  Untraced.Seed = 11;
  Fuzzer B(HB.Mod, HB.Report, HB.Shadow, Untraced);
  ASSERT_TRUE(B.restore(Blob));
  EXPECT_EQ(B.trace(), nullptr);
  expectSame(Observed::of(A), Observed::of(B));
}

TEST(Snapshot, SnapshotItselfDoesNotPerturbTheRun) {
  Harness H1(BuggyLoop, instr::Feedback::Path);
  Harness H2(BuggyLoop, instr::Feedback::Path);
  FuzzerOptions FO;
  FO.Seed = 5;
  Fuzzer Plain(H1.Mod, H1.Report, H1.Shadow, FO);
  Plain.addSeed({'B', 'B', 'U', 'x'});
  Plain.run(6000);

  FuzzerOptions FC = FO;
  FC.CheckpointInterval = 512;
  size_t Fired = 0;
  FC.OnCheckpoint = [&Fired](const Fuzzer &F) {
    ++Fired;
    (void)F.snapshot(); // const: taking the snapshot must not perturb
  };
  Fuzzer Check(H2.Mod, H2.Report, H2.Shadow, FC);
  Check.addSeed({'B', 'B', 'U', 'x'});
  Check.run(6000);

  EXPECT_GT(Fired, 0u);
  expectSame(Observed::of(Plain), Observed::of(Check));
}

TEST(Snapshot, RestoreRejectsMismatchedConfiguration) {
  Harness H(BuggyLoop, instr::Feedback::Path);
  FuzzerOptions FO;
  FO.Seed = 9;
  Fuzzer A(H.Mod, H.Report, H.Shadow, FO);
  A.addSeed({'B', 'U'});
  A.run(1000);
  std::vector<uint8_t> Blob = A.snapshot();

  // Different map size → different structural fingerprint.
  Harness HSmall(BuggyLoop, instr::Feedback::Path, /*MapSizeLog2=*/10);
  FuzzerOptions Small = FO;
  Small.MapSizeLog2 = 10;
  Fuzzer B(HSmall.Mod, HSmall.Report, HSmall.Shadow, Small);
  uint64_t ExecsBefore = B.stats().Execs;
  EXPECT_FALSE(B.restore(Blob));
  EXPECT_EQ(B.stats().Execs, ExecsBefore); // untouched on rejection

  // Garbage blob and an empty blob.
  EXPECT_FALSE(B.restore({1, 2, 3}));
  EXPECT_FALSE(B.restore({}));
}

/// Overwrite Payload[At..] with V's little-endian bytes.
void patchU64(std::vector<uint8_t> &Payload, size_t At, uint64_t V) {
  ASSERT_LE(At + 8, Payload.size());
  for (int I = 0; I < 8; ++I)
    Payload[At + I] = static_cast<uint8_t>(V >> (8 * I));
}

/// Xs as ByteWriter::ascendingU32 writes it.
std::vector<uint8_t> encodeSet(const std::vector<uint32_t> &Xs) {
  ByteWriter W;
  W.ascendingU32(Xs);
  return W.take();
}

/// Payload with [At, At + Len) replaced by Bytes.
std::vector<uint8_t> splice(const std::vector<uint8_t> &Payload, size_t At,
                            size_t Len, const std::vector<uint8_t> &Bytes) {
  std::vector<uint8_t> Out(Payload.begin(), Payload.begin() + At);
  Out.insert(Out.end(), Bytes.begin(), Bytes.end());
  Out.insert(Out.end(), Payload.begin() + At + Len, Payload.end());
  return Out;
}

/// Xs with its last element replaced by V.
std::vector<uint32_t> withLast(std::vector<uint32_t> Xs, uint32_t V) {
  Xs.back() = V;
  return Xs;
}

TEST(Snapshot, RestoreRejectsOutOfRangeQueueState) {
  // The envelope checksum only catches damage: a resealed payload passes
  // it whatever it holds. Each case moves one index of an untraced
  // snapshot out of range, reseals it, and restore must reject it. (The
  // set codec cannot express a set that is not strictly ascending.)
  Harness H(BuggyLoop, instr::Feedback::Path);
  FuzzerOptions FO;
  FO.Seed = 3;
  Fuzzer A(H.Mod, H.Report, H.Shadow, FO);
  A.addSeed({'B', 'B', 'U', 'x'});
  A.run(3000);
  const size_t Entries = A.corpus().size();
  ASSERT_GE(Entries, 2u);
  std::vector<uint8_t> Good;
  ASSERT_TRUE(openSnapshot(A.snapshot(), Good));
  auto Restores = [&H, &FO](const std::vector<uint8_t> &Payload) {
    Fuzzer B(H.Mod, H.Report, H.Shadow, FO);
    return B.restore(sealSnapshot(Payload));
  };

  // The top-rated table is not in the snapshot: restore rebuilds it from
  // the entries, exactly.
  {
    Fuzzer B(H.Mod, H.Report, H.Shadow, FO);
    ASSERT_TRUE(B.restore(sealSnapshot(Good)));
    EXPECT_EQ(B.corpus().topRatedTable(), A.corpus().topRatedTable());
  }

  // Schedule cursor: CycleEnd follows the two structural u32s, four RNG
  // words and CurIdx.
  const size_t CycleEndAt = 4 + 4 + 4 * 8 + 8;
  {
    std::vector<uint8_t> P = Good;
    patchU64(P, CycleEndAt, Entries);
    EXPECT_TRUE(Restores(P)) << "a cycle may span the whole queue";
    patchU64(P, CycleEndAt, Entries + 1);
    EXPECT_FALSE(Restores(P)) << "CycleEnd past the queue";
  }

  // Coverage: the virgin set and its bytes, then the covered-edge set,
  // after the cursor (CycleEnd, Cycles), five stats words, the growth
  // series and the two step averages.
  const uint32_t MapSize = uint32_t(1) << FO.MapSizeLog2;
  const uint32_t NumEdges = H.Shadow.numEdges();
  const size_t VirginAt =
      CycleEndAt + 2 * 8 + 5 * 8 + 8 + 16 * A.stats().QueueGrowth.size() + 16;
  ByteReader Rd(Good.data() + VirginAt, Good.size() - VirginAt);
  const std::vector<uint32_t> Touched = Rd.ascendingU32(MapSize);
  const std::vector<uint8_t> TouchedBytes = Rd.raw(Touched.size());
  const std::vector<uint32_t> Covered = Rd.ascendingU32(NumEdges);
  ASSERT_TRUE(Rd.ok());
  ASSERT_FALSE(Touched.empty());
  ASSERT_EQ(Covered, A.coveredEdgeList());
  const size_t TouchedLen = encodeSet(Touched).size();
  const size_t CoveredAt = VirginAt + TouchedLen + Touched.size();
  {
    std::vector<uint8_t> P = splice(Good, VirginAt, TouchedLen,
                                    encodeSet(withLast(Touched, MapSize)));
    EXPECT_FALSE(Restores(P)) << "virgin index at the map size";
  }
  {
    std::vector<uint8_t> P = Good;
    P[VirginAt + TouchedLen] = 0xff;
    EXPECT_FALSE(Restores(P)) << "a touched index holding 0xFF";
  }
  {
    std::vector<uint8_t> P =
        splice(Good, CoveredAt, encodeSet(Covered).size(),
               encodeSet(withLast(Covered, NumEdges)));
    EXPECT_FALSE(Restores(P)) << "covered-edge id at the edge count";
  }

  // MapSet and EdgeSet: find the widest entry's serialized pair.
  const QueueEntry *Widest = &A.corpus()[0];
  for (size_t I = 1; I < Entries; ++I)
    if (A.corpus()[I].MapSet.size() > Widest->MapSet.size())
      Widest = &A.corpus()[I];
  ASSERT_GE(Widest->MapSet.size(), 2u);
  ASSERT_FALSE(Widest->EdgeSet.empty());
  const std::vector<uint8_t> MapSetBytes = encodeSet(Widest->MapSet);
  const std::vector<uint8_t> EdgeSetBytes = encodeSet(Widest->EdgeSet);
  std::vector<uint8_t> Needle = MapSetBytes;
  Needle.insert(Needle.end(), EdgeSetBytes.begin(), EdgeSetBytes.end());
  auto It = std::search(Good.begin() + CoveredAt, Good.end(), Needle.begin(),
                        Needle.end());
  ASSERT_NE(It, Good.end());
  const size_t MapSetAt = static_cast<size_t>(It - Good.begin());
  {
    std::vector<uint8_t> P =
        splice(Good, MapSetAt, MapSetBytes.size(),
               encodeSet(withLast(Widest->MapSet, MapSize)));
    EXPECT_FALSE(Restores(P)) << "MapSet index at the map size";
  }
  {
    std::vector<uint8_t> P =
        splice(Good, MapSetAt + MapSetBytes.size(), EdgeSetBytes.size(),
               encodeSet(withLast(Widest->EdgeSet, NumEdges)));
    EXPECT_FALSE(Restores(P)) << "EdgeSet id at the edge count";
  }
}

TEST(Snapshot, SizeFollowsCoverageNotTheMap) {
  // A snapshot's cost model: nothing in it scales with the map. A one-seed
  // fuzzer's snapshot stays small whatever the map size, so a future
  // map-sized field fails here rather than as a benchmark regression.
  for (uint32_t Log2 : {12u, 16u, 20u}) {
    Harness H(BuggyLoop, instr::Feedback::Path, Log2);
    FuzzerOptions FO;
    FO.MapSizeLog2 = Log2;
    Fuzzer F(H.Mod, H.Report, H.Shadow, FO);
    F.addSeed({'B', 'B', 'U', 'x'});
    ASSERT_EQ(F.corpus().size(), 1u);
    std::vector<uint8_t> Blob = F.snapshot();
    EXPECT_LT(Blob.size(), 2048u) << "map 2^" << Log2;
    Fuzzer B(H.Mod, H.Report, H.Shadow, FO);
    EXPECT_TRUE(B.restore(Blob)) << "map 2^" << Log2;
  }
}

} // namespace
