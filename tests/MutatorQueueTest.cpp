//===- MutatorQueueTest.cpp - Mutation engine and corpus ----------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Mutator.h"
#include "fuzz/Queue.h"
#include "support/Hashing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>

using namespace pathfuzz;
using namespace pathfuzz::fuzz;

namespace {

TEST(Mutator, DeterministicForSeed) {
  MutatorConfig MC;
  Rng A(5), B(5);
  Mutator MA(A, MC), MB(B, MC);
  Input Da = {1, 2, 3, 4, 5}, Db = Da;
  std::vector<int64_t> Dict = {0x41};
  for (int I = 0; I < 50; ++I) {
    MA.havoc(Da, Dict);
    MB.havoc(Db, Dict);
    ASSERT_EQ(Da, Db) << "iteration " << I;
  }
}

TEST(Mutator, RespectsMaxLenAndNonEmpty) {
  MutatorConfig MC;
  MC.MaxLen = 32;
  Rng R(9);
  Mutator M(R, MC);
  Input Data = {1};
  for (int I = 0; I < 500; ++I) {
    M.havoc(Data, {});
    ASSERT_LE(Data.size(), MC.MaxLen);
    ASSERT_FALSE(Data.empty());
  }
}

TEST(Mutator, DictionaryValuesShowUp) {
  MutatorConfig MC;
  Rng R(13);
  Mutator M(R, MC);
  std::vector<int64_t> Dict = {0x77};
  int Hits = 0;
  for (int I = 0; I < 300; ++I) {
    Input Data(16, 0);
    M.havoc(Data, Dict);
    for (uint8_t B : Data)
      if (B == 0x77) {
        ++Hits;
        break;
      }
  }
  EXPECT_GT(Hits, 20);
}

TEST(Mutator, SpliceMixesInputs) {
  MutatorConfig MC;
  Rng R(17);
  Mutator M(R, MC);
  Input A(20, 'a');
  Input B(20, 'b');
  bool SawB = false;
  for (int I = 0; I < 50 && !SawB; ++I) {
    Input Data = A;
    M.splice(Data, B, {});
    for (uint8_t C : Data)
      SawB |= (C == 'b');
  }
  EXPECT_TRUE(SawB);
}

// splice builds its result in place, so an input spliced with itself must
// match splicing with a separate copy of it: both growing and shrinking,
// and from inputs longer than MaxLen.
TEST(Mutator, SpliceWithItselfMatchesACopy) {
  for (size_t MaxLen : {size_t(8), size_t(64), size_t(512)}) {
    for (uint64_t Seed = 0; Seed < 200; ++Seed) {
      MutatorConfig MC;
      MC.MaxLen = MaxLen;
      Rng A(Seed), B(Seed);
      Mutator MA(A, MC), MB(B, MC);
      Input Data(1 + Seed % 90);
      for (size_t I = 0; I < Data.size(); ++I)
        Data[I] = static_cast<uint8_t>(I * 13 + Seed);
      Input Ref = Data;
      const Input Donor = Data;
      MA.splice(Data, Data, {});
      MB.splice(Ref, Donor, {});
      ASSERT_EQ(Data, Ref) << "MaxLen " << MaxLen << " seed " << Seed;
    }
  }
}

// Pins the mutator's output stream across commits: the engine-identity
// tests compare engines within one build, so an RNG-order slip in havoc or
// splice would pass them. The digest folds every output (bytes and length)
// of a fixed schedule over seeds, input sizes 1/16/200, a dictionary and
// splice donors. A change here changes every campaign result; re-pin only
// with an intended re-baseline.
TEST(Mutator, StreamMatchesPinnedDigest) {
  const std::vector<int64_t> Dict = {0x41, 0x7f, 0x1234, -2, 100663045};
  uint64_t H = FnvOffsetBasis;
  for (uint64_t Seed : {1u, 7u, 42u}) {
    for (size_t Size : {1u, 16u, 200u}) {
      Rng R(Seed * 1000 + Size);
      MutatorConfig MC;
      Mutator M(R, MC);
      Input Base(Size);
      for (size_t I = 0; I < Size; ++I)
        Base[I] = static_cast<uint8_t>(I * 37 + Seed);
      Input Donor(Size + 5, static_cast<uint8_t>(0xd0 + Seed));
      Input Data;
      for (int I = 0; I < 400; ++I) {
        Data = Base;
        if (I % 4 == 3)
          M.splice(Data, Donor, I % 2 ? Dict : std::vector<int64_t>{});
        else
          M.havoc(Data, I % 3 ? Dict : std::vector<int64_t>{});
        H = fnv1a(Data.data(), Data.size(), H);
        const uint64_t Len = Data.size();
        H = fnv1a(&Len, sizeof(Len), H);
      }
    }
  }
  EXPECT_EQ(H, 0x99f83ae09c7bceb6ULL);
}

QueueEntry entry(uint64_t Steps, std::vector<uint32_t> MapSet,
                 std::vector<uint32_t> EdgeSet = {}) {
  QueueEntry E;
  E.Data = {1};
  E.Steps = Steps;
  E.MapSet = std::move(MapSet);
  E.EdgeSet = std::move(EdgeSet);
  return E;
}

TEST(Corpus, ScoreSaturatesInsteadOfWrapping) {
  QueueEntry Cheap;
  Cheap.Steps = 3;
  Cheap.Data.assign(4, 0);
  EXPECT_EQ(Cheap.score(), 15u); // 3 * (4 + 1): exact when it fits

  // A pathological steps/size pair used to wrap Steps * (len + 1) around
  // uint64_t and rank *below* honest entries; it must saturate to worst.
  QueueEntry Huge;
  Huge.Steps = UINT64_MAX / 2;
  Huge.Data.assign(16, 0);
  EXPECT_EQ(Huge.score(), UINT64_MAX);
  EXPECT_GT(Huge.score(), Cheap.score());
}

TEST(Corpus, FavoredMarksMinimalCoveringSet) {
  Corpus Q(64);
  Q.add(entry(10, {1, 2, 3}));
  Q.add(entry(5, {1}));       // cheaper for index 1
  Q.add(entry(100, {7}));     // sole owner of 7
  Q.add(entry(1000, {2, 3})); // dominated: never favored
  Q.cullIfNeeded();
  EXPECT_TRUE(Q[0].Favored);  // cheapest for 2 and 3
  EXPECT_TRUE(Q[1].Favored);  // cheapest for 1
  EXPECT_TRUE(Q[2].Favored);
  EXPECT_FALSE(Q[3].Favored);
  EXPECT_EQ(Q.favoredCount(), 3u);
  EXPECT_EQ(Q.pendingFavored(), 3u);
  Q.markFuzzed(0);
  EXPECT_EQ(Q.pendingFavored(), 2u);
}

TEST(Corpus, EdgePreservingSubsetCoversAllEdges) {
  Corpus Q(16);
  Q.add(entry(10, {0}, {100, 101}));
  Q.add(entry(1, {1}, {101}));
  Q.add(entry(10, {2}, {102}));
  Q.add(entry(10, {3}, {100, 101, 102})); // expensive superset
  std::vector<size_t> Sub = Q.edgePreservingSubset();

  std::set<uint32_t> Covered;
  for (size_t I : Sub)
    for (uint32_t E : Q[I].EdgeSet)
      Covered.insert(E);
  EXPECT_EQ(Covered, (std::set<uint32_t>{100, 101, 102}));
  EXPECT_LT(Sub.size(), Q.size());
}

TEST(Corpus, EdgeSubsetOnRandomCorpusNeverRegresses) {
  Rng R(23);
  Corpus Q(32);
  std::set<uint32_t> All;
  for (int I = 0; I < 60; ++I) {
    std::vector<uint32_t> Edges;
    unsigned N = 1 + R.below(6);
    for (unsigned K = 0; K < N; ++K)
      Edges.push_back(static_cast<uint32_t>(R.below(40)));
    std::sort(Edges.begin(), Edges.end());
    Edges.erase(std::unique(Edges.begin(), Edges.end()), Edges.end());
    All.insert(Edges.begin(), Edges.end());
    Q.add(entry(1 + R.below(100), {static_cast<uint32_t>(I % 32)}, Edges));
  }
  std::set<uint32_t> Covered;
  for (size_t I : Q.edgePreservingSubset())
    for (uint32_t E : Q[I].EdgeSet)
      Covered.insert(E);
  EXPECT_EQ(Covered, All) << "culling must preserve total edge coverage";
}

/// AFL's cull_queue as a walk over the whole top-rated table: the
/// reference the owned-index cull must reproduce.
struct ReferenceCull {
  std::vector<bool> Favored;
  uint32_t Pending = 0;
};

ReferenceCull referenceCull(const Corpus &Q) {
  const std::vector<int32_t> &Top = Q.topRatedTable();
  ReferenceCull Out;
  Out.Favored.assign(Q.size(), false);
  std::vector<uint8_t> Uncovered(Top.size(), 1);
  for (size_t MapIdx = 0; MapIdx < Top.size(); ++MapIdx) {
    if (!Uncovered[MapIdx] || Top[MapIdx] < 0)
      continue;
    const size_t E = static_cast<size_t>(Top[MapIdx]);
    Out.Favored[E] = true;
    for (uint32_t Idx : Q[E].MapSet)
      Uncovered[Idx] = 0;
  }
  for (size_t E = 0; E < Q.size(); ++E)
    Out.Pending += Out.Favored[E] && !Q[E].WasFuzzed;
  return Out;
}

TEST(Corpus, OwnedIndexCullMatchesFullTableWalk) {
  constexpr uint32_t MapSize = 1024;
  Rng R(29);
  auto randomEntry = [&R] {
    std::vector<uint32_t> MapSet;
    unsigned N = 1 + static_cast<unsigned>(R.below(12));
    for (unsigned K = 0; K < N; ++K)
      MapSet.push_back(static_cast<uint32_t>(R.below(MapSize)));
    std::sort(MapSet.begin(), MapSet.end());
    MapSet.erase(std::unique(MapSet.begin(), MapSet.end()), MapSet.end());
    return entry(1 + R.below(1000), MapSet);
  };

  Corpus Q(MapSize);
  uint64_t Passes = 0;
  auto step = [&](Corpus &C, uint64_t &CPasses, const QueueEntry &E,
                  size_t Fuzz, const std::string &What) {
    C.add(E);
    if (Fuzz < C.size())
      C.markFuzzed(Fuzz);
    CPasses += C.cullPending();
    C.cullIfNeeded();
    ReferenceCull Ref = referenceCull(C);
    for (size_t I = 0; I < C.size(); ++I)
      ASSERT_EQ(C[I].Favored, Ref.Favored[I]) << What << " entry " << I;
    ASSERT_EQ(C.pendingFavored(), Ref.Pending) << What;
    ASSERT_EQ(C.cullPasses(), CPasses) << What;
  };
  for (int I = 0; I < 150; ++I) {
    QueueEntry E = randomEntry();
    size_t Fuzz = R.oneIn(3) ? R.index(Q.size() + 1) : SIZE_MAX;
    step(Q, Passes, E, Fuzz, "add " + std::to_string(I));
  }

  // A restored corpus rebuilds its top-rated table and owned list from the
  // entries alone and keeps culling exactly like the original.
  Corpus Back(MapSize);
  Back.restoreState(Q.entries(), Q.cullPending(), Q.pendingFavored(),
                    Q.cullPasses());
  ASSERT_EQ(Back.topRatedTable(), Q.topRatedTable());
  uint64_t BackPasses = Passes;
  for (int I = 0; I < 100; ++I) {
    QueueEntry E = randomEntry();
    size_t Fuzz = R.oneIn(3) ? R.index(Q.size() + 1) : SIZE_MAX;
    step(Q, Passes, E, Fuzz, "original " + std::to_string(I));
    step(Back, BackPasses, E, Fuzz, "restored " + std::to_string(I));
    for (size_t K = 0; K < Q.size(); ++K)
      ASSERT_EQ(Back[K].Favored, Q[K].Favored) << "restored entry " << K;
  }
}

} // namespace
