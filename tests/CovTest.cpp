//===- CovTest.cpp - Coverage map and novelty detection -----------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "cov/CoverageMap.h"

#include "support/Hashing.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

using namespace pathfuzz;
using namespace pathfuzz::cov;

namespace {

TEST(CoverageMap, BucketingMatchesAfl) {
  EXPECT_EQ(CoverageMap::bucketFor(0), 0);
  EXPECT_EQ(CoverageMap::bucketFor(1), 1);
  EXPECT_EQ(CoverageMap::bucketFor(2), 2);
  EXPECT_EQ(CoverageMap::bucketFor(3), 4);
  EXPECT_EQ(CoverageMap::bucketFor(4), 8);
  EXPECT_EQ(CoverageMap::bucketFor(7), 8);
  EXPECT_EQ(CoverageMap::bucketFor(8), 16);
  EXPECT_EQ(CoverageMap::bucketFor(15), 16);
  EXPECT_EQ(CoverageMap::bucketFor(16), 32);
  EXPECT_EQ(CoverageMap::bucketFor(31), 32);
  EXPECT_EQ(CoverageMap::bucketFor(32), 64);
  EXPECT_EQ(CoverageMap::bucketFor(127), 64);
  EXPECT_EQ(CoverageMap::bucketFor(128), 128);
  EXPECT_EQ(CoverageMap::bucketFor(255), 128);
}

TEST(CoverageMap, ClassifiedValuesAreSingleBitBuckets) {
  // Classified entries are one-hot bucket masks (that is what lets the
  // virgin map track per-bucket novelty with bitwise AND). Note AFL's
  // classification is deliberately *not* idempotent — it runs exactly
  // once per trace.
  CoverageMap Map(8);
  Rng R(1);
  for (int I = 0; I < 100; ++I)
    Map.data()[R.below(Map.size())] = static_cast<uint8_t>(R.next());
  Map.classifyCounts();
  for (uint32_t I = 0; I < Map.size(); ++I) {
    uint8_t V = Map.data()[I];
    EXPECT_TRUE(V == 0 || (V & (V - 1)) == 0) << "value " << int(V);
  }
}

TEST(CoverageMap, ClassifyMatchesScalarReference) {
  CoverageMap Map(10);
  Rng R(7);
  std::vector<uint8_t> Ref(Map.size(), 0);
  for (int I = 0; I < 500; ++I) {
    uint32_t Idx = static_cast<uint32_t>(R.below(Map.size()));
    uint8_t V = static_cast<uint8_t>(R.next());
    Map.data()[Idx] = V;
    Ref[Idx] = V;
  }
  Map.classifyCounts();
  for (uint32_t I = 0; I < Map.size(); ++I)
    ASSERT_EQ(Map.data()[I], CoverageMap::bucketFor(Ref[I])) << I;
}

TEST(CoverageMap, CountBytes) {
  CoverageMap Map(8);
  EXPECT_EQ(Map.countBytes(), 0u);
  Map.data()[3] = 1;
  Map.data()[200] = 128;
  EXPECT_EQ(Map.countBytes(), 2u);
  Map.reset();
  EXPECT_EQ(Map.countBytes(), 0u);
}

/// The tracked passes (marked lines only) against the untracked full-map
/// reference, on identical random traces. Sizes cover a map smaller than
/// one line (2^4), exactly one line (2^6) and multi-line maps; indices are
/// drawn with a bias toward the first and last line.
TEST(CoverageMap, TrackedPassesMatchFullMapReference) {
  Rng R(0x11fe5);
  for (uint32_t Log2 : {4u, 6u, 10u, 16u}) {
    CoverageMap Tracked(Log2), Ref(Log2);
    uint8_t *RefBytes = Ref.data(); // escapes: Ref is the reference
    const CoverageMap &T = Tracked; // const reads keep Tracked tracked
    ASSERT_FALSE(Ref.tracked());
    VirginMap VT(T.size()), VR(Ref.size());
    const uint32_t Size = T.size();
    const uint32_t Edge = std::min<uint32_t>(Size, 64);
    for (int Round = 0; Round < 60; ++Round) {
      std::string What =
          "2^" + std::to_string(Log2) + " round " + std::to_string(Round);
      Tracked.reset();
      Ref.reset();
      for (uint32_t L = 0; L < T.numLines(); ++L)
        ASSERT_EQ(T.lines()[L], 0) << What << ": line " << L << " after reset";

      CoverageMap::ProbeView View = Tracked.probeView();
      ASSERT_NE(View.Lines, nullptr) << What;
      const unsigned Hits = static_cast<unsigned>(R.below(24));
      for (unsigned K = 0; K < Hits; ++K) {
        uint32_t Idx;
        switch (R.below(3)) {
        case 0:
          Idx = static_cast<uint32_t>(R.below(Edge));
          break;
        case 1:
          Idx = Size - 1 - static_cast<uint32_t>(R.below(Edge));
          break;
        default:
          Idx = static_cast<uint32_t>(R.below(Size));
          break;
        }
        const uint8_t Count = static_cast<uint8_t>(1 + R.below(255));
        View.Map[Idx] = Count;
        View.Lines[Idx >> CoverageMap::LineShift] = 1;
        RefBytes[Idx] = Count;
      }

      // Alternate the fused pass and the two separate ones on the tracked
      // side; the reference always runs them separately.
      Novelty NT;
      if (Round % 2) {
        NT = VT.classifyAndUpdate(Tracked);
      } else {
        Tracked.classifyCounts();
        NT = VT.hasNewBits(Tracked);
      }
      Ref.classifyCounts();
      Novelty NR = VR.hasNewBits(Ref);
      ASSERT_TRUE(Tracked.tracked()) << What;
      EXPECT_EQ(NT, NR) << What;
      ASSERT_EQ(std::memcmp(T.data(), RefBytes, Size), 0)
          << What << ": classified bytes";
      ASSERT_EQ(std::memcmp(VT.data(), VR.data(), Size), 0)
          << What << ": virgin bytes";
      EXPECT_EQ(VT.coveredEntries(), VR.coveredEntries()) << What;

      std::vector<uint32_t> SetT, SetR, Brute;
      T.nonzeroIndices(SetT);
      Ref.nonzeroIndices(SetR);
      for (uint32_t I = 0; I < Size; ++I)
        if (RefBytes[I])
          Brute.push_back(I);
      EXPECT_EQ(SetT, Brute) << What << ": tracked MapSet";
      EXPECT_EQ(SetR, Brute) << What << ": reference MapSet";
      EXPECT_EQ(T.countBytes(), Brute.size()) << What;

      EXPECT_EQ(T.checksum(), fnv1a(T.data(), Size)) << What;
      EXPECT_EQ(Ref.checksum(), T.checksum()) << What;
    }
    Tracked.reset();
    for (uint32_t L = 0; L < T.numLines(); ++L)
      ASSERT_EQ(T.lines()[L], 0) << "2^" << Log2 << ": final reset";
    EXPECT_EQ(T.countBytes(), 0u);
  }
}

TEST(CoverageMap, DataEscapeUntracksForGood) {
  CoverageMap Map(10);
  EXPECT_TRUE(Map.tracked());
  EXPECT_NE(Map.probeView().Lines, nullptr);
  const CoverageMap &C = Map;
  (void)C.data(); // a read-only view is not an escape
  EXPECT_TRUE(Map.tracked());
  Map.data()[700] = 3; // written behind the summary's back
  EXPECT_FALSE(Map.tracked());
  EXPECT_EQ(Map.probeView().Lines, nullptr);
  EXPECT_EQ(Map.countBytes(), 1u);
  Map.reset();
  EXPECT_EQ(Map.countBytes(), 0u);
  EXPECT_FALSE(Map.tracked());
}

TEST(VirginMap, DetectsNewEdgesThenNewCountsThenNothing) {
  CoverageMap Trace(8);
  VirginMap Virgin(Trace.size());

  Trace.data()[10] = 1;
  Trace.classifyCounts();
  EXPECT_EQ(Virgin.hasNewBits(Trace), Novelty::NewEdges);
  EXPECT_EQ(Virgin.hasNewBits(Trace), Novelty::None);

  // Same entry, higher hit bucket: NewCounts.
  Trace.reset();
  Trace.data()[10] = 9; // bucket 16
  Trace.classifyCounts();
  EXPECT_EQ(Virgin.hasNewBits(Trace), Novelty::NewCounts);
  EXPECT_EQ(Virgin.hasNewBits(Trace), Novelty::None);

  // A different entry: NewEdges again, even with old entries present.
  Trace.data()[99] = 1;
  Trace.classifyCounts();
  EXPECT_EQ(Virgin.hasNewBits(Trace), Novelty::NewEdges);
  EXPECT_EQ(Virgin.coveredEntries(), 2u);
}

} // namespace
