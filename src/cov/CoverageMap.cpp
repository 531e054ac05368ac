//===- CoverageMap.cpp - AFL-style coverage map ------------------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "cov/CoverageMap.h"

#include "support/Hashing.h"

#include <algorithm>
#include <cassert>

namespace pathfuzz {
namespace cov {

namespace {

/// AFL's count_class_lookup: power-of-two hit-count buckets.
struct BucketLut {
  uint8_t Lut[256];
  BucketLut() {
    Lut[0] = 0;
    Lut[1] = 1;
    Lut[2] = 2;
    Lut[3] = 4;
    for (int I = 4; I <= 7; ++I)
      Lut[I] = 8;
    for (int I = 8; I <= 15; ++I)
      Lut[I] = 16;
    for (int I = 16; I <= 31; ++I)
      Lut[I] = 32;
    for (int I = 32; I <= 127; ++I)
      Lut[I] = 64;
    for (int I = 128; I <= 255; ++I)
      Lut[I] = 128;
  }
};

const BucketLut Buckets;

/// Map words per summary line.
constexpr uint32_t WordsPerLine = (1u << CoverageMap::LineShift) / 8;

/// FnvPrime^N mod 2^64. FNV-1a over a zero byte is a bare multiply, so a
/// run of N zero bytes folds into the hash as one multiply by this.
uint64_t fnvPrimePow(uint64_t N) {
  uint64_t Result = 1;
  for (uint64_t Base = FnvPrime; N; N >>= 1, Base *= Base)
    if (N & 1)
      Result *= Base;
  return Result;
}

/// The eight counts of one map word, bucketed.
inline uint64_t classifyWord(uint64_t W) {
  uint64_t Out = 0;
  for (int Shift = 0; Shift < 64; Shift += 8)
    Out |= uint64_t(Buckets.Lut[(W >> Shift) & 0xff]) << Shift;
  return Out;
}

/// has_new_bits for one word: clear the classified trace word Cur's bits
/// from the virgin word V and return what that found. An entry is a new
/// edge when its virgin byte was still all ones.
inline Novelty updateVirginWord(uint64_t Cur, uint64_t &V) {
  if (!(Cur & V))
    return Novelty::None;
  const uint64_t Old = V;
  V = Old & ~Cur;
  for (int Shift = 0; Shift < 64; Shift += 8)
    if (((Cur >> Shift) & 0xff) && ((Old >> Shift) & 0xff) == 0xff)
      return Novelty::NewEdges;
  return Novelty::NewCounts;
}

} // namespace

CoverageMap::CoverageMap(uint32_t SizeLog2) {
  assert(SizeLog2 >= 4 && SizeLog2 <= 24 && "unreasonable map size");
  Size = 1u << SizeLog2;
  Words.assign(Size / 8, 0);
  NumLines = std::max<uint32_t>(1, Size >> LineShift);
  LineGroups.assign((NumLines + 7) / 8, 0);
}

template <typename F> void CoverageMap::forEachLine(F &&Fn) const {
  const uint32_t NumWords = static_cast<uint32_t>(Words.size());
  if (!Tracked) {
    Fn(0, NumWords);
    return;
  }
  // A map smaller than one line is a single short line.
  const uint32_t LineWords = std::min(WordsPerLine, NumWords);
  for (uint32_t G = 0; G < LineGroups.size(); ++G) {
    if (!LineGroups[G])
      continue;
    const auto *Marks = reinterpret_cast<const uint8_t *>(&LineGroups[G]);
    for (uint32_t K = 0; K < 8; ++K)
      if (Marks[K]) {
        const uint32_t First = (G * 8 + K) * LineWords;
        Fn(First, First + LineWords);
      }
  }
}

void CoverageMap::reset() {
  uint64_t *W = Words.data();
  forEachLine(
      [W](uint32_t First, uint32_t End) { std::fill(W + First, W + End, 0); });
  std::fill(LineGroups.begin(), LineGroups.end(), 0);
}

void CoverageMap::classifyCounts() {
  // Zero words skipped: traces are sparse and this runs on every
  // execution (AFL applies the same optimization).
  uint64_t *W = Words.data();
  forEachLine([W](uint32_t First, uint32_t End) {
    for (uint32_t I = First; I < End; ++I)
      if (W[I])
        W[I] = classifyWord(W[I]);
  });
}

uint32_t CoverageMap::countBytes() const {
  uint32_t N = 0;
  const uint64_t *W = Words.data();
  forEachLine([&](uint32_t First, uint32_t End) {
    for (uint32_t I = First; I < End; ++I) {
      if (!W[I])
        continue;
      const auto *B = reinterpret_cast<const uint8_t *>(&W[I]);
      for (int K = 0; K < 8; ++K)
        N += (B[K] != 0);
    }
  });
  return N;
}

uint64_t CoverageMap::checksum() const {
  // fnv1a over the whole map, folding every run of zero words (inside the
  // visited ranges and across unmarked lines) in as one multiply.
  uint64_t H = FnvOffsetBasis;
  uint64_t Zeros = 0; // zero bytes not yet folded into H
  uint32_t Next = 0;  // first word not yet accounted for
  const uint64_t *W = Words.data();
  forEachLine([&](uint32_t First, uint32_t End) {
    Zeros += uint64_t(First - Next) * 8;
    for (uint32_t I = First; I < End; ++I) {
      if (!W[I]) {
        Zeros += 8;
        continue;
      }
      H = fnv1a(&W[I], 8, H * fnvPrimePow(Zeros));
      Zeros = 0;
    }
    Next = End;
  });
  Zeros += uint64_t(Words.size() - Next) * 8;
  return H * fnvPrimePow(Zeros);
}

void CoverageMap::nonzeroIndices(std::vector<uint32_t> &Out) const {
  const uint64_t *W = Words.data();
  forEachLine([&](uint32_t First, uint32_t End) {
    for (uint32_t I = First; I < End; ++I) {
      if (!W[I])
        continue;
      const auto *B = reinterpret_cast<const uint8_t *>(&W[I]);
      for (uint32_t K = 0; K < 8; ++K)
        if (B[K])
          Out.push_back(I * 8 + K);
    }
  });
}

uint8_t CoverageMap::bucketFor(uint8_t Count) { return Buckets.Lut[Count]; }

VirginMap::VirginMap(uint32_t Size) : Size(Size) {
  assert(Size % 8 == 0 && "virgin map must hold whole words");
  Virgin.assign(Size / 8, ~uint64_t(0));
}

Novelty VirginMap::hasNewBits(const CoverageMap &Trace) {
  assert(Trace.size() == Size && "map size mismatch");
  Novelty Result = Novelty::None;
  const uint64_t *TW = Trace.Words.data();
  uint64_t *VW = Virgin.data();
  Trace.forEachLine([&Result, TW, VW](uint32_t First, uint32_t End) {
    for (uint32_t W = First; W < End; ++W)
      if (TW[W])
        Result = std::max(Result, updateVirginWord(TW[W], VW[W]));
  });
  return Result;
}

Novelty VirginMap::classifyAndUpdate(CoverageMap &Trace) {
  assert(Trace.size() == Size && "map size mismatch");
  Novelty Result = Novelty::None;
  uint64_t *TW = Trace.Words.data();
  uint64_t *VW = Virgin.data();
  Trace.forEachLine([&Result, TW, VW](uint32_t First, uint32_t End) {
    for (uint32_t W = First; W < End; ++W) {
      if (!TW[W])
        continue;
      TW[W] = classifyWord(TW[W]);
      Result = std::max(Result, updateVirginWord(TW[W], VW[W]));
    }
  });
  return Result;
}

uint32_t VirginMap::coveredEntries() const {
  uint32_t N = 0;
  for (const uint64_t &W : Virgin) {
    const auto *B = reinterpret_cast<const uint8_t *>(&W);
    for (int K = 0; K < 8; ++K)
      N += (B[K] != 0xff);
  }
  return N;
}

std::vector<uint32_t> VirginMap::touchedIndices() const {
  std::vector<uint32_t> Out;
  for (uint32_t W = 0; W < Virgin.size(); ++W) {
    if (Virgin[W] == ~uint64_t(0))
      continue;
    const auto *B = reinterpret_cast<const uint8_t *>(&Virgin[W]);
    for (uint32_t K = 0; K < 8; ++K)
      if (B[K] != 0xff)
        Out.push_back(W * 8 + K);
  }
  return Out;
}

bool VirginMap::restoreSparse(const std::vector<uint32_t> &Indices,
                              const std::vector<uint8_t> &Bytes) {
  if (Indices.size() != Bytes.size())
    return false;
  std::fill(Virgin.begin(), Virgin.end(), ~uint64_t(0));
  auto *Map = reinterpret_cast<uint8_t *>(Virgin.data());
  for (size_t K = 0; K < Indices.size(); ++K) {
    if (Indices[K] >= Size || Bytes[K] == 0xff)
      return false;
    Map[Indices[K]] = Bytes[K];
  }
  return true;
}

} // namespace cov
} // namespace pathfuzz
