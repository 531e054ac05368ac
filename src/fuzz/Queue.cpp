//===- Queue.cpp - Fuzzing corpus and favored-set computation -----------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Queue.h"

#include <algorithm>
#include <unordered_map>

namespace pathfuzz {
namespace fuzz {

Corpus::Corpus(uint32_t MapSize) {
  TopRated.assign(MapSize, -1);
  Uncovered.assign(MapSize, 0);
}

void Corpus::add(QueueEntry Entry) {
  int32_t Index = static_cast<int32_t>(Entries.size());
  Entries.push_back(std::move(Entry));
  const QueueEntry &E = Entries.back();

  const size_t OldOwned = Owned.size();
  for (uint32_t MapIdx : E.MapSet) {
    int32_t Cur = TopRated[MapIdx];
    if (Cur < 0)
      Owned.push_back(MapIdx);
    if (Cur < 0 || E.score() < Entries[static_cast<size_t>(Cur)].score()) {
      TopRated[MapIdx] = Index;
      NeedCull = true;
    }
  }
  // MapSet is sorted, so the newly owned indices are too.
  if (Owned.size() != OldOwned)
    std::inplace_merge(Owned.begin(), Owned.begin() + OldOwned, Owned.end());
}

void Corpus::cullIfNeeded() {
  if (!NeedCull)
    return;
  recomputeFavored();
}

void Corpus::markFuzzed(size_t Index) {
  QueueEntry &E = Entries[Index];
  if (E.Favored && !E.WasFuzzed && PendingFavoredCount > 0)
    --PendingFavoredCount;
  E.WasFuzzed = true;
}

void Corpus::recomputeFavored() {
  NeedCull = false;
  ++CullPasses;
  for (QueueEntry &E : Entries)
    E.Favored = false;

  // AFL's cull_queue: walk the map in index order; the first top-rated
  // entry owning a still-uncovered index becomes favored and claims its
  // whole trace. Indices nobody owns are skipped without being visited.
  for (uint32_t MapIdx : Owned)
    Uncovered[MapIdx] = 1;
  for (uint32_t MapIdx : Owned) {
    if (!Uncovered[MapIdx])
      continue;
    QueueEntry &E = Entries[static_cast<size_t>(TopRated[MapIdx])];
    E.Favored = true;
    for (uint32_t Idx : E.MapSet)
      Uncovered[Idx] = 0;
  }

  PendingFavoredCount = 0;
  for (const QueueEntry &E : Entries)
    PendingFavoredCount += (E.Favored && !E.WasFuzzed);
}

void Corpus::restoreState(std::vector<QueueEntry> NewEntries,
                          bool NewNeedCull, uint32_t NewPendingFavored,
                          uint64_t NewCullPasses) {
  Entries.clear();
  Entries.reserve(NewEntries.size());
  TopRated.assign(TopRated.size(), -1);
  Owned.clear();
  for (QueueEntry &E : NewEntries)
    add(std::move(E));
  NeedCull = NewNeedCull;
  PendingFavoredCount = NewPendingFavored;
  CullPasses = NewCullPasses;
}

uint32_t Corpus::favoredCount() const {
  uint32_t N = 0;
  for (const QueueEntry &E : Entries)
    N += E.Favored;
  return N;
}

std::vector<size_t> Corpus::edgePreservingSubset() const {
  // Top-rated over *edges* (computed on demand; edge IDs are sparse so a
  // hash map replaces the dense table).
  std::unordered_map<uint32_t, size_t> Best;
  for (size_t I = 0; I < Entries.size(); ++I) {
    for (uint32_t Edge : Entries[I].EdgeSet) {
      auto It = Best.find(Edge);
      if (It == Best.end() || Entries[I].score() < Entries[It->second].score())
        Best[Edge] = I;
    }
  }

  std::vector<uint8_t> Taken(Entries.size(), 0);
  // Greedy pass in ascending edge-ID order for determinism.
  std::vector<uint32_t> EdgeIds;
  EdgeIds.reserve(Best.size());
  for (const auto &[Edge, _] : Best)
    EdgeIds.push_back(Edge);
  std::sort(EdgeIds.begin(), EdgeIds.end());

  std::unordered_map<uint32_t, bool> EdgeCovered;
  std::vector<size_t> Result;
  for (uint32_t Edge : EdgeIds) {
    if (EdgeCovered[Edge])
      continue;
    size_t E = Best[Edge];
    if (!Taken[E]) {
      Taken[E] = 1;
      Result.push_back(E);
    }
    for (uint32_t Covers : Entries[E].EdgeSet)
      EdgeCovered[Covers] = true;
  }
  std::sort(Result.begin(), Result.end());
  return Result;
}

} // namespace fuzz
} // namespace pathfuzz
