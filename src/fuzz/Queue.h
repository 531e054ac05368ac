//===- Queue.h - Fuzzing corpus and favored-set computation -----*- C++ -*-===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// The fuzzer's queue of interesting test cases plus AFL's "top-rated"
// favored-corpus machinery: for every coverage-map entry the cheapest
// (steps x size) covering input is tracked, and a greedy pass marks a
// minimal-ish covering subset as *favored*; non-favored entries are mostly
// skipped during scheduling. Section III-B1 of the paper builds its culling
// criterion on exactly this fast set-cover approximation — applied to
// *edge* sets rather than map entries — which edgePreservingSubset()
// implements.
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_FUZZ_QUEUE_H
#define PATHFUZZ_FUZZ_QUEUE_H

#include "fuzz/Mutator.h"

#include <cstdint>
#include <vector>

namespace pathfuzz {
namespace fuzz {

/// One retained test case.
struct QueueEntry {
  Input Data;
  uint64_t Checksum = 0; ///< classified-trace checksum (calibration)
  uint64_t Steps = 0;    ///< VM steps (execution cost)
  uint32_t Depth = 0;    ///< mutation chain depth from the seeds
  bool Favored = false;
  bool WasFuzzed = false;
  uint64_t FoundAtExec = 0;
  /// Feedback-map indices this input covers (sorted) — favored set input.
  /// Its size is the entry's map density.
  std::vector<uint32_t> MapSet;
  /// Shadow (true) edges this input covers (sorted) — culling/coverage.
  std::vector<uint32_t> EdgeSet;

  /// AFL's fav_factor — Steps * (len + 1), lower is better: the cheapest
  /// input covering a map index wins its top-rated slot. Saturating: a
  /// pathological Steps/size pair must rank as "worst possible", not wrap
  /// around and beat honest entries. (Scheduling *energy* is separate —
  /// see FuzzerOptions::ScheduleWeight in fuzz/Fuzzer.h for the pluggable
  /// weight hook layered on top of this heuristic.)
  uint64_t score() const {
    uint64_t Product = 0;
    if (__builtin_mul_overflow(Steps, static_cast<uint64_t>(Data.size()) + 1,
                               &Product))
      return UINT64_MAX;
    return Product;
  }
};

/// The corpus plus the top-rated index.
class Corpus {
public:
  explicit Corpus(uint32_t MapSize);

  /// Append an entry and update the top-rated table. Favored marks are
  /// recomputed lazily (AFL defers cull_queue the same way); call
  /// cullIfNeeded() before reading Favored flags.
  void add(QueueEntry Entry);

  /// Run the favored-marking pass if the top-rated table changed since the
  /// last pass (AFL's cull_queue guarded by score_changed).
  void cullIfNeeded();

  /// Record that an entry received a fuzzing round (keeps the pending-
  /// favored counter exact without rescanning the queue).
  void markFuzzed(size_t Index);

  size_t size() const { return Entries.size(); }
  bool empty() const { return Entries.empty(); }
  QueueEntry &operator[](size_t I) { return Entries[I]; }
  const QueueEntry &operator[](size_t I) const { return Entries[I]; }
  const std::vector<QueueEntry> &entries() const { return Entries; }

  /// Number of favored entries not yet fuzzed (drives skip probabilities).
  /// Cached; exact after cullIfNeeded().
  uint32_t pendingFavored() const { return PendingFavoredCount; }
  uint32_t favoredCount() const;

  /// Re-run the greedy favored marking now (normally automatic).
  void recomputeFavored();

  /// Lifetime favored-marking passes (telemetry's culling-stats series).
  uint64_t cullPasses() const { return CullPasses; }

  /// Greedy minimal-ish subset of entry indices whose EdgeSets union to
  /// the union of all entries' EdgeSets: the paper's culling criterion
  /// ("retain test cases exercising all edges encountered", via the
  /// favored-corpus approximation of set cover).
  std::vector<size_t> edgePreservingSubset() const;

  // -- Snapshot support (fuzz/Snapshot.cpp). A snapshot carries the entries
  //    and the cull state but not the top-rated table: add() is the
  //    table's only writer and entries never change once added, so
  //    replaying add() over the entries in order rebuilds it exactly, and
  //    a restored fuzzer replays the favored-marking schedule
  //    byte-identically instead of merely equivalently.
  const std::vector<int32_t> &topRatedTable() const { return TopRated; }
  bool cullPending() const { return NeedCull; }
  /// Replace the whole corpus state with deserialized contents. Every
  /// MapSet index must lie inside the map this corpus was built for.
  void restoreState(std::vector<QueueEntry> NewEntries, bool NewNeedCull,
                    uint32_t NewPendingFavored, uint64_t NewCullPasses);

private:
  std::vector<QueueEntry> Entries;
  std::vector<int32_t> TopRated; ///< per map index: best entry or -1
  /// Map indices whose TopRated slot is taken, ascending: the cull walks
  /// these instead of the whole table.
  std::vector<uint32_t> Owned;
  /// Cull scratch, one byte per map index. Only Owned slots are read, and
  /// each pass re-arms them first, so it is never cleared.
  std::vector<uint8_t> Uncovered;
  bool NeedCull = false;
  uint32_t PendingFavoredCount = 0;
  uint64_t CullPasses = 0;
};

} // namespace fuzz
} // namespace pathfuzz

#endif // PATHFUZZ_FUZZ_QUEUE_H
