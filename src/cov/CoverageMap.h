//===- CoverageMap.h - AFL-style coverage map -------------------*- C++ -*-===//
//
// Part of the pathfuzz project: a reproduction of "Towards Path-Aware
// Coverage-Guided Fuzzing" (CGO 2026).
//
//===----------------------------------------------------------------------===//
//
// The fixed-size byte coverage map AFL-family fuzzers share with the
// target, plus the standard post-processing pipeline:
//
//  - classifyCounts(): hit counts are normalized into power-of-two buckets
//    (1, 2, 3, 4-7, 8-15, 16-31, 32-127, 128+) so that only order-of-
//    magnitude count changes register as novelty.
//  - hasNewBits(): compares a classified trace against the "virgin" map
//    and reports no novelty / new hit-count bucket / brand-new entry,
//    exactly like AFL++'s has_new_bits, updating the virgin map.
//
// The paper keeps this machinery untouched and only changes what indexes
// the map (edges vs (path_id ^ function) values), so the same CoverageMap
// serves every fuzzer configuration in this reproduction.
//
// Trace-proportional cost: beside the map sits a line summary, one byte per
// 64-byte map line. An engine bound through probeView() sets
// Lines[Index >> LineShift] with every map write, so reset, classification,
// novelty, checksum and index extraction visit only the lines the last
// execution touched. A map whose mutable data() was ever handed out is
// *untracked* for good (writes through that pointer bypass the summary),
// and every pass walks the whole map instead. Both modes produce
// byte-identical results; the untracked passes are the reference.
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_COV_COVERAGEMAP_H
#define PATHFUZZ_COV_COVERAGEMAP_H

#include <cstdint>
#include <cstring>
#include <vector>

namespace pathfuzz {
namespace cov {

/// Novelty classification returned by hasNewBits.
enum class Novelty : uint8_t {
  None = 0,     ///< nothing new
  NewCounts = 1,///< an existing entry moved to a new hit-count bucket
  NewEdges = 2, ///< a map entry was hit for the first time
};

/// The per-execution trace map plus helpers. Size is a power of two.
class CoverageMap {
public:
  /// log2 of the map bytes one summary line covers.
  static constexpr uint32_t LineShift = 6;

  explicit CoverageMap(uint32_t SizeLog2 = 16);

  /// Where an engine writes one execution (vm::FeedbackContext's Map and
  /// MapLines). Lines is null once the map is untracked.
  struct ProbeView {
    uint8_t *Map;
    uint8_t *Lines;
  };

  /// The engine binding that keeps the map tracked: the caller promises
  /// that every write to Map[I] also sets Lines[I >> LineShift] = 1.
  ProbeView probeView() { return {bytes(), Tracked ? lineBytes() : nullptr}; }

  /// Mutable byte view. Handing it out untracks the map for good: writes
  /// through it bypass the line summary, so every later pass walks the
  /// whole map.
  uint8_t *data() {
    Tracked = false;
    return bytes();
  }
  const uint8_t *data() const {
    return reinterpret_cast<const uint8_t *>(Words.data());
  }
  uint32_t size() const { return Size; }
  uint32_t mask() const { return size() - 1; }

  /// Whether passes walk marked lines only (no mutable data() escaped).
  bool tracked() const { return Tracked; }
  /// The line summary: numLines() bytes, nonzero for each line written
  /// since the last reset (meaningful only while tracked()).
  const uint8_t *lines() const {
    return reinterpret_cast<const uint8_t *>(LineGroups.data());
  }
  uint32_t numLines() const { return NumLines; }

  /// Zero the map (before each execution).
  void reset();

  /// Bucket raw hit counts in place (AFL's classify_counts).
  void classifyCounts();

  /// Number of nonzero entries (AFL's count_bytes; the "map density").
  uint32_t countBytes() const;

  /// 64-bit checksum of the classified map (AFL's execution checksum used
  /// for calibration stability checks): fnv1a over all size() bytes.
  uint64_t checksum() const;

  /// Append the indices of nonzero entries to Out, ascending.
  void nonzeroIndices(std::vector<uint32_t> &Out) const;

  /// Bucket a single raw count (exposed for tests).
  static uint8_t bucketFor(uint8_t Count);

private:
  friend class VirginMap;

  uint8_t *bytes() { return reinterpret_cast<uint8_t *>(Words.data()); }
  uint8_t *lineBytes() {
    return reinterpret_cast<uint8_t *>(LineGroups.data());
  }

  /// Call Fn(FirstWord, EndWord) for each word range that may hold nonzero
  /// words, ascending: every marked line when tracked, else the whole map.
  template <typename F> void forEachLine(F &&Fn) const;

  /// The map, as whole words so the passes can skip zero words without
  /// reading byte storage through a wider type.
  std::vector<uint64_t> Words;
  /// The line summary, eight line bytes per word (the tail beyond
  /// NumLines is never marked).
  std::vector<uint64_t> LineGroups;
  uint32_t Size = 0;
  uint32_t NumLines = 0;
  bool Tracked = true;
};

/// The accumulated "virgin" view of everything seen so far. Starts all-FF.
class VirginMap {
public:
  explicit VirginMap(uint32_t Size);

  /// Compare a *classified* trace with the virgin map; updates the virgin
  /// map with anything new. Mirrors AFL++'s has_new_bits.
  Novelty hasNewBits(const CoverageMap &Trace);

  /// Trace.classifyCounts() then hasNewBits(Trace), fused into one pass.
  Novelty classifyAndUpdate(CoverageMap &Trace);

  /// Number of map entries observed at least once.
  uint32_t coveredEntries() const;

  const uint8_t *data() const {
    return reinterpret_cast<const uint8_t *>(Virgin.data());
  }

  /// Indices of the entries observed at least once (bytes other than
  /// 0xFF), ascending: the sparse form snapshots carry.
  std::vector<uint32_t> touchedIndices() const;

  /// Overwrite the accumulated view with Bytes[K] at Indices[K] and 0xFF
  /// everywhere else (snapshot restore). False unless both have the same
  /// length, every index is inside the map and no byte is 0xFF.
  bool restoreSparse(const std::vector<uint32_t> &Indices,
                     const std::vector<uint8_t> &Bytes);

private:
  std::vector<uint64_t> Virgin;
  uint32_t Size = 0;
};

} // namespace cov
} // namespace pathfuzz

#endif // PATHFUZZ_COV_COVERAGEMAP_H
