//===- Snapshot.h - Versioned, checksummed fuzzer-state snapshots -*- C++ -*-===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// Binary serialization for checkpoint/resume: a little-endian byte writer
// and a bounds-checked reader, a versioned + checksummed envelope every
// snapshot blob is sealed in, and serializers for the fuzz-layer records
// that both Fuzzer::snapshot() and the campaign-level checkpoints reuse.
//
// Envelope layout (all little-endian):
//
//   u32 magic "PFZS"   u32 version   u64 payload length
//   u64 FNV-1a checksum of the payload   payload bytes
//
// openSnapshot() rejects wrong magic, unknown versions, truncation and
// checksum mismatches, so a half-written checkpoint file can never be
// half-restored: restore is all-or-nothing by construction.
//
// The payload encodes the *mutable* fuzzer state only. Immutable inputs —
// the instrumented module, the instrumentation report, the shadow-edge
// index, the options — are reconstructed by the caller (the build cache
// makes them bit-identical), and restore() verifies the structural
// fingerprint (map size, shadow edge count) before touching any state.
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_FUZZ_SNAPSHOT_H
#define PATHFUZZ_FUZZ_SNAPSHOT_H

#include "fuzz/Fuzzer.h"
#include "support/Bytes.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace pathfuzz {
namespace fuzz {

constexpr uint32_t SnapshotMagic = 0x535a4650; // "PFZS" little-endian
/// Version 2 added the telemetry section (metrics counters, histograms,
/// the sample series and the event ring) so a resumed campaign reports
/// the same cumulative series as an uninterrupted one. Version 3 sizes the
/// fuzzer payload by coverage: the virgin map, the covered edges and each
/// entry's MapSet/EdgeSet are ascending varint sets, and the top-rated
/// table is rebuilt on restore instead of stored.
constexpr uint32_t SnapshotVersion = 3;

// The byte writer/reader moved to support/Bytes.h (the telemetry layer
// serializes with them too); re-exported here for the existing users.
using pathfuzz::ByteReader;
using pathfuzz::ByteWriter;

/// Wrap a payload in the magic/version/length/checksum envelope.
std::vector<uint8_t> sealSnapshot(std::vector<uint8_t> Payload);

/// Validate the envelope; on success fills Payload and returns true. Any
/// corruption (magic, version, truncation, checksum) returns false. When
/// the only fault is a well-formed envelope of another version and
/// VersionError is given, it is set to a message naming the version found
/// and the one this build reads; it is left alone on every other failure.
bool openSnapshot(const std::vector<uint8_t> &Blob,
                  std::vector<uint8_t> &Payload,
                  std::string *VersionError = nullptr);

// Record serializers shared with the campaign checkpoint code.
void writeInput(ByteWriter &W, const Input &Data);
Input readInput(ByteReader &R);
void writeCrashRecord(ByteWriter &W, const CrashRecord &C);
CrashRecord readCrashRecord(ByteReader &R);
void writeHangRecord(ByteWriter &W, const HangRecord &H);
HangRecord readHangRecord(ByteReader &R);

} // namespace fuzz
} // namespace pathfuzz

#endif // PATHFUZZ_FUZZ_SNAPSHOT_H
