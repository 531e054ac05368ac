//===- Bytes.h - Little-endian byte serialization helpers -------*- C++ -*-===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// An append-only little-endian byte writer and a bounds-checked reader.
// These started life inside fuzz/Snapshot.h; they live in support/ so the
// layers below the fuzzer (telemetry traces, tools) can serialize without
// depending on the fuzz layer. fuzz/Snapshot.h re-exports them under
// pathfuzz::fuzz for its existing users.
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_SUPPORT_BYTES_H
#define PATHFUZZ_SUPPORT_BYTES_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace pathfuzz {

/// Append-only little-endian byte buffer.
class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(V); }
  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void bytes(const void *Data, size_t N) {
    const auto *P = static_cast<const uint8_t *>(Data);
    Buf.insert(Buf.end(), P, P + N);
  }
  /// u64 length prefix + raw bytes.
  void blob(const std::vector<uint8_t> &B) {
    u64(B.size());
    bytes(B.data(), B.size());
  }
  /// u64 length prefix + raw characters (no terminator).
  void str(const std::string &S) {
    u64(S.size());
    bytes(S.data(), S.size());
  }
  /// Unsigned LEB128: seven bits per byte, low group first, high bit set
  /// on every byte but the last.
  void varint(uint64_t V) {
    for (; V >= 0x80; V >>= 7)
      Buf.push_back(static_cast<uint8_t>(V | 0x80));
    Buf.push_back(static_cast<uint8_t>(V));
  }
  /// A strictly ascending u32 set: varint count, then each element as a
  /// varint gap past its predecessor plus one (the first past zero), so a
  /// set costs about a byte per element wherever it is dense.
  void ascendingU32(const std::vector<uint32_t> &Xs) {
    varint(Xs.size());
    uint64_t Next = 0;
    for (uint32_t X : Xs) {
      varint(X - Next);
      Next = uint64_t(X) + 1;
    }
  }
  void vecU32(const std::vector<uint32_t> &Xs) {
    u64(Xs.size());
    for (uint32_t X : Xs)
      u32(X);
  }
  void vecU64(const std::vector<uint64_t> &Xs) {
    u64(Xs.size());
    for (uint64_t X : Xs)
      u64(X);
  }
  void vecI64(const std::vector<int64_t> &Xs) {
    u64(Xs.size());
    for (int64_t X : Xs)
      i64(X);
  }

  const std::vector<uint8_t> &data() const { return Buf; }
  std::vector<uint8_t> take() { return std::move(Buf); }

private:
  std::vector<uint8_t> Buf;
};

/// Bounds-checked little-endian reader. Any overrun latches ok() to false
/// and subsequent reads return zeros; callers check ok() once at the end.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t N) : P(Data), End(Data + N) {}
  explicit ByteReader(const std::vector<uint8_t> &B)
      : ByteReader(B.data(), B.size()) {}

  uint8_t u8() {
    uint8_t V = 0;
    copy(&V, 1);
    return V;
  }
  uint32_t u32() {
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(u8()) << (8 * I);
    return V;
  }
  uint64_t u64() {
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(u8()) << (8 * I);
    return V;
  }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  bool bytes(void *Out, size_t N) { return copy(Out, N); }
  std::vector<uint8_t> blob() {
    uint64_t N = u64();
    if (N > remaining()) {
      OkFlag = false;
      return {};
    }
    std::vector<uint8_t> Out(P, P + N);
    P += N;
    return Out;
  }
  std::string str() {
    uint64_t N = u64();
    if (N > remaining()) {
      OkFlag = false;
      return {};
    }
    std::string Out(reinterpret_cast<const char *>(P), N);
    P += N;
    return Out;
  }
  /// LEB128 written by ByteWriter::varint. Only the canonical encoding is
  /// accepted: at most ten bytes, no bits past 64 and no zero final group
  /// after the first byte.
  uint64_t varint() {
    uint64_t V = 0;
    for (unsigned Shift = 0; Shift < 64 && OkFlag; Shift += 7) {
      uint8_t B = u8();
      if ((Shift == 63 && B > 1) || (Shift && B == 0))
        break;
      V |= static_cast<uint64_t>(B & 0x7f) << Shift;
      if (!(B & 0x80))
        return V;
    }
    OkFlag = false;
    return 0;
  }
  /// A set written by ByteWriter::ascendingU32 whose elements are all below
  /// Bound (at most 2^32). A count larger than the remaining bytes (every
  /// element takes at least one) or an element at or past Bound latches
  /// the reader.
  std::vector<uint32_t> ascendingU32(uint64_t Bound) {
    if (Bound > (uint64_t(1) << 32))
      Bound = uint64_t(1) << 32;
    uint64_t N = varint();
    if (N > remaining()) {
      OkFlag = false;
      return {};
    }
    std::vector<uint32_t> Out(N);
    uint64_t Next = 0;
    for (uint32_t &X : Out) {
      uint64_t Gap = varint();
      if (!OkFlag || Gap >= Bound - Next) {
        OkFlag = false;
        return {};
      }
      X = static_cast<uint32_t>(Next + Gap);
      Next = uint64_t(X) + 1;
    }
    return Out;
  }
  std::vector<uint32_t> vecU32() {
    uint64_t N = u64();
    if (N > remaining() / 4) {
      OkFlag = false;
      return {};
    }
    std::vector<uint32_t> Out(N);
    for (auto &X : Out)
      X = u32();
    return Out;
  }
  std::vector<uint64_t> vecU64() {
    uint64_t N = u64();
    if (N > remaining() / 8) {
      OkFlag = false;
      return {};
    }
    std::vector<uint64_t> Out(N);
    for (auto &X : Out)
      X = u64();
    return Out;
  }
  std::vector<int64_t> vecI64() {
    uint64_t N = u64();
    if (N > remaining() / 8) {
      OkFlag = false;
      return {};
    }
    std::vector<int64_t> Out(N);
    for (auto &X : Out)
      X = i64();
    return Out;
  }

  /// Read exactly N raw bytes (no length prefix).
  std::vector<uint8_t> raw(size_t N) {
    if (N > remaining()) {
      OkFlag = false;
      return {};
    }
    std::vector<uint8_t> Out(P, P + N);
    P += N;
    return Out;
  }

  /// Latch the reader into the failed state (malformed length fields).
  void invalidate() { OkFlag = false; }

  size_t remaining() const { return static_cast<size_t>(End - P); }
  bool ok() const { return OkFlag; }
  /// ok() and fully consumed — the final acceptance check.
  bool done() const { return OkFlag && P == End; }

private:
  bool copy(void *Out, size_t N) {
    if (N > remaining()) {
      OkFlag = false;
      std::memset(Out, 0, N);
      return false;
    }
    std::memcpy(Out, P, N);
    P += N;
    return true;
  }

  const uint8_t *P;
  const uint8_t *End;
  bool OkFlag = true;
};

} // namespace pathfuzz

#endif // PATHFUZZ_SUPPORT_BYTES_H
