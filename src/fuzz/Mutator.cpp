//===- Mutator.cpp - Havoc/splice mutation engine ----------------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Mutator.h"

#include <algorithm>
#include <cstring>

namespace pathfuzz {
namespace fuzz {

namespace {

/// AFL's "interesting" 8-bit values.
const int8_t Interesting8[] = {-128, -1, 0, 1, 16, 32, 64, 100, 127};
/// A few 16/32-bit interesting values (lengths, off-by-one traps).
const int32_t Interesting32[] = {-1,  0,    1,    16,   32,    64,   127,
                                 128, 255,  256,  512,  1000,  1024, 4096,
                                 -128, -32768, 32767, 65535, 100663045};

} // namespace

void Mutator::insertBytes(Input &Data, size_t Pos, const uint8_t *Src,
                          size_t N) {
  if (Data.size() + N > Config.MaxLen)
    return;
  // Src never points into Data (callers pass stack blocks), so a resize
  // that reallocates cannot invalidate it. Grow, shift the tail, copy in.
  const size_t Old = Data.size();
  Data.resize(Old + N);
  uint8_t *P = Data.data();
  std::memmove(P + Pos + N, P + Pos, Old - Pos);
  std::memcpy(P + Pos, Src, N);
}

void Mutator::writeValueLE(Input &Data, int64_t Value, unsigned Width,
                           bool Insert) {
  uint8_t Buf[8];
  for (unsigned I = 0; I < Width; ++I)
    Buf[I] = static_cast<uint8_t>(static_cast<uint64_t>(Value) >> (8 * I));
  if (Insert) {
    size_t Pos = R.index(Data.size() + 1);
    insertBytes(Data, Pos, Buf, Width);
    return;
  }
  if (Data.size() < Width)
    return;
  size_t Pos = R.index(Data.size() - Width + 1);
  std::memcpy(Data.data() + Pos, Buf, Width);
}

void Mutator::mutateOnce(Input &Data, const std::vector<int64_t> &Dict) {
  // Keep inputs non-empty so position draws are valid.
  if (Data.empty())
    Data.push_back(static_cast<uint8_t>(R.next()));

  switch (R.below(14)) {
  case 0: { // flip one bit
    size_t Pos = R.index(Data.size());
    Data[Pos] ^= static_cast<uint8_t>(1u << R.below(8));
    break;
  }
  case 1: { // set interesting byte
    size_t Pos = R.index(Data.size());
    Data[Pos] = static_cast<uint8_t>(
        Interesting8[R.below(sizeof(Interesting8))]);
    break;
  }
  case 2: { // random byte
    size_t Pos = R.index(Data.size());
    Data[Pos] = static_cast<uint8_t>(R.next());
    break;
  }
  case 3: { // byte arithmetic
    size_t Pos = R.index(Data.size());
    int Delta = static_cast<int>(R.below(35)) + 1;
    Data[Pos] = static_cast<uint8_t>(Data[Pos] +
                                     (R.oneIn(2) ? Delta : -Delta));
    break;
  }
  case 4: { // 2-byte LE interesting
    writeValueLE(Data,
                 Interesting32[R.below(std::size(Interesting32))], 2,
                 /*Insert=*/false);
    break;
  }
  case 5: { // 4-byte LE interesting
    writeValueLE(Data,
                 Interesting32[R.below(std::size(Interesting32))], 4,
                 /*Insert=*/false);
    break;
  }
  case 6: { // delete a block
    if (Data.size() < 2)
      break;
    size_t Len = 1 + R.index(std::min<size_t>(Data.size() - 1, 16));
    size_t Pos = R.index(Data.size() - Len + 1);
    Data.erase(Data.begin() + static_cast<long>(Pos),
               Data.begin() + static_cast<long>(Pos + Len));
    break;
  }
  case 7: { // clone a block (insert)
    size_t Len = 1 + R.index(std::min<size_t>(Data.size(), 16));
    size_t From = R.index(Data.size() - Len + 1);
    uint8_t Block[16];
    std::memcpy(Block, Data.data() + From, Len);
    size_t To = R.index(Data.size() + 1);
    insertBytes(Data, To, Block, Len);
    break;
  }
  case 8: { // insert random bytes
    size_t Len = 1 + R.below(8);
    uint8_t Buf[8];
    for (size_t I = 0; I < Len; ++I)
      Buf[I] = static_cast<uint8_t>(R.next());
    size_t Pos = R.index(Data.size() + 1);
    insertBytes(Data, Pos, Buf, Len);
    break;
  }
  case 9: { // overwrite block from elsewhere in the input
    if (Data.size() < 2)
      break;
    size_t Len = 1 + R.index(std::min<size_t>(Data.size() - 1, 16));
    size_t From = R.index(Data.size() - Len + 1);
    size_t To = R.index(Data.size() - Len + 1);
    std::memmove(Data.data() + To, Data.data() + From, Len);
    break;
  }
  case 10: { // repeat-extend (grow towards length-gated code)
    size_t Len = 1 + R.below(16);
    uint8_t Byte =
        Data.empty() ? static_cast<uint8_t>(R.next()) : Data[R.index(Data.size())];
    uint8_t Block[16];
    std::memset(Block, Byte, Len);
    insertBytes(Data, R.index(Data.size() + 1), Block, Len);
    break;
  }
  case 11:   // dictionary overwrite (cmplog / input-to-state analogue)
  case 12: { // dictionary insert
    if (Dict.empty()) {
      size_t Pos = R.index(Data.size());
      Data[Pos] = static_cast<uint8_t>(R.next());
      break;
    }
    int64_t Value = Dict[R.index(Dict.size())];
    unsigned Width = R.oneIn(3) ? 1 : (R.oneIn(2) ? 2 : 4);
    // Values that fit a byte are most often what parsers compare against.
    if (Value >= 0 && Value < 256 && R.chance(3, 4))
      Width = 1;
    writeValueLE(Data, Value, Width, /*Insert=*/R.below(14) == 12);
    break;
  }
  case 13: { // truncate or extend to a random length
    if (R.oneIn(2) && Data.size() > 1) {
      Data.resize(1 + R.index(Data.size()));
    } else {
      // Target <= MaxLen, so extending to Target is the whole bound; one
      // draw per appended byte, in order.
      size_t Target = 1 + R.index(Config.MaxLen);
      size_t Old = Data.size();
      if (Old < Target) {
        Data.resize(Target);
        for (uint8_t *P = Data.data() + Old, *End = Data.data() + Target;
             P != End; ++P)
          *P = static_cast<uint8_t>(R.next());
      }
    }
    break;
  }
  }
  if (Data.size() > Config.MaxLen)
    Data.resize(Config.MaxLen);
}

void Mutator::havoc(Input &Data, const std::vector<int64_t> &Dict) {
  unsigned Stack = 1u << (1 + R.below(Config.MaxStackPow));
  for (unsigned I = 0; I < Stack; ++I)
    mutateOnce(Data, Dict);
}

void Mutator::splice(Input &Data, const Input &Other,
                     const std::vector<int64_t> &Dict) {
  if (!Other.empty() && !Data.empty()) {
    // Data becomes Data[0, CutA) ++ Other[CutB, end), capped at MaxLen,
    // built in place. Other may be Data itself: grow first (a
    // reallocation moves both views together), memmove the overlap, and
    // only then shrink.
    size_t CutA = R.index(Data.size());
    size_t CutB = R.index(Other.size());
    const size_t Keep = std::min(CutA, Config.MaxLen);
    const size_t Take = std::min(Other.size() - CutB, Config.MaxLen - Keep);
    const size_t NewLen = Keep + Take;
    if (NewLen != 0) {
      if (NewLen > Data.size())
        Data.resize(NewLen);
      std::memmove(Data.data() + Keep, Other.data() + CutB, Take);
      Data.resize(NewLen);
    }
  }
  havoc(Data, Dict);
}

} // namespace fuzz
} // namespace pathfuzz
