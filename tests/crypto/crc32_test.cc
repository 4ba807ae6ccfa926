#include "src/crypto/crc32.h"

#include <array>
#include <cstddef>

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/common/rng.h"

namespace rc4b {
namespace {

// The original one-byte-per-step table CRC, kept verbatim as the oracle the
// sliced Crc32Update must match bit for bit: grid files, checkpoints and
// cache names written by it must keep validating.
std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> kTable = BuildTable();
  return kTable;
}

uint32_t ReferenceCrc32Update(uint32_t state, std::span<const uint8_t> data) {
  const auto& table = Table();
  for (uint8_t b : data) {
    state = table[(state ^ b) & 0xff] ^ (state >> 8);
  }
  return state;
}

uint32_t ReferenceCrc32(std::span<const uint8_t> data) {
  return ReferenceCrc32Update(0xffffffffu, data) ^ 0xffffffffu;
}

// A fixed 8 MiB pattern, independent of any RNG implementation.
Bytes GridSizedPattern() {
  Bytes data(size_t{8} << 20);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(
        (static_cast<uint32_t>(i) * 2654435761u) >> 24 ^ i);
  }
  return data;
}

// Canonical CRC-32 check value.
TEST(Crc32Test, CheckValue) {
  const Bytes data = FromString("123456789");
  EXPECT_EQ(Crc32(data), 0xcbf43926u);
}

TEST(Crc32Test, EmptyIsZero) {
  EXPECT_EQ(Crc32({}), 0u);
}

TEST(Crc32Test, SingleZeroByte) {
  const Bytes data = {0x00};
  EXPECT_EQ(Crc32(data), 0xd202ef8du);
}

TEST(Crc32Test, StreamingMatchesOneShot) {
  Xoshiro256 rng(99);
  Bytes data(300);
  rng.Fill(data);
  uint32_t state = Crc32Init();
  state = Crc32Update(state, std::span<const uint8_t>(data.data(), 100));
  state = Crc32Update(state, std::span<const uint8_t>(data.data() + 100, 200));
  EXPECT_EQ(Crc32Final(state), Crc32(data));
}

TEST(Crc32Test, SensitiveToEveryBit) {
  Bytes data = FromString("The Integrity Check Value");
  const uint32_t baseline = Crc32(data);
  for (size_t byte = 0; byte < data.size(); byte += 5) {
    for (int bit = 0; bit < 8; bit += 3) {
      Bytes mutated = data;
      mutated[byte] ^= static_cast<uint8_t>(1 << bit);
      EXPECT_NE(Crc32(mutated), baseline) << "byte " << byte << " bit " << bit;
    }
  }
}

// CRC linearity: crc(a XOR b XOR c) = crc(a) XOR crc(b) XOR crc(c) for
// equal-length inputs — the property that makes the WEP/TKIP ICV malleable
// and candidate pruning cheap.
TEST(Crc32Test, LinearityOverXor) {
  Xoshiro256 rng(4);
  Bytes a(64), b(64), zero(64, 0);
  rng.Fill(a);
  rng.Fill(b);
  const Bytes ab = Xor(a, b);
  EXPECT_EQ(Crc32(ab) ^ Crc32(zero), Crc32(a) ^ Crc32(b));
}

// Every length through several 16-byte blocks plus a tail, at every
// alignment of the start pointer.
TEST(Crc32Test, MatchesByteLoopAtEveryLengthAndOffset) {
  Xoshiro256 rng(15);
  Bytes buffer(300 + 16);
  rng.Fill(buffer);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t length = 0; length <= 300; ++length) {
      const std::span<const uint8_t> data(buffer.data() + offset, length);
      ASSERT_EQ(Crc32(data), ReferenceCrc32(data))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32Test, StreamingSplitAtEveryPointMatchesByteLoop) {
  Xoshiro256 rng(16);
  Bytes data(257);
  rng.Fill(data);
  const uint32_t want = ReferenceCrc32(data);
  const std::span<const uint8_t> all(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t state = Crc32Init();
    state = Crc32Update(state, all.subspan(0, split));
    state = Crc32Update(state, all.subspan(split));
    ASSERT_EQ(Crc32Final(state), want) << "split " << split;
    ASSERT_EQ(Crc32Update(0x12345678u, all.subspan(0, split)),
              ReferenceCrc32Update(0x12345678u, all.subspan(0, split)))
        << "split " << split;
  }
}

TEST(Crc32Test, GridSizedBufferMatchesByteLoop) {
  Xoshiro256 rng(17);
  Bytes data((size_t{8} << 20) + 13);
  rng.Fill(data);
  EXPECT_EQ(Crc32(data), ReferenceCrc32(data));
}

// The checksum of a digraph-grid-sized buffer, pinned as a literal computed
// by the byte loop: a change to the CRC would orphan every stored grid.
TEST(Crc32Test, GridSizedPatternValueIsPinned) {
  EXPECT_EQ(Crc32(GridSizedPattern()), 0x3a34032du);
}

}  // namespace
}  // namespace rc4b
