#include "src/crypto/aes128.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/common/rng.h"

namespace rc4b {
namespace {

// FIPS-197 Appendix C.1 known-answer vector.
TEST(Aes128Test, Fips197Vector) {
  const Bytes key = FromHex("000102030405060708090a0b0c0d0e0f");
  const Bytes plaintext = FromHex("00112233445566778899aabbccddeeff");
  Aes128 aes(key);
  uint8_t out[16];
  aes.EncryptBlock(plaintext.data(), out);
  EXPECT_EQ(ToHex(std::span<const uint8_t>(out, 16)),
            "69c4e0d86a7b0430d8cdb78070b4c55a");
}

// FIPS-197 Appendix B worked example.
TEST(Aes128Test, Fips197AppendixB) {
  const Bytes key = FromHex("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes plaintext = FromHex("3243f6a8885a308d313198a2e0370734");
  Aes128 aes(key);
  uint8_t out[16];
  aes.EncryptBlock(plaintext.data(), out);
  EXPECT_EQ(ToHex(std::span<const uint8_t>(out, 16)),
            "3925841d02dc09fbdc118597196a0b32");
}

TEST(Aes128Test, SBoxKnownEntries) {
  const auto& sbox = Aes128::SBox();
  EXPECT_EQ(sbox[0x00], 0x63);
  EXPECT_EQ(sbox[0x01], 0x7c);
  EXPECT_EQ(sbox[0x53], 0xed);
  EXPECT_EQ(sbox[0xff], 0x16);
}

TEST(Aes128Test, SBoxIsPermutation) {
  const auto& sbox = Aes128::SBox();
  std::array<int, 256> seen{};
  for (int i = 0; i < 256; ++i) {
    ++seen[sbox[i]];
  }
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(seen[i], 1) << "value " << i;
  }
}

TEST(Aes128Test, InPlaceEncryption) {
  const Bytes key = FromHex("000102030405060708090a0b0c0d0e0f");
  Bytes block = FromHex("00112233445566778899aabbccddeeff");
  Aes128 aes(key);
  aes.EncryptBlock(block.data(), block.data());
  EXPECT_EQ(ToHex(block), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

// FIPS-197 Appendix A.1: the last round key of the Appendix B key, in the
// byte layout the AES-NI path loads.
TEST(Aes128Test, RoundKeyBytesMatchAppendixA1) {
  const Bytes key = FromHex("2b7e151628aed2a6abf7158809cf4f3c");
  const auto bytes = Aes128(key).RoundKeyBytes();
  EXPECT_EQ(ToHex(std::span<const uint8_t>(bytes.data(), 16)),
            "2b7e151628aed2a6abf7158809cf4f3c");
  EXPECT_EQ(ToHex(std::span<const uint8_t>(bytes.data() + 160, 16)),
            "d014f9a8c9ee2589e13f0cc8b6630ca6");
}

TEST(Aes128CtrTest, DeterministicAndSeekable) {
  const Bytes key = FromHex("2b7e151628aed2a6abf7158809cf4f3c");
  Aes128Ctr a(key);
  Bytes first(48);
  a.Generate(first);

  Aes128Ctr b(key);
  Bytes again(48);
  b.Generate(again);
  EXPECT_EQ(first, again);

  // Seek to block 1 (byte offset 16) and compare.
  Aes128Ctr c(key);
  c.Seek(1);
  Bytes tail(32);
  c.Generate(tail);
  EXPECT_EQ(Bytes(first.begin() + 16, first.end()), tail);
}

TEST(Aes128CtrTest, UnalignedReadsMatchAlignedStream) {
  const Bytes key = FromHex("000102030405060708090a0b0c0d0e0f");
  Aes128Ctr a(key);
  Bytes aligned(64);
  a.Generate(aligned);

  Aes128Ctr b(key);
  Bytes pieces;
  for (size_t chunk : {3u, 7u, 16u, 1u, 21u, 16u}) {
    Bytes piece(chunk);
    b.Generate(piece);
    pieces.insert(pieces.end(), piece.begin(), piece.end());
  }
  EXPECT_EQ(Bytes(aligned.begin(), aligned.begin() + pieces.size()), pieces);
}

TEST(Aes128CtrTest, DistinctBlocksDiffer) {
  const Bytes key = FromHex("000102030405060708090a0b0c0d0e0f");
  Aes128Ctr ctr(key);
  Bytes b1(16), b2(16);
  ctr.Generate(b1);
  ctr.Generate(b2);
  EXPECT_NE(b1, b2);
}

// The CTR stream from the software oracle: EncryptBlock over the counter
// blocks first_block, first_block + 1, ... (zero upper half, 64-bit
// big-endian lower half, wrapping at 2^64).
Bytes OracleStream(std::span<const uint8_t> key, uint64_t first_block, size_t bytes) {
  const Aes128 aes(key);
  Bytes out((bytes + 15) / 16 * 16);
  for (size_t b = 0; b < out.size() / 16; ++b) {
    uint8_t counter_block[16] = {};
    StoreBe64(first_block + b, counter_block + 8);
    aes.EncryptBlock(counter_block, out.data() + 16 * b);
  }
  out.resize(bytes);
  return out;
}

Bytes RandomKey(Xoshiro256& rng) {
  Bytes key(16);
  rng.Fill(key);
  return key;
}

// Generate() in pieces of `split` bytes, `bytes` in all, from block `first`.
Bytes SplitStream(std::span<const uint8_t> key, uint64_t first, size_t bytes,
                  size_t split) {
  Aes128Ctr ctr(key);
  ctr.Seek(first);
  Bytes out(bytes);
  for (size_t i = 0; i < bytes; i += split) {
    ctr.Generate(std::span<uint8_t>(out.data() + i, std::min(split, bytes - i)));
  }
  return out;
}

// Whichever path Generate() takes on this CPU (AES-NI or software) must
// reproduce the oracle byte for byte.
class Aes128CtrOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const bool hw = Aes128Ctr::HardwareAccelerated();
    RecordProperty("aes_ni", hw ? "yes" : "no");
    GTEST_LOG_(INFO) << "Aes128Ctr path: " << (hw ? "AES-NI" : "software");
  }
};

TEST_F(Aes128CtrOracleTest, WholeCallsOfAnyBlockCount) {
  Xoshiro256 rng(0x5eed);
  for (int k = 0; k < 8; ++k) {
    const Bytes key = RandomKey(rng);
    for (size_t blocks : {0u, 1u, 2u, 7u, 8u, 9u, 15u, 16u, 17u, 63u, 64u, 65u, 257u}) {
      Aes128Ctr ctr(key);
      Bytes out(16 * blocks);
      ctr.Generate(out);
      EXPECT_EQ(out, OracleStream(key, 0, out.size()))
          << "key " << ToHex(key) << ", " << blocks << " blocks";
    }
  }
}

TEST_F(Aes128CtrOracleTest, SplitsAcrossTheBufferedTail) {
  Xoshiro256 rng(0x7a11);
  const Bytes key = RandomKey(rng);
  constexpr size_t kBytes = 16 * 67 + 5;
  const Bytes expected = OracleStream(key, 3, kBytes);
  for (size_t split = 1; split <= 257; ++split) {
    EXPECT_EQ(SplitStream(key, 3, kBytes, split), expected) << "split " << split;
  }
}

TEST_F(Aes128CtrOracleTest, MixedSplitsMatchOneCall) {
  Xoshiro256 rng(0x313);
  for (int k = 0; k < 4; ++k) {
    const Bytes key = RandomKey(rng);
    Aes128Ctr ctr(key);
    Bytes got;
    while (got.size() < 16 * 300) {
      Bytes piece(1 + rng.Below(257));
      ctr.Generate(piece);
      got.insert(got.end(), piece.begin(), piece.end());
    }
    EXPECT_EQ(got, OracleStream(key, 0, got.size())) << "key " << ToHex(key);
  }
}

TEST_F(Aes128CtrOracleTest, CounterWrapsAt2To64) {
  Xoshiro256 rng(0xfff);
  const Bytes key = RandomKey(rng);
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  for (uint64_t back : {0u, 1u, 3u, 7u, 8u, 12u}) {
    const uint64_t first = kMax - back;
    constexpr size_t kBytes = 16 * 21 + 9;
    const Bytes expected = OracleStream(key, first, kBytes);
    for (size_t split : {size_t{1}, size_t{13}, size_t{16}, size_t{40}, kBytes}) {
      EXPECT_EQ(SplitStream(key, first, kBytes, split), expected)
          << "Seek(2^64 - 1 - " << back << "), split " << split;
    }
  }
  // Block 2^64 is block 0 again.
  Aes128Ctr wrapped(key);
  wrapped.Seek(kMax);
  Bytes two(32);
  wrapped.Generate(two);
  EXPECT_EQ(Bytes(two.begin() + 16, two.end()), OracleStream(key, 0, 16));
}

}  // namespace
}  // namespace rc4b
