// AES-128 block cipher and a CTR-mode keystream, implemented from FIPS-197.
//
// Role in the reproduction: the paper's dataset workers derive random RC4 keys
// from a per-worker AES key run in counter mode (Sect. 3.2). We follow the
// same construction so dataset generation is deterministic given worker seeds.
#ifndef SRC_CRYPTO_AES128_H_
#define SRC_CRYPTO_AES128_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "src/common/bytes.h"

namespace rc4b {

class Aes128 {
 public:
  static constexpr size_t kBlockSize = 16;
  static constexpr size_t kKeySize = 16;
  static constexpr size_t kRounds = 10;

  explicit Aes128(std::span<const uint8_t> key);

  // Encrypts one 16-byte block (out may alias in). The software FIPS-197
  // reference: the oracle every faster path is tested against.
  void EncryptBlock(const uint8_t in[kBlockSize], uint8_t out[kBlockSize]) const;

  // The expanded key schedule in byte order, round r at bytes [16r, 16r+16):
  // the layout the AES-NI round instructions take.
  std::array<uint8_t, (kRounds + 1) * kBlockSize> RoundKeyBytes() const;

  // The AES S-box; exposed because the TKIP key-mixing S-box is derived from
  // it (see src/tkip/key_mixing.cc).
  static const std::array<uint8_t, 256>& SBox();

 private:
  std::array<uint32_t, 44> round_keys_;
};

// CTR-mode generator. Block i of the stream is the encryption of a 16-byte
// counter block whose upper 8 bytes are zero and whose lower 8 bytes hold the
// 64-bit counter i big-endian; the counter wraps at 2^64. Every RC4 key of
// every stored grid comes from this stream (src/rc4/keygen.h), so its bytes
// are pinned by golden values in tests/rc4/keygen_test.cc.
//
// On x86 CPUs with AES-NI (detected at run time) Generate() encrypts up to 8
// counter blocks at once with the AES round instructions; elsewhere it runs
// Aes128::EncryptBlock per block. Both produce the same bytes.
class Aes128Ctr {
 public:
  explicit Aes128Ctr(std::span<const uint8_t> key);

  // Fills `out` with keystream, continuing from the current counter.
  void Generate(std::span<uint8_t> out);

  // Repositions the counter (used to shard one worker key across chunks).
  void Seek(uint64_t block_index);

  // Whether Generate() runs on the AES-NI path on this CPU.
  static bool HardwareAccelerated();

 private:
  // Writes the keystream blocks counter_, counter_ + 1, ... to `out` (a
  // whole number of blocks) and advances counter_ past them.
  void EncryptBlocks(uint8_t* out, size_t blocks);

  Aes128 aes_;
  std::array<uint8_t, (Aes128::kRounds + 1) * Aes128::kBlockSize> round_key_bytes_;
  uint64_t counter_ = 0;
  std::array<uint8_t, Aes128::kBlockSize> buffer_{};
  size_t buffered_ = 0;  // valid bytes remaining at the tail of buffer_
};

}  // namespace rc4b

#endif  // SRC_CRYPTO_AES128_H_
