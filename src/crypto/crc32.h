// CRC-32 (IEEE 802.3 polynomial, reflected) — the TKIP Integrity Check Value
// and the grid store's per-section checksum.
//
// The attack in Sect. 5.3 prunes plaintext candidates by recomputing this CRC
// over the decrypted packet and comparing it to the decrypted ICV field. The
// grid store (src/store/grid_file.h) checksums every multi-MiB cells section
// it writes or validates, so the update is sliced: 16 bytes per step through
// 16 lookup tables, with the one-byte table loop for the tail. Values are
// those of the plain byte-at-a-time CRC.
#ifndef SRC_CRYPTO_CRC32_H_
#define SRC_CRYPTO_CRC32_H_

#include <cstdint>
#include <span>

namespace rc4b {

// Standard CRC-32: init 0xffffffff, reflected polynomial 0xedb88320, final
// XOR 0xffffffff. Crc32("123456789") == 0xcbf43926.
uint32_t Crc32(std::span<const uint8_t> data);

// Streaming form: pass the previous return value as `state`; start with
// Crc32Init() and finish with Crc32Final().
uint32_t Crc32Init();
uint32_t Crc32Update(uint32_t state, std::span<const uint8_t> data);
uint32_t Crc32Final(uint32_t state);

}  // namespace rc4b

#endif  // SRC_CRYPTO_CRC32_H_
