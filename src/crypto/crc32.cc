#include "src/crypto/crc32.h"

#include <array>
#include <cstddef>

namespace rc4b {

namespace {

// Slicing-by-16 tables: kTables[0] is the textbook byte table; kTables[k][b]
// is the CRC register after feeding byte b followed by k zero bytes, so 16
// input bytes fold with 16 independent lookups instead of 16 dependent ones.
using SliceTables = std::array<std::array<uint32_t, 256>, 16>;

constexpr SliceTables BuildTables() {
  SliceTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (size_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xff] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr SliceTables kTables = BuildTables();

// Little-endian u32 composed from bytes: one plain load on little-endian
// hosts, correct on any host.
uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32Init() { return 0xffffffffu; }

uint32_t Crc32Update(uint32_t state, std::span<const uint8_t> data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 16; n -= 16, p += 16) {
    const uint32_t a = LoadLe32(p) ^ state;
    const uint32_t b = LoadLe32(p + 4);
    const uint32_t c = LoadLe32(p + 8);
    const uint32_t d = LoadLe32(p + 12);
    state = kTables[15][a & 0xff] ^ kTables[14][(a >> 8) & 0xff] ^
            kTables[13][(a >> 16) & 0xff] ^ kTables[12][a >> 24] ^
            kTables[11][b & 0xff] ^ kTables[10][(b >> 8) & 0xff] ^
            kTables[9][(b >> 16) & 0xff] ^ kTables[8][b >> 24] ^
            kTables[7][c & 0xff] ^ kTables[6][(c >> 8) & 0xff] ^
            kTables[5][(c >> 16) & 0xff] ^ kTables[4][c >> 24] ^
            kTables[3][d & 0xff] ^ kTables[2][(d >> 8) & 0xff] ^
            kTables[1][(d >> 16) & 0xff] ^ kTables[0][d >> 24];
  }
  for (; n > 0; --n, ++p) {
    state = kTables[0][(state ^ *p) & 0xff] ^ (state >> 8);
  }
  return state;
}

uint32_t Crc32Final(uint32_t state) { return state ^ 0xffffffffu; }

uint32_t Crc32(std::span<const uint8_t> data) {
  return Crc32Final(Crc32Update(Crc32Init(), data));
}

}  // namespace rc4b
