#include "src/crypto/aes128.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace rc4b {

namespace {

uint8_t GfMul(uint8_t a, uint8_t b) {
  uint8_t p = 0;
  while (b != 0) {
    if (b & 1) {
      p = static_cast<uint8_t>(p ^ a);
    }
    const bool hi = (a & 0x80) != 0;
    a = static_cast<uint8_t>(a << 1);
    if (hi) {
      a = static_cast<uint8_t>(a ^ 0x1b);  // AES irreducible polynomial x^8+x^4+x^3+x+1
    }
    b >>= 1;
  }
  return p;
}

// Computes the S-box from the field inverse and affine map instead of
// embedding a 256-entry literal; verified against FIPS-197 vectors in tests.
std::array<uint8_t, 256> BuildSBox() {
  std::array<uint8_t, 256> inv{};
  for (int a = 1; a < 256; ++a) {
    for (int b = 1; b < 256; ++b) {
      if (GfMul(static_cast<uint8_t>(a), static_cast<uint8_t>(b)) == 1) {
        inv[a] = static_cast<uint8_t>(b);
        break;
      }
    }
  }
  std::array<uint8_t, 256> sbox{};
  for (int i = 0; i < 256; ++i) {
    uint8_t x = inv[i];
    uint8_t y = x;
    for (int r = 0; r < 4; ++r) {
      y = static_cast<uint8_t>((y << 1) | (y >> 7));
      x = static_cast<uint8_t>(x ^ y);
    }
    sbox[i] = static_cast<uint8_t>(x ^ 0x63);
  }
  return sbox;
}

uint32_t SubWord(uint32_t w, const std::array<uint8_t, 256>& s) {
  return static_cast<uint32_t>(s[w >> 24]) << 24 |
         static_cast<uint32_t>(s[(w >> 16) & 0xff]) << 16 |
         static_cast<uint32_t>(s[(w >> 8) & 0xff]) << 8 |
         static_cast<uint32_t>(s[w & 0xff]);
}

uint32_t RotWord(uint32_t w) { return (w << 8) | (w >> 24); }

}  // namespace

const std::array<uint8_t, 256>& Aes128::SBox() {
  static const std::array<uint8_t, 256> kSBox = BuildSBox();
  return kSBox;
}

Aes128::Aes128(std::span<const uint8_t> key) {
  assert(key.size() == kKeySize);
  const auto& sbox = SBox();
  for (int i = 0; i < 4; ++i) {
    round_keys_[i] = LoadBe32(key.data() + 4 * i);
  }
  uint8_t rcon = 1;
  for (int i = 4; i < 44; ++i) {
    uint32_t temp = round_keys_[i - 1];
    if (i % 4 == 0) {
      temp = SubWord(RotWord(temp), sbox) ^ (static_cast<uint32_t>(rcon) << 24);
      rcon = GfMul(rcon, 2);
    }
    round_keys_[i] = round_keys_[i - 4] ^ temp;
  }
}

void Aes128::EncryptBlock(const uint8_t in[kBlockSize], uint8_t out[kBlockSize]) const {
  const auto& sbox = SBox();
  uint8_t state[16];
  std::memcpy(state, in, 16);

  auto add_round_key = [&](int round) {
    for (int c = 0; c < 4; ++c) {
      const uint32_t rk = round_keys_[4 * round + c];
      state[4 * c + 0] ^= static_cast<uint8_t>(rk >> 24);
      state[4 * c + 1] ^= static_cast<uint8_t>(rk >> 16);
      state[4 * c + 2] ^= static_cast<uint8_t>(rk >> 8);
      state[4 * c + 3] ^= static_cast<uint8_t>(rk);
    }
  };
  auto sub_bytes = [&] {
    for (auto& b : state) {
      b = sbox[b];
    }
  };
  auto shift_rows = [&] {
    // Row r (bytes state[4c + r]) rotates left by r positions.
    uint8_t t = state[1];
    state[1] = state[5];
    state[5] = state[9];
    state[9] = state[13];
    state[13] = t;
    std::swap(state[2], state[10]);
    std::swap(state[6], state[14]);
    t = state[15];
    state[15] = state[11];
    state[11] = state[7];
    state[7] = state[3];
    state[3] = t;
  };
  auto mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      uint8_t* col = state + 4 * c;
      const uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      col[0] = static_cast<uint8_t>(GfMul(a0, 2) ^ GfMul(a1, 3) ^ a2 ^ a3);
      col[1] = static_cast<uint8_t>(a0 ^ GfMul(a1, 2) ^ GfMul(a2, 3) ^ a3);
      col[2] = static_cast<uint8_t>(a0 ^ a1 ^ GfMul(a2, 2) ^ GfMul(a3, 3));
      col[3] = static_cast<uint8_t>(GfMul(a0, 3) ^ a1 ^ a2 ^ GfMul(a3, 2));
    }
  };

  add_round_key(0);
  for (int round = 1; round <= 9; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes();
  shift_rows();
  add_round_key(10);
  std::memcpy(out, state, 16);
}

std::array<uint8_t, (Aes128::kRounds + 1) * Aes128::kBlockSize>
Aes128::RoundKeyBytes() const {
  std::array<uint8_t, (kRounds + 1) * kBlockSize> bytes;
  for (size_t i = 0; i < round_keys_.size(); ++i) {
    StoreBe32(round_keys_[i], bytes.data() + 4 * i);
  }
  return bytes;
}

namespace {

#if defined(__x86_64__) || defined(__i386__)

// Blocks in flight per round: AESENC has a latency of several cycles but a
// throughput of one or two per cycle, so independent blocks fill the gap.
constexpr size_t kAesNiLanes = 8;

// Compiled for AES-NI through the function attribute alone, so this file
// needs no ISA flag; only called after the CPU check in CpuHasAesNi().
__attribute__((target("sse2,aes"))) inline __m128i CounterBlock(uint64_t counter) {
  return _mm_set_epi64x(static_cast<long long>(__builtin_bswap64(counter)), 0);
}

__attribute__((target("sse2,aes"))) void EncryptCounterBlocksAesNi(
    const uint8_t* round_key_bytes, uint64_t counter, uint8_t* out, size_t blocks) {
  __m128i rk[Aes128::kRounds + 1];
  for (size_t r = 0; r <= Aes128::kRounds; ++r) {
    rk[r] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(round_key_bytes + r * Aes128::kBlockSize));
  }
  size_t b = 0;
  for (; b + kAesNiLanes <= blocks; b += kAesNiLanes) {
    __m128i s[kAesNiLanes];
    for (size_t j = 0; j < kAesNiLanes; ++j) {
      s[j] = _mm_xor_si128(CounterBlock(counter + b + j), rk[0]);
    }
    for (size_t r = 1; r < Aes128::kRounds; ++r) {
      for (size_t j = 0; j < kAesNiLanes; ++j) {
        s[j] = _mm_aesenc_si128(s[j], rk[r]);
      }
    }
    for (size_t j = 0; j < kAesNiLanes; ++j) {
      s[j] = _mm_aesenclast_si128(s[j], rk[Aes128::kRounds]);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + (b + j) * Aes128::kBlockSize),
                       s[j]);
    }
  }
  for (; b < blocks; ++b) {
    __m128i s = _mm_xor_si128(CounterBlock(counter + b), rk[0]);
    for (size_t r = 1; r < Aes128::kRounds; ++r) {
      s = _mm_aesenc_si128(s, rk[r]);
    }
    s = _mm_aesenclast_si128(s, rk[Aes128::kRounds]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + b * Aes128::kBlockSize), s);
  }
}

bool CpuHasAesNi() {
  static const bool has = __builtin_cpu_supports("aes") != 0;
  return has;
}

#else

bool CpuHasAesNi() { return false; }

#endif

}  // namespace

Aes128Ctr::Aes128Ctr(std::span<const uint8_t> key)
    : aes_(key), round_key_bytes_(aes_.RoundKeyBytes()) {}

bool Aes128Ctr::HardwareAccelerated() { return CpuHasAesNi(); }

void Aes128Ctr::EncryptBlocks(uint8_t* out, size_t blocks) {
#if defined(__x86_64__) || defined(__i386__)
  if (CpuHasAesNi()) {
    EncryptCounterBlocksAesNi(round_key_bytes_.data(), counter_, out, blocks);
    counter_ += blocks;
    return;
  }
#endif
  for (size_t b = 0; b < blocks; ++b) {
    uint8_t counter_block[Aes128::kBlockSize] = {};
    StoreBe64(counter_++, counter_block + 8);
    aes_.EncryptBlock(counter_block, out + b * Aes128::kBlockSize);
  }
}

// Drains the buffered tail of the previous block, writes whole blocks
// straight into `out`, and buffers one more block only for a partial tail.
void Aes128Ctr::Generate(std::span<uint8_t> out) {
  uint8_t* dst = out.data();
  size_t left = out.size();
  if (buffered_ != 0 && left != 0) {
    const size_t head = std::min(left, buffered_);
    std::memcpy(dst, buffer_.data() + (Aes128::kBlockSize - buffered_), head);
    buffered_ -= head;
    dst += head;
    left -= head;
  }

  const size_t blocks = left / Aes128::kBlockSize;
  EncryptBlocks(dst, blocks);
  dst += blocks * Aes128::kBlockSize;
  left -= blocks * Aes128::kBlockSize;

  if (left != 0) {
    EncryptBlocks(buffer_.data(), 1);
    std::memcpy(dst, buffer_.data(), left);
    buffered_ = Aes128::kBlockSize - left;
  }
}

void Aes128Ctr::Seek(uint64_t block_index) {
  counter_ = block_index;
  buffered_ = 0;
}

}  // namespace rc4b
