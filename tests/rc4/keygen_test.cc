#include "src/rc4/keygen.h"

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/bytes.h"

namespace rc4b {
namespace {

TEST(KeygenTest, Deterministic) {
  Rc4KeyGenerator a(1);
  Rc4KeyGenerator b(1);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.NextKey(), b.NextKey());
  }
}

TEST(KeygenTest, DifferentWorkersIndependent) {
  Rc4KeyGenerator a(1);
  Rc4KeyGenerator b(2);
  int equal = 0;
  for (int i = 0; i < 32; ++i) {
    equal += a.NextKey() == b.NextKey() ? 1 : 0;
  }
  EXPECT_EQ(equal, 0);
}

TEST(KeygenTest, KeysAreDistinct) {
  Rc4KeyGenerator gen(7);
  std::set<std::string> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto key = gen.NextKey();
    seen.insert(ToHex(key));
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(KeygenTest, SeekReproducesStream) {
  Rc4KeyGenerator a(3);
  std::vector<std::array<uint8_t, 16>> keys;
  for (int i = 0; i < 10; ++i) {
    keys.push_back(a.NextKey());
  }
  Rc4KeyGenerator b(3);
  b.Seek(5);
  EXPECT_EQ(b.NextKey(), keys[5]);
  EXPECT_EQ(b.NextKey(), keys[6]);
  b.Seek(0);
  EXPECT_EQ(b.NextKey(), keys[0]);
}

TEST(KeygenTest, KeyBytesLookUniform) {
  // Cheap sanity check on the AES-CTR construction: byte histogram over many
  // keys should be flat to within a few sigma.
  Rc4KeyGenerator gen(11);
  std::array<int, 256> counts{};
  const int keys = 4096;
  for (int i = 0; i < keys; ++i) {
    for (uint8_t b : gen.NextKey()) {
      ++counts[b];
    }
  }
  const double expected = keys * 16.0 / 256.0;  // 256 per value
  for (int v = 0; v < 256; ++v) {
    EXPECT_NEAR(counts[v], expected, 6 * std::sqrt(expected)) << "value " << v;
  }
}

// Provenance pin: every stored grid, manifest and GridCache entry was
// generated from these keys, so any change to the AES-CTR construction (or
// to the path that computes it) must leave them byte for byte.
TEST(KeygenTest, GoldenKeys) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  const auto key_at = [](uint64_t seed, uint64_t index) {
    Rc4KeyGenerator gen(seed);
    gen.Seek(index);
    return ToHex(gen.NextKey());
  };
  EXPECT_EQ(key_at(1, 0), "e422f3f0d2c9f544172e66082d2899ff");
  EXPECT_EQ(key_at(1, 1), "9c062c9764fe79e4e3b557e263d12de2");
  EXPECT_EQ(key_at(1, (uint64_t{1} << 32) + 7), "3a8cce1c9898559ca32ee51a64a21d9c");
  EXPECT_EQ(key_at(1, kMax), "08155d7fa77333a9a7eb75c043ebe53e");
  EXPECT_EQ(key_at(0x67656e, 0), "aa764dfa988dfd17287dde7f57247915");
  EXPECT_EQ(key_at(0x67656e, (uint64_t{1} << 32) + 7),
            "87b6fa6c2a5ede537577fca471b91190");

  Rc4KeyGenerator gen(1);
  gen.NextKey();
  EXPECT_EQ(ToHex(gen.NextKey()), "9c062c9764fe79e4e3b557e263d12de2");
}

// NextKeys(n keys) is n NextKey() calls, from any position, including
// across the 2^64 counter wrap.
TEST(KeygenTest, NextKeysMatchesNextKey) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  for (uint64_t start : {uint64_t{0}, uint64_t{5}, kMax - 100}) {
    for (size_t n : {1u, 7u, 8u, 9u, 64u, 257u}) {
      Rc4KeyGenerator one(9);
      one.Seek(start);
      std::vector<uint8_t> expected;
      for (size_t i = 0; i < n; ++i) {
        const auto key = one.NextKey();
        expected.insert(expected.end(), key.begin(), key.end());
      }
      Rc4KeyGenerator bulk(9);
      bulk.Seek(start);
      std::vector<uint8_t> got(n * Rc4KeyGenerator::kRc4KeySize);
      bulk.NextKeys(got);
      EXPECT_EQ(got, expected) << "start " << start << ", n " << n;
      // Both generators continue from the same key.
      EXPECT_EQ(bulk.NextKey(), one.NextKey()) << "start " << start << ", n " << n;
    }
  }
}

}  // namespace
}  // namespace rc4b
