#include "src/core/rank.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace rc4b {
namespace {

SingleByteTables RandomTables(size_t length, uint64_t seed) {
  Xoshiro256 rng(seed);
  SingleByteTables tables(length, std::vector<double>(256));
  for (auto& table : tables) {
    for (auto& v : table) {
      v = -rng.UnitDouble() * 8.0;
    }
  }
  return tables;
}

// Exact rank by exhaustive enumeration (2 positions: 65536 candidates).
uint64_t ExhaustiveRank(const SingleByteTables& tables, std::span<const uint8_t> truth) {
  double truth_score = 0.0;
  for (size_t r = 0; r < tables.size(); ++r) {
    truth_score += tables[r][truth[r]];
  }
  uint64_t rank = 0;
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      const double s = tables[0][a] + tables[1][b];
      if (s > truth_score) {
        ++rank;
      }
    }
  }
  return rank;
}

TEST(IndependentRankTest, BracketsExhaustiveRank) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const auto tables = RandomTables(2, seed);
    Xoshiro256 rng(100 + seed);
    const std::vector<uint8_t> truth = {rng.Byte(), rng.Byte()};
    const uint64_t exact = ExhaustiveRank(tables, truth);
    const auto bracket = IndependentRank(tables, truth, 1 << 15);
    EXPECT_LE(bracket.lower, static_cast<double>(exact) * 1.001 + 2) << "seed " << seed;
    EXPECT_GE(bracket.upper + 2, static_cast<double>(exact) * 0.999) << "seed " << seed;
  }
}

TEST(IndependentRankTest, BestCandidateHasRankZero) {
  const auto tables = RandomTables(8, 11);
  std::vector<uint8_t> best(8);
  for (size_t r = 0; r < 8; ++r) {
    best[r] = static_cast<uint8_t>(
        std::max_element(tables[r].begin(), tables[r].end()) - tables[r].begin());
  }
  const auto bracket = IndependentRank(tables, best);
  EXPECT_DOUBLE_EQ(bracket.lower, 0.0);
  EXPECT_LE(bracket.upper, 2.0);  // quantization may pull in near-ties
}

TEST(IndependentRankTest, WorstCandidateHasHugeRank) {
  const auto tables = RandomTables(6, 12);
  std::vector<uint8_t> worst(6);
  for (size_t r = 0; r < 6; ++r) {
    worst[r] = static_cast<uint8_t>(
        std::min_element(tables[r].begin(), tables[r].end()) - tables[r].begin());
  }
  const auto bracket = IndependentRank(tables, worst);
  // 256^6 = 2^48 candidates; the worst one is near the bottom.
  EXPECT_GT(bracket.estimate(), 1e12);
}

TEST(IndependentRankTest, RankGrowsWhenTruthScoreDrops) {
  auto tables = RandomTables(4, 13);
  const std::vector<uint8_t> truth = {1, 2, 3, 4};
  // Make the truth progressively worse and require monotone rank growth.
  double prev = -1.0;
  for (double penalty : {0.0, 0.5, 1.0, 2.0}) {
    auto modified = tables;
    for (size_t r = 0; r < 4; ++r) {
      modified[r][truth[r]] -= penalty;
    }
    const double rank = IndependentRank(modified, truth).estimate();
    EXPECT_GE(rank, prev);
    prev = rank;
  }
}

double SerialAdd(double acc, double d, uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) {
    acc += d;
  }
  return acc;
}

TEST(AddRepeatedTest, BitIdenticalToSerialAdditions) {
  Xoshiro256 rng(80);
  const auto mantissa = [&rng] { return static_cast<double>(rng() >> 11); };
  for (int i = 0; i < 60000; ++i) {
    double acc = 0.0;
    double d = 0.0;
    uint64_t count = rng.Below(600);
    switch (i % 6) {
      case 0:  // small integer counts: every sum exact
        acc = static_cast<double>(rng.Below(1000));
        d = static_cast<double>(1 + rng.Below(100));
        break;
      case 1:  // counts past 2^53, where additions round
        acc = std::ldexp(mantissa(), static_cast<int>(rng.Below(60)));
        d = static_cast<double>(1 + rng.Below(10000));
        break;
      case 2:  // d an odd multiple of a power of two: ties to even
        acc = std::ldexp(mantissa(), 10);
        d = std::ldexp(static_cast<double>(2 * rng.Below(8) + 1),
                       static_cast<int>(rng.Below(14)));
        count = rng.Below(100000);
        break;
      case 3:  // arbitrary magnitudes, d often below half an ulp
        acc = std::ldexp(mantissa(), static_cast<int>(rng.Below(100)) - 50);
        d = std::ldexp(mantissa(), static_cast<int>(rng.Below(100)) - 80);
        break;
      case 4:  // from zero
        d = std::ldexp(mantissa(), static_cast<int>(rng.Below(80)));
        break;
      default:  // subnormal d and acc near the bottom of the normal range
        acc = std::ldexp(mantissa(), -1074 + static_cast<int>(rng.Below(60)));
        d = std::ldexp(static_cast<double>(1 + rng.Below(4096)),
                       -1074 + static_cast<int>(rng.Below(8)));
        count = rng.Below(5000);
        break;
    }
    const double expected = SerialAdd(acc, d, count);
    const double got = AddRepeated(acc, d, count);
    ASSERT_EQ(std::memcmp(&got, &expected, sizeof(double)), 0)
        << std::hexfloat << "acc " << acc << " d " << d << " count " << count
        << ": " << got << " vs " << expected;
  }
}

// IndependentRank as it was before the DP visited offsets in descending
// order: the b-major histogram convolution, kept verbatim as the golden
// reference for the bit-exactness test below.
double ReferenceChooseQuantum(double deficit, size_t bins) {
  const double usable = static_cast<double>(bins) * 0.45;
  return std::max(deficit / usable, 1e-9);
}

RankBracket ReferenceIndependentRank(const SingleByteTables& tables,
                                     std::span<const uint8_t> truth, size_t bins) {
  const size_t length = tables.size();
  assert(truth.size() == length);

  double best_sum = 0.0;
  double truth_sum = 0.0;
  for (size_t r = 0; r < length; ++r) {
    best_sum += *std::max_element(tables[r].begin(), tables[r].end());
    truth_sum += tables[r][truth[r]];
  }
  const double quantum = ReferenceChooseQuantum(best_sum - truth_sum, bins);

  std::vector<double> dist(bins + 1, 0.0);
  dist[0] = 1.0;
  std::vector<double> next(bins + 1, 0.0);
  size_t truth_bin = 0;
  for (size_t r = 0; r < length; ++r) {
    const double row_max = *std::max_element(tables[r].begin(), tables[r].end());
    // Per-value deficits in quanta.
    std::array<size_t, 256> offsets;
    for (size_t v = 0; v < 256; ++v) {
      const double deficit = (row_max - tables[r][v]) / quantum;
      offsets[v] = deficit >= static_cast<double>(bins)
                       ? bins
                       : static_cast<size_t>(deficit);
    }
    truth_bin = std::min(truth_bin + offsets[truth[r]], bins);
    std::fill(next.begin(), next.end(), 0.0);
    for (size_t b = 0; b <= bins; ++b) {
      if (dist[b] == 0.0) {
        continue;
      }
      if (b == bins) {
        next[bins] += dist[b] * 256.0;
        continue;
      }
      for (size_t v = 0; v < 256; ++v) {
        const size_t nb = std::min(b + offsets[v], bins);
        next[nb] += dist[b];
      }
    }
    dist.swap(next);
  }
  RankBracket bracket;
  for (size_t b = 0; b < truth_bin; ++b) {
    bracket.lower += dist[b];
  }
  bracket.upper = bracket.lower + dist[truth_bin] - 1.0;  // exclude truth itself
  bracket.upper = std::max(bracket.upper, bracket.lower);
  return bracket;
}

void ExpectSameBracket(const SingleByteTables& tables, std::span<const uint8_t> truth,
                       size_t bins, const char* what) {
  const RankBracket expected = ReferenceIndependentRank(tables, truth, bins);
  const RankBracket got = IndependentRank(tables, truth, bins);
  EXPECT_EQ(std::memcmp(&got.lower, &expected.lower, sizeof(double)), 0)
      << what << ": lower " << got.lower << " vs " << expected.lower;
  EXPECT_EQ(std::memcmp(&got.upper, &expected.upper, sizeof(double)), 0)
      << what << ": upper " << got.upper << " vs " << expected.upper;
}

std::vector<uint8_t> RandomTruth(size_t length, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<uint8_t> truth(length);
  for (auto& b : truth) {
    b = rng.Byte();
  }
  return truth;
}

TEST(IndependentRankTest, BitIdenticalToBMajorConvolution) {
  // 12 positions: 2^96 candidates over 2^14 bins, so bins hold far more than
  // 2^53 and every addition order shows up in the rounding.
  for (uint64_t seed = 40; seed < 46; ++seed) {
    const auto tables = RandomTables(12, seed);
    const auto truth = RandomTruth(12, seed + 1000);
    EXPECT_GT(ReferenceIndependentRank(tables, truth, 1 << 14).lower, 0x1p53)
        << "seed " << seed;
    ExpectSameBracket(tables, truth, 1 << 14, "12 positions, 2^14 bins");
  }
  // Few bins, so values and the truth itself spill into the overflow bin.
  for (uint64_t seed = 50; seed < 54; ++seed) {
    const auto tables = RandomTables(12, seed);
    auto truth = RandomTruth(12, seed + 1000);
    ExpectSameBracket(tables, truth, 64, "12 positions, 64 bins");
    for (size_t r = 0; r < 12; ++r) {
      truth[r] = static_cast<uint8_t>(
          std::min_element(tables[r].begin(), tables[r].end()) - tables[r].begin());
    }
    ExpectSameBracket(tables, truth, 64, "worst truth, 64 bins");
  }
  // Coarse tables with many tied values per position.
  for (uint64_t seed = 60; seed < 63; ++seed) {
    auto tables = RandomTables(12, seed);
    for (auto& table : tables) {
      for (double& v : table) {
        v = std::round(v * 2.0) * 0.5;
      }
    }
    const auto truth = RandomTruth(12, seed + 1000);
    ExpectSameBracket(tables, truth, 1 << 14, "tied values");
    ExpectSameBracket(tables, truth, 100, "tied values, 100 bins");
  }
  // The truth is the best candidate: a tiny deficit, so most values clamp.
  {
    const auto tables = RandomTables(12, 70);
    std::vector<uint8_t> best(12);
    for (size_t r = 0; r < 12; ++r) {
      best[r] = static_cast<uint8_t>(
          std::max_element(tables[r].begin(), tables[r].end()) - tables[r].begin());
    }
    ExpectSameBracket(tables, best, 1 << 14, "truth = best");
  }
}

DoubleByteTables RandomTransitions(size_t count, uint64_t seed) {
  Xoshiro256 rng(seed);
  DoubleByteTables tables(count, std::vector<double>(65536));
  for (auto& table : tables) {
    for (auto& v : table) {
      v = -rng.UnitDouble() * 4.0;
    }
  }
  return tables;
}

// Exhaustive Markov rank over a small alphabet.
uint64_t ExhaustiveMarkovRank(const DoubleByteTables& transitions, uint8_t m1,
                              uint8_t m_last, std::span<const uint8_t> truth,
                              std::span<const uint8_t> alphabet) {
  const size_t inner = truth.size();
  double truth_score = transitions[0][static_cast<size_t>(m1) * 256 + truth[0]];
  for (size_t t = 1; t < inner; ++t) {
    truth_score +=
        transitions[t][static_cast<size_t>(truth[t - 1]) * 256 + truth[t]];
  }
  truth_score +=
      transitions[inner][static_cast<size_t>(truth[inner - 1]) * 256 + m_last];

  uint64_t rank = 0;
  std::vector<size_t> idx(inner, 0);
  while (true) {
    double score = transitions[0][static_cast<size_t>(m1) * 256 + alphabet[idx[0]]];
    for (size_t t = 1; t < inner; ++t) {
      score += transitions[t][static_cast<size_t>(alphabet[idx[t - 1]]) * 256 +
                              alphabet[idx[t]]];
    }
    score += transitions[inner][static_cast<size_t>(alphabet[idx[inner - 1]]) * 256 +
                                m_last];
    if (score > truth_score) {
      ++rank;
    }
    size_t pos = 0;
    while (pos < inner && ++idx[pos] == alphabet.size()) {
      idx[pos] = 0;
      ++pos;
    }
    if (pos == inner) {
      break;
    }
  }
  return rank;
}

TEST(MarkovRankTest, BracketsExhaustiveRank) {
  const std::vector<uint8_t> alphabet = {'a', 'b', 'c', 'd', 'e', 'f'};
  for (uint64_t seed = 20; seed <= 23; ++seed) {
    const auto transitions = RandomTransitions(5, seed);  // 4 unknown bytes
    Xoshiro256 rng(seed);
    std::vector<uint8_t> truth(4);
    for (auto& b : truth) {
      b = alphabet[rng.Below(alphabet.size())];
    }
    const uint64_t exact =
        ExhaustiveMarkovRank(transitions, 'X', 'Y', truth, alphabet);
    const auto bracket = MarkovRank(transitions, 'X', 'Y', truth, alphabet, 1 << 14);
    EXPECT_LE(bracket.lower, static_cast<double>(exact) * 1.02 + 3) << "seed " << seed;
    EXPECT_GE(bracket.upper + 3, static_cast<double>(exact) * 0.98) << "seed " << seed;
  }
}

TEST(MarkovRankTest, ViterbiPathHasRankZero) {
  const std::vector<uint8_t> alphabet = {'0', '1', '2', '3'};
  const auto transitions = RandomTransitions(6, 30);
  const Bytes best = MarkovBest(transitions, 'A', 'Z', 5, alphabet);
  const auto bracket = MarkovRank(transitions, 'A', 'Z', best, alphabet);
  EXPECT_DOUBLE_EQ(bracket.lower, 0.0);
}

TEST(MarkovBestTest, MatchesExhaustiveArgmax) {
  const std::vector<uint8_t> alphabet = {'a', 'b', 'c'};
  const auto transitions = RandomTransitions(4, 31);  // 3 unknown bytes
  const Bytes best = MarkovBest(transitions, 'S', 'E', 3, alphabet);
  // Its exhaustive rank must be zero.
  EXPECT_EQ(ExhaustiveMarkovRank(transitions, 'S', 'E', best, alphabet), 0u);
}

TEST(MarkovBestTest, LengthAndAlphabetRespected) {
  const std::vector<uint8_t> alphabet = {'q', 'w'};
  const auto transitions = RandomTransitions(8, 32);
  const Bytes best = MarkovBest(transitions, 'S', 'E', 7, alphabet);
  ASSERT_EQ(best.size(), 7u);
  for (uint8_t b : best) {
    EXPECT_TRUE(b == 'q' || b == 'w');
  }
}

}  // namespace
}  // namespace rc4b
