#include "src/core/synthetic.h"

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "src/biases/fluhrer_mcgrew.h"
#include "src/biases/mantin.h"
#include "src/core/likelihood.h"
#include "src/rc4/rc4.h"

namespace rc4b {
namespace {

TEST(PoissonTest, ZeroMean) {
  Xoshiro256 rng(1);
  EXPECT_EQ(SamplePoisson(0.0, rng), 0u);
  EXPECT_EQ(SamplePoisson(-1.0, rng), 0u);
}

TEST(PoissonTest, SmallMeanMoments) {
  Xoshiro256 rng(2);
  const double mean = 3.7;
  const int n = 100000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = static_cast<double>(SamplePoisson(mean, rng));
    sum += x;
    sum2 += x * x;
  }
  const double m = sum / n;
  const double var = sum2 / n - m * m;
  EXPECT_NEAR(m, mean, 0.05);
  EXPECT_NEAR(var, mean, 0.1);  // Poisson: variance == mean
}

TEST(PoissonTest, LargeMeanMoments) {
  Xoshiro256 rng(3);
  const double mean = 1e6;  // normal-approximation path
  const int n = 20000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = static_cast<double>(SamplePoisson(mean, rng));
    sum += x;
    sum2 += x * x;
  }
  const double m = sum / n;
  const double var = sum2 / n - m * m;
  EXPECT_NEAR(m, mean, 50.0);
  EXPECT_NEAR(var / mean, 1.0, 0.05);
}

TEST(SampleCountsTest, TotalsNearTrials) {
  Xoshiro256 rng(4);
  std::vector<double> p(1000, 1.0 / 1000.0);
  const uint64_t trials = 1 << 22;
  const auto counts = SampleCounts(p, trials, rng);
  const uint64_t total = std::accumulate(counts.begin(), counts.end(), uint64_t{0});
  // Poissonization: total ~ Poisson(trials), sd ~ 2048.
  EXPECT_NEAR(static_cast<double>(total), static_cast<double>(trials), 6 * 2048.0);
}

TEST(SampleCountsTest, BiasedCellElevated) {
  Xoshiro256 rng(5);
  std::vector<double> p(256, (1.0 - 0.02) / 255.0);
  p[9] = 0.02;  // ~5x uniform
  const auto counts = SampleCounts(p, 1 << 20, rng);
  const double expected = 0.02 * (1 << 20);
  EXPECT_NEAR(static_cast<double>(counts[9]), expected, 6 * std::sqrt(expected));
}

TEST(SampleCountsTest, CiphertextPairCountsAreXorShiftedKeystreamDraws) {
  // Same generator state, same draws: the ciphertext counts are exactly the
  // keystream counts SampleCounts would draw, moved to (k1 ^ p1, k2 ^ p2).
  Xoshiro256 table_rng(30);
  std::vector<double> p(65536);
  double sum = 0.0;
  for (double& v : p) {
    v = table_rng.UnitDouble() + 0.01;
    sum += v;
  }
  for (double& v : p) {
    v /= sum;
  }
  for (const uint64_t trials : {uint64_t{1} << 12, uint64_t{1} << 30}) {
    const uint8_t p1 = 0x5a, p2 = 0xc3;
    Xoshiro256 a(31), b(31);
    const auto keystream = SampleCounts(p, trials, a);
    const auto ciphertext = SampleCiphertextPairCounts(p, p1, p2, trials, b);
    ASSERT_EQ(ciphertext.size(), 65536u);
    for (size_t k = 0; k < 65536; ++k) {
      const size_t c = ((k >> 8) ^ p1) * 256 + ((k & 0xff) ^ p2);
      ASSERT_EQ(ciphertext[c], keystream[k]) << "trials " << trials << " k " << k;
    }
    EXPECT_EQ(a(), b()) << "the two samplers drew different amounts";
  }
}

// The sampler must agree with exact real-RC4 simulation: compare the
// distribution of FM-digraph ciphertext counts from (a) real RC4 long-term
// keystream and (b) the synthetic sampler, via their likelihood decisions.
TEST(EmpiricalGridTest, ProbabilitiesNormalizeGridRow) {
  DigraphGrid grid(1);
  grid.Add(0, 3, 7, 60);
  grid.Add(0, 200, 1, 40);
  grid.AddKeys(100);
  const auto probs = EmpiricalPairProbabilities(grid, 0);
  ASSERT_EQ(probs.size(), 65536u);
  EXPECT_DOUBLE_EQ(probs[static_cast<size_t>(3) * 256 + 7], 0.6);
  EXPECT_DOUBLE_EQ(probs[static_cast<size_t>(200) * 256 + 1], 0.4);
  EXPECT_DOUBLE_EQ(std::accumulate(probs.begin(), probs.end(), 0.0), 1.0);
}

TEST(EmpiricalGridTest, CiphertextCountsFollowXorShiftedGridRow) {
  // All keystream mass on (k1, k2) = (3, 7): every sampled ciphertext count
  // must land on (3 ^ p1, 7 ^ p2).
  DigraphGrid grid(1);
  grid.Add(0, 3, 7, 1000);
  grid.AddKeys(1000);
  Xoshiro256 rng(29);
  const uint8_t p1 = 0x41, p2 = 0x42;
  const auto counts = SampleCiphertextPairCountsFromGrid(grid, 0, p1, p2, 10000, rng);
  ASSERT_EQ(counts.size(), 65536u);
  const size_t target = static_cast<size_t>(3 ^ p1) * 256 + (7 ^ p2);
  EXPECT_GT(counts[target], 9000u);
  for (size_t cell = 0; cell < counts.size(); ++cell) {
    if (cell != target) {
      ASSERT_EQ(counts[cell], 0u) << "cell " << cell;
    }
  }
}

TEST(SyntheticVsExactTest, FmCountsMatchRealRc4Statistics) {
  const uint8_t p1 = 0x11, p2 = 0x22;
  // Real side: collect digraph counts at a fixed counter i across keystream
  // blocks (i = 5, positions 256w + 5).
  Xoshiro256 seed_rng(6);
  std::vector<uint64_t> real_counts(65536, 0);
  uint64_t real_total = 0;
  Bytes key(16);
  seed_rng.Fill(key);
  Rc4 rc4(key);
  rc4.Skip(1024);
  rc4.Skip(4);  // next byte is position 1029 => counter i = 5
  std::vector<uint8_t> pair(2);
  for (int w = 0; w < (1 << 16); ++w) {
    rc4.Keystream(pair);
    real_counts[static_cast<size_t>(pair[0] ^ p1) * 256 + (pair[1] ^ p2)] += 1;
    ++real_total;
    rc4.Skip(254);  // realign to the same counter
  }
  // Synthetic side with the same number of trials.
  Xoshiro256 rng(7);
  const auto table = FmDigraphTable(5, 1 << 20);
  const auto synth_counts = SampleCiphertextPairCounts(table, p1, p2, real_total, rng);

  // Compare aggregate statistics: mean and spread of cell counts.
  const double expected_cell = static_cast<double>(real_total) / 65536.0;
  auto stats = [&](const std::vector<uint64_t>& counts) {
    double sum = 0.0, sum2 = 0.0;
    for (uint64_t c : counts) {
      sum += static_cast<double>(c);
      sum2 += static_cast<double>(c) * static_cast<double>(c);
    }
    const double mean = sum / 65536.0;
    return std::pair<double, double>(mean, sum2 / 65536.0 - mean * mean);
  };
  const auto [real_mean, real_var] = stats(real_counts);
  const auto [synth_mean, synth_var] = stats(synth_counts);
  EXPECT_NEAR(real_mean, expected_cell, 0.2);
  EXPECT_NEAR(synth_mean, expected_cell, 0.2);
  // Both should be approximately Poisson-dispersed (variance ~ mean).
  EXPECT_NEAR(real_var / real_mean, 1.0, 0.1);
  EXPECT_NEAR(synth_var / synth_mean, 1.0, 0.1);
}

TEST(AbsabScoreTableTest, TruthCellElevatedOnAverage) {
  // With many gaps and enough trials, the true differential's aggregated
  // score must exceed the null mean most of the time.
  std::vector<double> alphas;
  for (uint64_t g = 0; g <= 128; ++g) {
    alphas.push_back(AbsabAlpha(g));
    alphas.push_back(AbsabAlpha(g));  // both directions
  }
  Xoshiro256 rng(8);
  const uint16_t truth = 0xbeef;
  int truth_wins = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    const auto table = SampleAbsabScoreTable(alphas, uint64_t{1} << 34, truth, rng);
    truth_wins += ArgMax(table) == truth ? 1 : 0;
  }
  // 2^34 ciphertexts with 258 ABSAB estimates: Fig. 7 shows ~100% recovery.
  EXPECT_GE(truth_wins, 27);
}

TEST(AbsabScoreTableTest, SmallTrialsUsePoissonPathAndStayFinite) {
  std::vector<double> alphas = {AbsabAlpha(0), AbsabAlpha(1)};
  Xoshiro256 rng(9);
  const auto table = SampleAbsabScoreTable(alphas, 1 << 16, 0x0102, rng);
  ASSERT_EQ(table.size(), 65536u);
  for (double v : table) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);  // scores are sums of non-negative weighted counts
  }
}

TEST(AbsabScoreTableTest, NullCellsHaveExpectedMoments) {
  std::vector<double> alphas = {AbsabAlpha(3)};
  const double alpha = alphas[0];
  const uint64_t trials = uint64_t{1} << 30;
  const double w = AbsabLogOdds(3);
  const double null_mean = w * static_cast<double>(trials) * (1.0 - alpha) / 65535.0;

  Xoshiro256 rng(10);
  const auto table = SampleAbsabScoreTable(alphas, trials, 0, rng);
  double sum = 0.0;
  for (size_t d = 1; d < 65536; ++d) {
    sum += table[d];
  }
  const double mean = sum / 65535.0;
  EXPECT_NEAR(mean / null_mean, 1.0, 0.001);
}

}  // namespace
}  // namespace rc4b
