#include "src/core/likelihood.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rc4b {

void XorCorrelate256(const double* weights, const double* log_p, double* lambda) {
  // The nonzero (c, w) pairs in ascending c: zero cells contribute nothing,
  // and skipping them keeps a -inf log_p cell from turning 0 * -inf into NaN.
  uint8_t cs[256] = {};
  double ws[256] = {};
  size_t nonzero = 0;
  for (size_t c = 0; c < 256; ++c) {
    if (weights[c] != 0.0) {
      cs[nonzero] = static_cast<uint8_t>(c);
      ws[nonzero] = weights[c];
      ++nonzero;
    }
  }
  // shifted[x][i] = log_p[i ^ x]. For an 8-aligned mu block blk, the cells
  // log_p[c ^ (blk + k)], k = 0..7, are the contiguous run
  // shifted[c & 7][((c & ~7) ^ blk) + k].
  alignas(64) double shifted[8][256];
  for (size_t x = 0; x < 8; ++x) {
    for (size_t i = 0; i < 256; ++i) {
      shifted[x][i] = log_p[i ^ x];
    }
  }
  for (size_t blk = 0; blk < 256; blk += 8) {
    // One accumulator per mu, summed in ascending c: the naive loop's order.
    double s[8] = {};
    for (size_t j = 0; j < nonzero; ++j) {
      const double w = ws[j];
      const double* row = shifted[cs[j] & 7] + ((cs[j] & ~size_t{7}) ^ blk);
      for (size_t k = 0; k < 8; ++k) {
        s[k] += w * row[k];
      }
    }
    for (size_t k = 0; k < 8; ++k) {
      lambda[blk + k] += s[k];
    }
  }
}

std::vector<double> LogProbabilities(std::span<const double> probabilities) {
  std::vector<double> out(probabilities.size());
  for (size_t i = 0; i < probabilities.size(); ++i) {
    out[i] = SafeLog(probabilities[i]);
  }
  return out;
}

std::vector<double> SingleByteLogLikelihood(std::span<const uint64_t> counts,
                                            std::span<const double> log_p) {
  assert(counts.size() == 256 && log_p.size() == 256);
  double weights[256];
  for (size_t c = 0; c < 256; ++c) {
    weights[c] = static_cast<double>(counts[c]);
  }
  std::vector<double> lambda(256, 0.0);
  XorCorrelate256(weights, log_p.data(), lambda.data());
  return lambda;
}

std::vector<double> DoubleByteLogLikelihoodDense(std::span<const uint64_t> counts,
                                                 std::span<const double> log_p) {
  assert(counts.size() == 65536 && log_p.size() == 65536);
  // Convert the counts once; the kernel then reads double rows directly.
  std::vector<double> weights(65536);
  for (size_t i = 0; i < 65536; ++i) {
    weights[i] = static_cast<double>(counts[i]);
  }
  std::vector<double> lambda(65536, 0.0);
  for (size_t mu1 = 0; mu1 < 256; ++mu1) {
    double* lambda_row = lambda.data() + mu1 * 256;
    for (size_t c1 = 0; c1 < 256; ++c1) {
      // lambda[mu1][mu2] += sum_c2 counts[c1][c2] * log_p[c1 ^ mu1][c2 ^ mu2]:
      // one 2 KiB x 2 KiB blocked inner product per (mu1, c1) pair.
      XorCorrelate256(weights.data() + c1 * 256,
                      log_p.data() + (c1 ^ mu1) * 256, lambda_row);
    }
  }
  return lambda;
}

std::vector<double> DoubleByteLogLikelihoodSparse(std::span<const uint64_t> counts,
                                                  uint64_t total,
                                                  const SparseDigraphModel& model) {
  assert(counts.size() == 65536);
  const double log_u = SafeLog(model.unbiased_probability);
  // lambda_mu = total * log(u) + sum over biased keystream cells k of
  //   counts[k XOR mu] * (log p_k - log u),
  // since the induced keystream count for cell k under plaintext mu is the
  // ciphertext count at k XOR mu (componentwise on both bytes).
  std::vector<double> lambda(65536, static_cast<double>(total) * log_u);
  for (const auto& [cell, p] : model.biased_cells) {
    const double delta = SafeLog(p) - log_u;
    const size_t k1 = cell >> 8;
    const size_t k2 = cell & 0xff;
    for (size_t mu1 = 0; mu1 < 256; ++mu1) {
      const size_t c1 = k1 ^ mu1;
      double* lambda_row = lambda.data() + mu1 * 256;
      const uint64_t* count_row = counts.data() + c1 * 256;
      for (size_t mu2 = 0; mu2 < 256; ++mu2) {
        lambda_row[mu2] += delta * static_cast<double>(count_row[k2 ^ mu2]);
      }
    }
  }
  return lambda;
}

std::vector<double> AbsabLogLikelihood(std::span<const uint64_t> diff_counts,
                                       uint64_t total, uint16_t known, double alpha) {
  assert(diff_counts.size() == 65536);
  const double log_alpha = SafeLog(alpha);
  const double log_other = SafeLog((1.0 - alpha) / 65535.0);
  // Formula (22) in log form, with the uniform-cell part absorbed:
  //   log lambda_dhat = N_dhat * log(alpha) + (total - N_dhat) * log_other
  // and formula (24): the table over (mu1, mu2) reads the differential
  // dhat = (mu1, mu2) XOR known.
  std::vector<double> lambda(65536);
  const size_t known1 = known >> 8;
  const size_t known2 = known & 0xff;
  for (size_t mu1 = 0; mu1 < 256; ++mu1) {
    const size_t d1 = mu1 ^ known1;
    for (size_t mu2 = 0; mu2 < 256; ++mu2) {
      const size_t d2 = mu2 ^ known2;
      const double n = static_cast<double>(diff_counts[d1 * 256 + d2]);
      lambda[mu1 * 256 + mu2] =
          n * log_alpha + (static_cast<double>(total) - n) * log_other;
    }
  }
  return lambda;
}

void CombineInPlace(std::span<double> accumulator, std::span<const double> other) {
  assert(accumulator.size() == other.size());
  for (size_t i = 0; i < accumulator.size(); ++i) {
    accumulator[i] += other[i];
  }
}

size_t ArgMax(std::span<const double> table) {
  if (table.empty()) {
    return 0;
  }
  return static_cast<size_t>(
      std::max_element(table.begin(), table.end()) - table.begin());
}

}  // namespace rc4b
