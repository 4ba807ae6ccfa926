#include "src/core/likelihood.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace rc4b {

namespace {

// The nonzero (c, w) pairs in ascending c: zero cells contribute nothing,
// and skipping them keeps a -inf log_p cell from turning 0 * -inf into NaN.
size_t GatherNonzero(const double* weights, uint8_t* cs, double* ws) {
  size_t nonzero = 0;
  for (size_t c = 0; c < 256; ++c) {
    if (weights[c] != 0.0) {
      cs[nonzero] = static_cast<uint8_t>(c);
      ws[nonzero] = weights[c];
      ++nonzero;
    }
  }
  return nonzero;
}

// shifted[x][i] = log_p[i ^ x]. For an 8-aligned mu block blk, the cells
// log_p[c ^ (blk + k)], k = 0..7, are the contiguous run
// shifted[c & 7][((c & ~7) ^ blk) + k].
void BuildShifted(const double* log_p, double (*shifted)[256]) {
  for (size_t x = 0; x < 8; ++x) {
    for (size_t i = 0; i < 256; ++i) {
      shifted[x][i] = log_p[i ^ x];
    }
  }
}

#if defined(__x86_64__) || defined(__i386__)

// Compiled for AVX2 through the function attribute alone, so this file needs
// no ISA flag; only called after the CPU check in CpuHasAvx2(). The target
// string must not name "fma": gcc would then contract the separate multiply
// and add below into one rounding, and the tables would change bits.
__attribute__((target("avx2"))) void XorCorrelate256Avx2(const double* weights,
                                                         const double* log_p,
                                                         double* lambda) {
  uint8_t cs[256] = {};
  double ws[256] = {};
  const size_t nonzero = GatherNonzero(weights, cs, ws);
  alignas(64) double shifted[8][256];
  BuildShifted(log_p, shifted);
  // Two 8-wide mu blocks per pass over the nonzero list, one ymm accumulator
  // per 4 mu; each lane is the scalar kernel's per-mu sum, in the same
  // ascending-c order and with the same separate roundings.
  for (size_t blk = 0; blk < 256; blk += 16) {
    __m256d s0 = _mm256_setzero_pd();
    __m256d s1 = _mm256_setzero_pd();
    __m256d s2 = _mm256_setzero_pd();
    __m256d s3 = _mm256_setzero_pd();
    for (size_t j = 0; j < nonzero; ++j) {
      const __m256d w = _mm256_set1_pd(ws[j]);
      const double* base = shifted[cs[j] & 7];
      const size_t hi = cs[j] & ~size_t{7};
      const double* row0 = base + (hi ^ blk);
      const double* row1 = base + (hi ^ (blk + 8));
      s0 = _mm256_add_pd(s0, _mm256_mul_pd(w, _mm256_load_pd(row0)));
      s1 = _mm256_add_pd(s1, _mm256_mul_pd(w, _mm256_load_pd(row0 + 4)));
      s2 = _mm256_add_pd(s2, _mm256_mul_pd(w, _mm256_load_pd(row1)));
      s3 = _mm256_add_pd(s3, _mm256_mul_pd(w, _mm256_load_pd(row1 + 4)));
    }
    double* out = lambda + blk;
    _mm256_storeu_pd(out, _mm256_add_pd(_mm256_loadu_pd(out), s0));
    _mm256_storeu_pd(out + 4, _mm256_add_pd(_mm256_loadu_pd(out + 4), s1));
    _mm256_storeu_pd(out + 8, _mm256_add_pd(_mm256_loadu_pd(out + 8), s2));
    _mm256_storeu_pd(out + 12, _mm256_add_pd(_mm256_loadu_pd(out + 12), s3));
  }
}

bool CpuHasAvx2() {
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
}

#endif

}  // namespace

void XorCorrelate256Scalar(const double* weights, const double* log_p,
                           double* lambda) {
  uint8_t cs[256] = {};
  double ws[256] = {};
  const size_t nonzero = GatherNonzero(weights, cs, ws);
  alignas(64) double shifted[8][256];
  BuildShifted(log_p, shifted);
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

void XorCorrelate256(const double* weights, const double* log_p, double* lambda) {
#if defined(__x86_64__) || defined(__i386__)
  if (CpuHasAvx2()) {
    XorCorrelate256Avx2(weights, log_p, lambda);
    return;
  }
#endif
  XorCorrelate256Scalar(weights, log_p, lambda);
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
