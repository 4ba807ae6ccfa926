// Bayesian plaintext likelihood estimation (Sect. 4.1–4.3 of the paper).
//
// All likelihoods are computed and combined in the log domain for numeric
// stability, as the paper recommends. Conventions:
//   * A "single-byte table" is 256 log-likelihoods lambda_mu.
//   * A "double-byte table" is 65536 log-likelihoods lambda_{mu1,mu2} indexed
//     mu1 * 256 + mu2.
//   * Ciphertext statistics are raw counts: how often each ciphertext byte
//     (or byte pair / differential pair) value was observed.
#ifndef SRC_CORE_LIKELIHOOD_H_
#define SRC_CORE_LIKELIHOOD_H_

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "src/biases/fluhrer_mcgrew.h"

namespace rc4b {

// Floor applied to probabilities before taking logs. A zero-probability cell
// would yield log(0) = -inf, and a zero count times -inf is NaN — which
// silently poisons every lambda it is summed into. The floor plays the same
// role as the +1 Laplace smoothing used when models are estimated from
// counts (src/tkip/tsc_model.cc): it is far below any smoothed probability
// (1 / (N + 256) ≈ 4e-6 even at N = 2^18 keys), so estimated models are
// unaffected and only genuinely degenerate cells are clamped.
inline constexpr double kMinProbability = 1e-12;

// log(max(p, kMinProbability)): finite for every p >= 0.
inline double SafeLog(double p) {
  return std::log(p < kMinProbability ? kMinProbability : p);
}

// Sparse XOR-correlation kernel shared by the likelihood hot loops:
//   lambda[mu] += sum_c weights[c] * log_p[c XOR mu]   for all mu in 0..255.
// The kernel gathers the nonzero (c, weight) pairs once, in ascending c, and
// builds 8 XOR-shifted copies of log_p (shifted[x][i] = log_p[i ^ x]), so
// that for each aligned 8-wide mu block the 8 cells log_p[c ^ mu] are one
// contiguous, branch-free read. Each mu keeps its own accumulator, starting
// at 0 and summed in ascending-c order before it is added into lambda, so
// results are bit-identical to the naive skip-zero loop
// (tests/core/likelihood_test.cc pins this with memcmp). Skipping zero
// weights also keeps a -inf in log_p from turning 0 * -inf into NaN.
//
// On x86 CPUs with AVX2 the kernel runs two mu blocks per pass in 4-wide
// vectors: the same per-mu sums with separate multiplies and adds (no FMA),
// so the bits do not depend on the CPU. Other hosts run
// XorCorrelate256Scalar, which tests also call directly.
void XorCorrelate256(const double* weights, const double* log_p, double* lambda);
void XorCorrelate256Scalar(const double* weights, const double* log_p,
                           double* lambda);

// Elementwise SafeLog() of a probability vector (any size).
std::vector<double> LogProbabilities(std::span<const double> probabilities);

// Single-byte likelihood, formula (11)/(12):
//   lambda_mu = sum_c counts[c] * log_p[c XOR mu].
// `counts[c]` is the number of ciphertexts whose byte at this position is c;
// `log_p` is the (log) keystream distribution at this position.
std::vector<double> SingleByteLogLikelihood(std::span<const uint64_t> counts,
                                            std::span<const double> log_p);

// Dense double-byte likelihood, formula (13): counts and log_p are 65536-cell
// tables indexed c1 * 256 + c2 / k1 * 256 + k2. O(2^32); used for validation.
// Evaluated as 2^16 blocked XorCorrelate256 calls over (mu1, c1) pairs so
// every inner product runs on L1-resident rows.
std::vector<double> DoubleByteLogLikelihoodDense(std::span<const uint64_t> counts,
                                                 std::span<const double> log_p);

// Sparse double-byte likelihood, the optimization of formula (15): all
// keystream pairs share probability `u` except for the `biased_cells`.
// Only O(|biased| * 2^16) work — ~2^19 for the Fluhrer–McGrew set, matching
// the paper's complexity claim.
std::vector<double> DoubleByteLogLikelihoodSparse(std::span<const uint64_t> counts,
                                                  uint64_t total,
                                                  const SparseDigraphModel& model);

// ABSAB differential likelihood, formulas (20)–(24). `diff_counts[d]` counts
// ciphertext differentials with value d (= d1 * 256 + d2); `known` is the
// known plaintext pair (mu'1 * 256 + mu'2); `alpha` = AbsabAlpha(gap).
// Returns a double-byte table over the *unknown* pair (mu1, mu2).
std::vector<double> AbsabLogLikelihood(std::span<const uint64_t> diff_counts,
                                       uint64_t total, uint16_t known, double alpha);

// Combines likelihood estimates from multiple bias types by adding their log
// tables — formula (25). Tables must have equal size.
void CombineInPlace(std::span<double> accumulator, std::span<const double> other);

// argmax index of a table; 0 for an empty table.
size_t ArgMax(std::span<const double> table);

}  // namespace rc4b

#endif  // SRC_CORE_LIKELIHOOD_H_
