// Candidate-rank computation.
//
// The paper's Fig. 8–10 evaluate success rates with candidate lists of up to
// ~2^30 entries. Materializing such lists is infeasible (tens of GB), but the
// success criterion only needs the *rank* of the true plaintext: the number
// of candidates with strictly higher likelihood. Because likelihood scores
// are sums of per-position (or per-transition) terms, ranks can be counted
// exactly with a histogram-convolution dynamic program over quantized scores.
//
// Quantization gives a [lower, upper] bracket on the rank: candidates whose
// quantized score ties the truth's bin are counted in `upper` only. Bin width
// adapts to the distance between the best possible score and the truth.
#ifndef SRC_CORE_RANK_H_
#define SRC_CORE_RANK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/candidates.h"

namespace rc4b {

struct RankBracket {
  double lower = 0.0;  // count with score strictly above the truth's bin
  double upper = 0.0;  // plus candidates tying the truth's bin
  // Midpoint estimate used by the benchmarks.
  double estimate() const { return 0.5 * (lower + upper); }
};

// The double that `count` successive additions `acc += d` leave, bit for
// bit, for acc >= 0 and d >= 0; in O(binades crossed) steps rather than
// O(count): inside one binade every addition adds the same number of ulps,
// so a run of them is one exact integer step on the mantissa.
double AddRepeated(double acc, double d, uint64_t count);

// Rank of `truth` among all 256^L sequences under independent per-position
// scores. `bins` trades accuracy for time (default suits 12-byte TKIP runs).
RankBracket IndependentRank(const SingleByteTables& tables,
                            std::span<const uint8_t> truth, size_t bins = 1 << 14);

// Rank of the inner plaintext `truth` among all |alphabet|^L sequences under
// Markov transition scores with known boundary bytes (Algorithm 2's model).
// `transitions` has |truth| + 1 tables (m1 -> P_0, ..., P_last -> m_last).
RankBracket MarkovRank(const DoubleByteTables& transitions, uint8_t m1,
                       uint8_t m_last, std::span<const uint8_t> truth,
                       std::span<const uint8_t> alphabet, size_t bins = 1 << 12);

// Viterbi: the single most likely inner plaintext under the same model.
Bytes MarkovBest(const DoubleByteTables& transitions, uint8_t m1, uint8_t m_last,
                 size_t inner_length, std::span<const uint8_t> alphabet);

}  // namespace rc4b

#endif  // SRC_CORE_RANK_H_
