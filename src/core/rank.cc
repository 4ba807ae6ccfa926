#include "src/core/rank.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>

namespace rc4b {

namespace {

// Chooses the score quantum so the truth's deficit from the per-position
// maxima sits near the middle of the tracked bin range.
double ChooseQuantum(double deficit, size_t bins) {
  const double usable = static_cast<double>(bins) * 0.45;
  return std::max(deficit / usable, 1e-9);
}

}  // namespace

double AddRepeated(double acc, double d, uint64_t count) {
  assert(acc >= 0.0 && d >= 0.0);
  constexpr uint64_t kMantissa = (uint64_t{1} << 52) - 1;
  while (count > 0) {
    const double next = acc + d;
    --count;
    if (next == acc) {
      return acc;  // the state did not change, so no later addition does
    }
    // Both in one binade (same biased exponent, normal, finite): the step
    // from acc to next, in ulps, is the step every later addition takes
    // while the sum stays in the binade. It can differ only when d is an
    // odd multiple of half an ulp (a tie) and the mantissa is odd; ties
    // round to even, so from an even mantissa the step is again fixed.
    const uint64_t a = std::bit_cast<uint64_t>(acc);
    const uint64_t n = std::bit_cast<uint64_t>(next);
    const uint64_t exp = n >> 52;
    if (count > 0 && a >> 52 == exp && exp != 0 && exp != 0x7ff) {
      const uint64_t db = std::bit_cast<uint64_t>(d);
      const uint64_t d_exp = std::max<uint64_t>(db >> 52, 1);
      const uint64_t d_man = (db & kMantissa) | (db >> 52 != 0 ? kMantissa + 1 : 0);
      // d's lowest set bit is 2^(d_exp - 1075 + ctz), half an ulp of next
      // is 2^(exp - 1076).
      const bool tie =
          d_exp + static_cast<uint64_t>(std::countr_zero(d_man)) + 1 == exp;
      if (!tie || (a & 1) == 0) {
        const uint64_t step = n - a;
        const uint64_t k = std::min(count, ((n | kMantissa) - n) / step);
        acc = std::bit_cast<double>(n + k * step);
        count -= k;
        continue;
      }
    }
    acc = next;
  }
  return acc;
}

RankBracket IndependentRank(const SingleByteTables& tables,
                            std::span<const uint8_t> truth, size_t bins) {
  const size_t length = tables.size();
  assert(truth.size() == length);

  double best_sum = 0.0;
  double truth_sum = 0.0;
  for (size_t r = 0; r < length; ++r) {
    best_sum += *std::max_element(tables[r].begin(), tables[r].end());
    truth_sum += tables[r][truth[r]];
  }
  const double quantum = ChooseQuantum(best_sum - truth_sum, bins);

  // dist[b] = number of prefixes whose score deficit from the running best is
  // in [b * quantum, (b + 1) * quantum). Index `bins` is a sticky overflow
  // bucket for candidates too unlikely to matter. The truth's bin is computed
  // through the same per-position floor pipeline so quantization error
  // affects truth and competitors identically.
  std::vector<double> dist(bins + 1, 0.0);
  dist[0] = 1.0;
  std::vector<double> next(bins + 1, 0.0);
  size_t truth_bin = 0;
  // dist[b] == 0 for every b in [hi, bins); the row maximum has offset 0,
  // so hi never shrinks.
  size_t hi = 1;
  for (size_t r = 0; r < length; ++r) {
    const double row_max = *std::max_element(tables[r].begin(), tables[r].end());
    // Per-value deficits in quanta, largest first.
    std::array<size_t, 256> offsets;
    for (size_t v = 0; v < 256; ++v) {
      const double deficit = (row_max - tables[r][v]) / quantum;
      offsets[v] = deficit >= static_cast<double>(bins)
                       ? bins
                       : static_cast<size_t>(deficit);
    }
    truth_bin = std::min(truth_bin + offsets[truth[r]], bins);
    std::sort(offsets.begin(), offsets.end(), std::greater<>());
    // The convolution next[min(b + off, bins)] += dist[b] over all (b, v),
    // summed per target bin in the order of the b-major loop: ascending b,
    // one term per v. For a target nb < bins the terms come from
    // b = nb - off, so visiting the offsets in descending order feeds every
    // bin in ascending b; equal offsets add the equal value dist[b] back to
    // back. Each offset is then one contiguous shifted add of the live
    // prefix, and the bits match the b-major loop.
    std::fill(next.begin(), next.end(), 0.0);
    const double* src = dist.data();
    size_t next_hi = 0;
    for (const size_t off : offsets) {
      if (off >= bins) {
        continue;
      }
      const size_t end = std::min(hi, bins - off);
      double* dst = next.data() + off;
      for (size_t b = 0; b < end; ++b) {
        dst[b] += src[b];
      }
      next_hi = std::max(next_hi, off + end);
    }
    // The sticky overflow bin in the b-major order: for ascending b, dist[b]
    // once per value with b + off >= bins, then the old overflow bin times
    // 256.
    // AddRepeated makes each run of equal additions cost O(binades crossed).
    double overflow = 0.0;
    size_t spilled = 0;  // offsets >= bins - b
    for (size_t b = 0; b < hi; ++b) {
      while (spilled < 256 && offsets[spilled] >= bins - b) {
        ++spilled;
      }
      overflow = AddRepeated(overflow, dist[b], spilled);
    }
    next[bins] = overflow + dist[bins] * 256.0;
    hi = next_hi;
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

RankBracket MarkovRank(const DoubleByteTables& transitions, uint8_t m1,
                       uint8_t m_last, std::span<const uint8_t> truth,
                       std::span<const uint8_t> alphabet, size_t bins) {
  const size_t inner = truth.size();
  assert(transitions.size() == inner + 1);
  assert(!alphabet.empty());
  const size_t a_size = alphabet.size();

  // Truth score and an upper bound on the best path score (sum of per-
  // transition maxima over the alphabet — not necessarily attainable, which
  // only costs some bin headroom).
  double truth_sum = transitions[0][static_cast<size_t>(m1) * 256 + truth[0]];
  for (size_t t = 1; t < inner; ++t) {
    truth_sum += transitions[t][static_cast<size_t>(truth[t - 1]) * 256 + truth[t]];
  }
  truth_sum += transitions[inner][static_cast<size_t>(truth[inner - 1]) * 256 + m_last];

  double best_sum = 0.0;
  for (size_t t = 0; t <= inner; ++t) {
    double m = -std::numeric_limits<double>::infinity();
    for (size_t ui = 0; ui < a_size; ++ui) {
      const size_t u = (t == 0) ? m1 : alphabet[ui];
      for (size_t vi = 0; vi < a_size; ++vi) {
        const size_t v = (t == inner) ? m_last : alphabet[vi];
        m = std::max(m, transitions[t][u * 256 + v]);
        if (t == inner) {
          break;  // only one end value
        }
      }
      if (t == 0) {
        break;  // only one start value
      }
    }
    best_sum += m;
  }
  const double quantum = ChooseQuantum(best_sum - truth_sum, bins);

  // dist[vi][b]: number of paths ending in alphabet[vi] whose deficit from
  // the running per-transition maxima is bin b. The truth's bin accumulates
  // through the same per-transition floor pipeline as the DP.
  const size_t width = bins + 1;
  std::vector<double> dist(a_size * width, 0.0);
  std::vector<double> next(a_size * width, 0.0);
  size_t truth_bin = 0;
  const auto quantize = [&](double deficit_units) {
    return deficit_units >= static_cast<double>(bins)
               ? bins
               : static_cast<size_t>(deficit_units);
  };
  {
    double m = -std::numeric_limits<double>::infinity();
    for (size_t vi = 0; vi < a_size; ++vi) {
      m = std::max(m, transitions[0][static_cast<size_t>(m1) * 256 + alphabet[vi]]);
    }
    truth_bin = std::min(
        truth_bin +
            quantize((m - transitions[0][static_cast<size_t>(m1) * 256 + truth[0]]) /
                     quantum),
        bins);
    for (size_t vi = 0; vi < a_size; ++vi) {
      const double deficit =
          (m - transitions[0][static_cast<size_t>(m1) * 256 + alphabet[vi]]) / quantum;
      dist[vi * width + quantize(deficit)] += 1.0;
    }
  }

  for (size_t t = 1; t < inner; ++t) {
    double m = -std::numeric_limits<double>::infinity();
    for (size_t ui = 0; ui < a_size; ++ui) {
      for (size_t vi = 0; vi < a_size; ++vi) {
        m = std::max(m, transitions[t][static_cast<size_t>(alphabet[ui]) * 256 +
                                       alphabet[vi]]);
      }
    }
    truth_bin = std::min(
        truth_bin + quantize((m - transitions[t][static_cast<size_t>(truth[t - 1]) *
                                                     256 +
                                                 truth[t]]) /
                             quantum),
        bins);
    std::fill(next.begin(), next.end(), 0.0);
    for (size_t ui = 0; ui < a_size; ++ui) {
      for (size_t vi = 0; vi < a_size; ++vi) {
        const double deficit =
            (m - transitions[t][static_cast<size_t>(alphabet[ui]) * 256 +
                                alphabet[vi]]) /
            quantum;
        const size_t off = quantize(deficit);
        const double* src = dist.data() + ui * width;
        double* dst = next.data() + vi * width;
        for (size_t b = 0; b <= bins; ++b) {
          if (src[b] != 0.0) {
            dst[std::min(b + off, bins)] += src[b];
          }
        }
      }
    }
    dist.swap(next);
  }

  // Final transition into m_last.
  {
    double m = -std::numeric_limits<double>::infinity();
    for (size_t ui = 0; ui < a_size; ++ui) {
      m = std::max(m, transitions[inner][static_cast<size_t>(alphabet[ui]) * 256 +
                                         m_last]);
    }
    truth_bin = std::min(
        truth_bin +
            quantize((m - transitions[inner][static_cast<size_t>(truth[inner - 1]) *
                                                 256 +
                                             m_last]) /
                     quantum),
        bins);
    std::fill(next.begin(), next.begin() + width, 0.0);
    for (size_t ui = 0; ui < a_size; ++ui) {
      const double deficit =
          (m - transitions[inner][static_cast<size_t>(alphabet[ui]) * 256 + m_last]) /
          quantum;
      const size_t off = quantize(deficit);
      const double* src = dist.data() + ui * width;
      for (size_t b = 0; b <= bins; ++b) {
        if (src[b] != 0.0) {
          next[std::min(b + off, bins)] += src[b];
        }
      }
    }
  }
  RankBracket bracket;
  for (size_t b = 0; b < truth_bin; ++b) {
    bracket.lower += next[b];
  }
  bracket.upper = bracket.lower + next[truth_bin] - 1.0;
  bracket.upper = std::max(bracket.upper, bracket.lower);
  return bracket;
}

Bytes MarkovBest(const DoubleByteTables& transitions, uint8_t m1, uint8_t m_last,
                 size_t inner_length, std::span<const uint8_t> alphabet) {
  assert(transitions.size() == inner_length + 1);
  const size_t a_size = alphabet.size();
  std::vector<std::vector<uint32_t>> backptr(inner_length,
                                             std::vector<uint32_t>(a_size, 0));
  std::vector<double> score(a_size);
  for (size_t vi = 0; vi < a_size; ++vi) {
    score[vi] = transitions[0][static_cast<size_t>(m1) * 256 + alphabet[vi]];
  }
  std::vector<double> next_score(a_size);
  for (size_t t = 1; t < inner_length; ++t) {
    for (size_t vi = 0; vi < a_size; ++vi) {
      double best = -std::numeric_limits<double>::infinity();
      uint32_t arg = 0;
      for (size_t ui = 0; ui < a_size; ++ui) {
        const double s = score[ui] + transitions[t][static_cast<size_t>(alphabet[ui]) *
                                                        256 +
                                                    alphabet[vi]];
        if (s > best) {
          best = s;
          arg = static_cast<uint32_t>(ui);
        }
      }
      next_score[vi] = best;
      backptr[t][vi] = arg;
    }
    score.swap(next_score);
  }
  double best = -std::numeric_limits<double>::infinity();
  uint32_t arg = 0;
  for (size_t ui = 0; ui < a_size; ++ui) {
    const double s = score[ui] + transitions[inner_length]
                                     [static_cast<size_t>(alphabet[ui]) * 256 + m_last];
    if (s > best) {
      best = s;
      arg = static_cast<uint32_t>(ui);
    }
  }
  Bytes out(inner_length);
  uint32_t vi = arg;
  for (size_t t = inner_length; t-- > 0;) {
    out[t] = alphabet[vi];
    if (t > 0) {
      vi = backptr[t][vi];
    }
  }
  return out;
}

}  // namespace rc4b
