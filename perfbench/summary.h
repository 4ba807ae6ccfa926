// Summary math of the rc4b benchmark: percentiles, quartiles, the
// failed-share base and span self time. Header-only so summary_test.cc pins
// exactly what rc4b_perfbench computes.
#ifndef PERFBENCH_SUMMARY_H_
#define PERFBENCH_SUMMARY_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

// Value at percentile `p` (0..100) of `samples`, interpolating linearly
// between the two closest ranks (rank = p/100 * (n - 1)). Empty input is a
// caller bug: a metric must never be summarised from no samples.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    throw std::invalid_argument("Percentile of an empty sample");
  }
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

// The tail percentile a timing may be reported at: the highest of 50, 75,
// 90, 95, 99, 99.9 that leaves at least `min_beyond` samples strictly
// above its rank, i.e. n * (1 - p/100) >= min_beyond. Returns 0 when not
// even the median qualifies (fewer than 2 * min_beyond samples).
inline double HighestSupportedPercentile(size_t n, size_t min_beyond = 10) {
  constexpr std::array<double, 6> kLadder = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (const double p : kLadder) {
    // Integer form of n * (1 - p/100) >= min_beyond, exact for the ladder.
    const double beyond = static_cast<double>(n) * (100.0 - p);
    if (beyond + 1e-9 >= static_cast<double>(min_beyond) * 100.0) {
      return p;
    }
  }
  return 0.0;
}

// Quartiles exactly as Python's statistics.quantiles(samples, n=4) gives
// them (the default "exclusive" method, which extrapolates linearly past
// the outermost samples). Needs at least two samples.
inline std::pair<double, double> Quartiles(std::vector<double> samples) {
  if (samples.size() < 2) {
    throw std::invalid_argument("Quartiles need at least two samples");
  }
  std::sort(samples.begin(), samples.end());
  const long ld = static_cast<long>(samples.size());
  const long m = ld + 1;
  const auto at = [&](long i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const double delta = static_cast<double>(i * m - j * 4);
    return (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0;
  };
  return {at(1), at(3)};
}

// Failed share: failures over attempted operations. Every operation the
// benchmark checks counts once in the base, whether it passed or not, so
// the share is well defined only when something was attempted.
inline double FailedShare(uint64_t failed, uint64_t attempted) {
  if (attempted == 0 || failed > attempted) {
    throw std::invalid_argument("failed share needs 0 <= failed <= attempted > 0");
  }
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

// One finished span: [start_ns, end_ns) on a steady clock, with the id of
// the span that caused it (kNoParent for roots).
struct SpanRecord {
  static constexpr uint32_t kNoParent = 0;
  const char* name = "";
  uint32_t id = 0;  // 1-based; 0 is reserved for "no parent"
  uint32_t parent = kNoParent;
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Self time of every span: its duration minus the part of its interval
// that its direct children cover. Children may nest (their own children
// are theirs to subtract) and may overlap one another — parallel children
// on several threads — so the covered part is the length of the union of
// the children's intervals, clipped to the parent. Returns id -> self ns.
inline std::unordered_map<uint32_t, int64_t> SelfTimes(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint32_t, std::vector<std::pair<int64_t, int64_t>>> kids;
  for (const SpanRecord& s : spans) {
    if (s.parent != SpanRecord::kNoParent) {
      kids[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::unordered_map<uint32_t, int64_t> self;
  for (const SpanRecord& s : spans) {
    int64_t covered = 0;
    if (auto it = kids.find(s.id); it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0;
      int64_t cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) {
          continue;
        }
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) {
          covered += cur_hi - cur_lo;
        }
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) {
        covered += cur_hi - cur_lo;
      }
    }
    self[s.id] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

}  // namespace perfbench

#endif  // PERFBENCH_SUMMARY_H_
