// Plaintext candidate lists in decreasing likelihood (Sect. 4.4).
//
// Three generators are provided:
//   * Algorithm 1 of the paper: incremental N-best over single-byte
//     likelihoods, length by length.
//   * A lazy best-first enumerator over single-byte likelihoods. It yields
//     candidates one at a time in exactly the same order, with memory
//     proportional to the number of candidates popped — this is what the
//     TKIP attack uses to traverse a huge candidate space until a CRC match.
//   * Algorithm 2 of the paper: an N-best list-Viterbi decoder over
//     double-byte (Markov / HMM transition) likelihoods with known first and
//     last bytes and an optional restricted plaintext alphabet (the cookie
//     character-set optimization of Sect. 6.2). It is evaluated lazily, so a
//     traversal that stops at rank k extends each list to at most k + 1
//     entries, whatever the candidate budget.
#ifndef SRC_CORE_CANDIDATES_H_
#define SRC_CORE_CANDIDATES_H_

#include <cstdint>
#include <queue>
#include <span>
#include <vector>

#include "src/common/bytes.h"

namespace rc4b {

struct Candidate {
  Bytes plaintext;
  double log_likelihood = 0.0;
};

// Per-position single-byte log-likelihood tables: likelihoods[r][mu] for
// 0 <= r < L, 0 <= mu < 256.
using SingleByteTables = std::vector<std::vector<double>>;

// Algorithm 1: the N most likely plaintexts of length likelihoods.size().
std::vector<Candidate> GenerateCandidatesSingle(const SingleByteTables& likelihoods,
                                                size_t n);

// Lazy best-first enumeration of the same ordering.
class LazyCandidateEnumerator {
 public:
  explicit LazyCandidateEnumerator(const SingleByteTables& likelihoods);

  // Returns the next most likely candidate. Never exhausts before 256^L
  // candidates have been returned; callers must check Exhausted() first.
  Candidate Next();

  // True once all 256^L candidates have been returned: calling Next() again
  // would be invalid.
  bool Exhausted() const { return heap_.empty(); }

  uint64_t popped() const { return popped_; }

 private:
  struct Node {
    double score;
    std::vector<uint8_t> ranks;  // per-position index into the sorted table
    friend bool operator<(const Node& a, const Node& b) { return a.score < b.score; }
  };

  size_t length_;
  // sorted_[r][k] = (log-likelihood, byte value) of the k-th best value.
  std::vector<std::vector<std::pair<double, uint8_t>>> sorted_;
  std::priority_queue<Node> heap_;
  uint64_t popped_ = 0;
};

// Double-byte transition tables for Algorithm 2: transitions[t] is a 65536
// log-likelihood table for the pair (byte_t, byte_{t+1}) of the padded
// plaintext m1 || P || mL; t ranges over 0 .. L-2 where L = |P| + 2.
using DoubleByteTables = std::vector<std::vector<double>>;

// Algorithm 2, evaluated lazily (lazy k-best in the style of Huang & Chiang
// 2005). The decoder keeps one sorted list per (transition t, value) pair:
// the best prefixes that end in that value after transition t, each merged
// from the |A| lists of transition t-1 with its own heap. A list is extended
// only when a later list or the final merge asks for its next entry, so
// drawing the k best candidates extends each list to at most k + 1 entries.
//
// Every list's heap sees the same push/pop sequence as an eager decoder that
// builds all lists to N entries first, so candidates (ties included) come
// out in the same order with bit-identical scores, and any prefix of the
// sequence equals the eager N-best list (tests/recovery/golden_parity_test.cc
// pins this).
class LazyDoubleCandidateEnumerator {
 public:
  // `transitions` must hold at least two 65536-cell tables; otherwise one
  // line goes to stderr and the enumerator starts exhausted. `alphabet`
  // restricts the inner byte values (empty = all 256). The enumerator copies
  // what it needs, so the arguments need not outlive it.
  LazyDoubleCandidateEnumerator(const DoubleByteTables& transitions, uint8_t m1,
                                uint8_t m_last,
                                std::span<const uint8_t> alphabet = {});

  // Returns the next most likely inner plaintext (|P| bytes). Callers must
  // check Exhausted() first.
  Candidate Next();

  // True once all |A|^|P| candidates have been returned.
  bool Exhausted() const { return heap_.empty(); }

 private:
  // An entry of a per-(t, value) list: its score and the entry of the
  // transition t-1 list it extends.
  struct Entry {
    double score;
    uint32_t prev_value_index;
    uint32_t prev_list_index;
  };
  // Heap node of a sorted-stream merge: stream `stream`'s entry
  // `prev_index`, extended by one transition.
  struct StreamNode {
    double score;
    uint32_t prev_index;
    uint32_t stream;
    friend bool operator<(const StreamNode& a, const StreamNode& b) {
      return a.score < b.score;
    }
  };
  struct List {
    std::vector<Entry> entries;
    std::priority_queue<StreamNode> heap;
    // The successor of the last entry's node is not pushed yet. It is pushed
    // just before the next pop, the first point where the eager decoder's
    // push after each pop matters.
    bool pending = false;
  };

  // log lambda_t(a[ui], a[vi]) for 1 <= t < inner.
  double Transition(size_t t, uint32_t ui, uint32_t vi) const {
    return transitions_[t][static_cast<size_t>(vi) * alphabet_.size() + ui];
  }
  // Entry j of list (t, vi), extending the list as needed; nullptr when the
  // list has fewer than j + 1 entries.
  const Entry* Get(size_t t, uint32_t vi, uint32_t j);

  std::vector<uint8_t> alphabet_;
  size_t inner_ = 0;  // number of unknown bytes
  // transitions_[t][vi * |A| + ui] for 1 <= t < inner; last_[vi] is the
  // a[vi] -> m_last transition.
  std::vector<std::vector<double>> transitions_;
  std::vector<double> last_;
  std::vector<std::vector<List>> lists_;  // lists_[t][vi], 0 <= t < inner
  std::priority_queue<StreamNode> heap_;  // the final merge
};

// Algorithm 2: the N most likely plaintexts (inner bytes only, |P| bytes)
// given the known boundary bytes m1 and mL, i.e. the first n candidates of
// LazyDoubleCandidateEnumerator. `alphabet` restricts the inner byte values
// (empty = all 256).
std::vector<Candidate> GenerateCandidatesDouble(const DoubleByteTables& transitions,
                                                uint8_t m1, uint8_t m_last, size_t n,
                                                std::span<const uint8_t> alphabet = {});

}  // namespace rc4b

#endif  // SRC_CORE_CANDIDATES_H_
