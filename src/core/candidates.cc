#include "src/core/candidates.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace rc4b {

namespace {

// Backpointer entry of Algorithm 1's per-length rounds.
struct Entry {
  double score;
  uint8_t value;      // byte appended at this round
  uint32_t prev;      // index into the previous round's entry list
};

// Heap node for merging sorted candidate streams: (previous-entry index,
// value/stream identifier). Defined at namespace scope so std::priority_queue
// can find operator< (hidden friends of function-local classes are not
// visible to name lookup).
struct StreamHeapNode {
  double score;
  uint32_t prev_index;
  uint32_t stream;
  friend bool operator<(const StreamHeapNode& a, const StreamHeapNode& b) {
    return a.score < b.score;
  }
};

std::vector<uint8_t> FullAlphabet() {
  std::vector<uint8_t> a(256);
  std::iota(a.begin(), a.end(), 0);
  return a;
}

}  // namespace

std::vector<Candidate> GenerateCandidatesSingle(const SingleByteTables& likelihoods,
                                                size_t n) {
  const size_t length = likelihoods.size();
  assert(length > 0);

  // rounds[r] holds the candidates of length r+1 in decreasing likelihood,
  // as backpointer entries into rounds[r-1].
  std::vector<std::vector<Entry>> rounds(length);

  std::vector<Entry> previous{{0.0, 0, 0}};  // the empty prefix
  for (size_t r = 0; r < length; ++r) {
    assert(likelihoods[r].size() == 256);
    // Sort byte values by their log-likelihood once; then merge the 256
    // streams (previous candidate index, value rank) with a heap. This is
    // Algorithm 1 with the per-value position pointers pos(mu) made explicit.
    std::array<std::pair<double, uint8_t>, 256> sorted_values;
    for (size_t mu = 0; mu < 256; ++mu) {
      sorted_values[mu] = {likelihoods[r][mu], static_cast<uint8_t>(mu)};
    }
    std::sort(sorted_values.begin(), sorted_values.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });

    std::priority_queue<StreamHeapNode> heap;
    for (uint32_t vr = 0; vr < 256; ++vr) {
      heap.push(StreamHeapNode{previous[0].score + sorted_values[vr].first, 0, vr});
    }
    std::vector<Entry>& current = rounds[r];
    const size_t want = std::min<size_t>(n, previous.size() * 256);
    while (current.size() < want && !heap.empty()) {
      const StreamHeapNode top = heap.top();
      heap.pop();
      current.push_back(Entry{top.score, sorted_values[top.stream].second,
                              top.prev_index});
      if (top.prev_index + 1 < previous.size()) {
        heap.push(StreamHeapNode{previous[top.prev_index + 1].score +
                                     sorted_values[top.stream].first,
                                 top.prev_index + 1, top.stream});
      }
    }
    previous = current;
  }

  // Reconstruct plaintexts by walking backpointers.
  std::vector<Candidate> out;
  out.reserve(rounds.back().size());
  for (size_t i = 0; i < rounds.back().size(); ++i) {
    Candidate c;
    c.log_likelihood = rounds.back()[i].score;
    c.plaintext.resize(length);
    uint32_t index = static_cast<uint32_t>(i);
    for (size_t r = length; r-- > 0;) {
      c.plaintext[r] = rounds[r][index].value;
      index = rounds[r][index].prev;
    }
    out.push_back(std::move(c));
  }
  return out;
}

LazyCandidateEnumerator::LazyCandidateEnumerator(const SingleByteTables& likelihoods)
    : length_(likelihoods.size()) {
  sorted_.resize(length_);
  double best_score = 0.0;
  for (size_t r = 0; r < length_; ++r) {
    assert(likelihoods[r].size() == 256);
    sorted_[r].resize(256);
    for (size_t mu = 0; mu < 256; ++mu) {
      sorted_[r][mu] = {likelihoods[r][mu], static_cast<uint8_t>(mu)};
    }
    std::sort(sorted_[r].begin(), sorted_[r].end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    best_score += sorted_[r][0].first;
  }
  heap_.push(Node{best_score, std::vector<uint8_t>(length_, 0)});
}

Candidate LazyCandidateEnumerator::Next() {
  assert(!heap_.empty());
  const Node top = heap_.top();
  heap_.pop();
  ++popped_;

  // Successor rule: from a node, bump the rank at every position at or after
  // the last non-zero rank position. This generates each rank vector exactly
  // once (a vector's unique parent decrements its final non-zero rank).
  size_t first_successor_pos = 0;
  for (size_t r = 0; r < length_; ++r) {
    if (top.ranks[r] != 0) {
      first_successor_pos = r;
    }
  }
  for (size_t r = first_successor_pos; r < length_; ++r) {
    if (top.ranks[r] == 255) {
      continue;
    }
    Node child = top;
    child.score += sorted_[r][top.ranks[r] + 1].first - sorted_[r][top.ranks[r]].first;
    ++child.ranks[r];
    heap_.push(std::move(child));
  }

  Candidate c;
  c.log_likelihood = top.score;
  c.plaintext.resize(length_);
  for (size_t r = 0; r < length_; ++r) {
    c.plaintext[r] = sorted_[r][top.ranks[r]].second;
  }
  return c;
}

LazyDoubleCandidateEnumerator::LazyDoubleCandidateEnumerator(
    const DoubleByteTables& transitions, uint8_t m1, uint8_t m_last,
    std::span<const uint8_t> alphabet)
    : alphabet_(alphabet.empty()
                    ? FullAlphabet()
                    : std::vector<uint8_t>(alphabet.begin(), alphabet.end())) {
  // Load-bearing validation: the tables are indexed as 65536-cell rows below
  // and inner = |transitions| - 1 must be at least 1, so a malformed input
  // must not be read in Release builds. Loud, because no candidates
  // downstream look like a legitimately failed attack.
  const bool valid =
      transitions.size() >= 2 &&
      std::all_of(transitions.begin(), transitions.end(),
                  [](const std::vector<double>& table) { return table.size() == 65536; });
  if (!valid) {
    std::fprintf(stderr,
                 "LazyDoubleCandidateEnumerator: %zu transition tables (need "
                 "at least 2, each with 65536 cells); no candidates\n",
                 transitions.size());
    return;
  }
  const size_t a = alphabet_.size();
  inner_ = transitions.size() - 1;
  last_.resize(a);
  for (size_t vi = 0; vi < a; ++vi) {
    last_[vi] = transitions[inner_][static_cast<size_t>(alphabet_[vi]) * 256 + m_last];
  }
  transitions_.resize(inner_);
  for (size_t t = 1; t < inner_; ++t) {
    transitions_[t].resize(a * a);
    for (size_t vi = 0; vi < a; ++vi) {
      for (size_t ui = 0; ui < a; ++ui) {
        transitions_[t][vi * a + ui] =
            transitions[t][static_cast<size_t>(alphabet_[ui]) * 256 + alphabet_[vi]];
      }
    }
  }

  // Transition 0 (m1 -> first unknown byte) leaves one entry per value.
  lists_.assign(inner_, std::vector<List>(a));
  for (size_t vi = 0; vi < a; ++vi) {
    lists_[0][vi].entries.push_back(
        Entry{transitions[0][static_cast<size_t>(m1) * 256 + alphabet_[vi]], 0, 0});
  }
  // Every later list merges the |A| streams of the previous transition:
  // stream ui yields lists_[t-1][ui][j].score + log lambda_t(a[ui], a[vi]).
  for (size_t t = 1; t < inner_; ++t) {
    for (uint32_t vi = 0; vi < a; ++vi) {
      List& list = lists_[t][vi];
      for (uint32_t ui = 0; ui < a; ++ui) {
        list.heap.push(StreamNode{
            lists_[t - 1][ui].entries[0].score + Transition(t, ui, vi), 0, ui});
      }
      Get(t, vi, 0);
    }
  }
  // The final transition (last unknown byte -> m_last) merges into one stream.
  for (uint32_t vi = 0; vi < a; ++vi) {
    heap_.push(StreamNode{lists_[inner_ - 1][vi].entries[0].score + last_[vi], 0, vi});
  }
}

const LazyDoubleCandidateEnumerator::Entry* LazyDoubleCandidateEnumerator::Get(
    size_t t, uint32_t vi, uint32_t j) {
  List& list = lists_[t][vi];
  while (list.entries.size() <= j) {
    if (list.pending) {
      // The last entry's stream moves on to its next entry.
      list.pending = false;
      const uint32_t stream = list.entries.back().prev_value_index;
      const uint32_t index = list.entries.back().prev_list_index + 1;
      if (const Entry* next = Get(t - 1, stream, index)) {
        list.heap.push(
            StreamNode{next->score + Transition(t, stream, vi), index, stream});
      }
    }
    if (list.heap.empty()) {
      return nullptr;
    }
    const StreamNode top = list.heap.top();
    list.heap.pop();
    list.pending = true;
    list.entries.push_back(Entry{top.score, top.stream, top.prev_index});
  }
  return &list.entries[j];
}

Candidate LazyDoubleCandidateEnumerator::Next() {
  assert(!heap_.empty());
  const StreamNode top = heap_.top();
  heap_.pop();

  Candidate c;
  c.log_likelihood = top.score;
  c.plaintext.resize(inner_);
  uint32_t value_index = top.stream;
  uint32_t list_index = top.prev_index;
  for (size_t t = inner_; t-- > 0;) {
    c.plaintext[t] = alphabet_[value_index];
    const Entry& e = lists_[t][value_index].entries[list_index];
    value_index = e.prev_value_index;
    list_index = e.prev_list_index;
  }
  if (const Entry* next = Get(inner_ - 1, top.stream, top.prev_index + 1)) {
    heap_.push(StreamNode{next->score + last_[top.stream], top.prev_index + 1,
                          top.stream});
  }
  return c;
}

std::vector<Candidate> GenerateCandidatesDouble(const DoubleByteTables& transitions,
                                                uint8_t m1, uint8_t m_last, size_t n,
                                                std::span<const uint8_t> alphabet) {
  LazyDoubleCandidateEnumerator enumerator(transitions, m1, m_last, alphabet);
  std::vector<Candidate> out;
  while (out.size() < n && !enumerator.Exhausted()) {
    out.push_back(enumerator.Next());
  }
  return out;
}

}  // namespace rc4b
