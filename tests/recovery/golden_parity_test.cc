// Golden-parity pins for the recovery refactors:
//   * the TKIP and cookie attacks rewired onto the RecoveryEngine must
//     produce bit-identical candidate orderings and recovery outcomes to the
//     pre-refactor implementations, verbatim copies of the hand-rolled loops
//     that src/tkip/attack.cc and src/tls/cookie_attack.cc contained;
//   * the lazy Algorithm 2 enumerator must yield the same plaintexts with
//     bitwise-equal scores, in the same order (ties included), as the eager
//     list decoder it replaced, a verbatim copy of which is below.
#include <gtest/gtest.h>

#include <cassert>
#include <cstring>
#include <numeric>
#include <queue>
#include <string>

#include "src/core/candidates.h"
#include "src/crypto/crc32.h"
#include "src/recovery/engine.h"
#include "src/recovery/likelihood_source.h"
#include "src/sim/cookie_sim.h"
#include "src/sim/runner.h"
#include "src/sim/tkip_sim.h"
#include "src/tkip/attack.h"
#include "src/tls/cookie_attack.h"

namespace rc4b {
namespace {

// --- Pre-refactor reference implementations ------------------------------

TkipAttackResult ReferenceRecoverTkipTrailer(
    std::span<const uint8_t> known_msdu, const SingleByteTables& likelihoods,
    uint64_t max_candidates, std::span<const uint8_t> true_trailer,
    const TkipPeer& peer) {
  TkipAttackResult result;
  if (likelihoods.size() != kTkipTrailerSize) {
    return result;
  }
  uint32_t msdu_state = Crc32Init();
  msdu_state = Crc32Update(msdu_state, known_msdu);

  LazyCandidateEnumerator enumerator(likelihoods);
  for (uint64_t n = 0; n < max_candidates && !enumerator.Exhausted(); ++n) {
    const Candidate candidate = enumerator.Next();
    result.candidates_tried = n + 1;
    const std::span<const uint8_t> trailer(candidate.plaintext);
    const uint32_t crc =
        Crc32Final(Crc32Update(msdu_state, trailer.subspan(0, 8)));
    if (crc != LoadLe32(trailer.data() + 8)) {
      continue;
    }
    result.found = true;
    result.trailer = candidate.plaintext;
    result.correct = !true_trailer.empty() &&
                     true_trailer.size() == trailer.size() &&
                     std::memcmp(true_trailer.data(), trailer.data(),
                                 trailer.size()) == 0;
    const auto header = MichaelHeader(peer.da, peer.sa, peer.priority);
    Bytes authenticated(header.begin(), header.end());
    authenticated.insert(authenticated.end(), known_msdu.begin(),
                         known_msdu.end());
    result.mic_key = MichaelRecoverKey(authenticated, trailer.subspan(0, 8));
    return result;
  }
  return result;
}

CookieBruteForceResult ReferenceBruteForceCookie(
    const DoubleByteTables& transitions, uint8_t m1, uint8_t m_last,
    std::span<const uint8_t> alphabet, size_t max_candidates,
    const std::function<bool(const Bytes&)>& try_cookie) {
  CookieBruteForceResult result;
  const auto candidates = GenerateCandidatesDouble(transitions, m1, m_last,
                                                   max_candidates, alphabet);
  for (const Candidate& candidate : candidates) {
    ++result.attempts;
    if (try_cookie(candidate.plaintext)) {
      result.success = true;
      result.cookie = candidate.plaintext;
      return result;
    }
  }
  return result;
}

// The eager Algorithm 2 decoder: every per-(t, value) list is built to n
// entries before the first candidate comes out.
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

std::vector<Candidate> ReferenceGenerateCandidatesDouble(
    const DoubleByteTables& transitions, uint8_t m1, uint8_t m_last, size_t n,
    std::span<const uint8_t> alphabet) {
  const std::vector<uint8_t> full =
      alphabet.empty() ? FullAlphabet() : std::vector<uint8_t>();
  const std::span<const uint8_t> a = alphabet.empty() ? std::span<const uint8_t>(full)
                                                      : alphabet;
  const size_t inner = transitions.size() - 1;  // number of unknown bytes
  assert(inner >= 1);

  // lists[t][value_index] = N-best entries for prefixes ending in a[value_index]
  // after consuming transition t. Entries point into lists[t-1].
  // An entry's `prev` packs (previous value index, index in its list).
  struct ListEntry {
    double score;
    uint32_t prev_value_index;
    uint32_t prev_list_index;
  };
  std::vector<std::vector<std::vector<ListEntry>>> lists(inner);

  // Transition 0: m1 -> first unknown byte.
  assert(transitions[0].size() == 65536);
  lists[0].resize(a.size());
  for (size_t vi = 0; vi < a.size(); ++vi) {
    const double score = transitions[0][static_cast<size_t>(m1) * 256 + a[vi]];
    lists[0][vi].push_back(ListEntry{score, 0, 0});
  }

  // Transitions between unknown bytes.
  for (size_t t = 1; t < inner; ++t) {
    assert(transitions[t].size() == 65536);
    lists[t].resize(a.size());
    for (size_t vi = 0; vi < a.size(); ++vi) {
      const uint8_t mu2 = a[vi];
      // Merge |A| sorted streams: stream ui yields
      // lists[t-1][ui][j].score + log lambda_t(a[ui], mu2) for j = 0, 1, ...
      std::priority_queue<StreamHeapNode> heap;
      for (uint32_t ui = 0; ui < a.size(); ++ui) {
        if (!lists[t - 1][ui].empty()) {
          const double trans =
              transitions[t][static_cast<size_t>(a[ui]) * 256 + mu2];
          heap.push(StreamHeapNode{lists[t - 1][ui][0].score + trans, 0, ui});
        }
      }
      auto& out_list = lists[t][vi];
      while (out_list.size() < n && !heap.empty()) {
        const StreamHeapNode top = heap.top();
        heap.pop();
        out_list.push_back(ListEntry{top.score, top.stream, top.prev_index});
        const auto& src = lists[t - 1][top.stream];
        if (top.prev_index + 1 < src.size()) {
          const double trans =
              transitions[t][static_cast<size_t>(a[top.stream]) * 256 + mu2];
          heap.push(StreamHeapNode{src[top.prev_index + 1].score + trans,
                                   top.prev_index + 1, top.stream});
        }
      }
    }
  }

  // Final transition: last unknown byte -> m_last. Merge into one list.
  const auto& final_table = transitions[inner];
  assert(final_table.size() == 65536);
  std::priority_queue<StreamHeapNode> heap;
  for (uint32_t vi = 0; vi < a.size(); ++vi) {
    if (!lists[inner - 1][vi].empty()) {
      const double trans = final_table[static_cast<size_t>(a[vi]) * 256 + m_last];
      heap.push(StreamHeapNode{lists[inner - 1][vi][0].score + trans, 0, vi});
    }
  }
  std::vector<Candidate> out;
  while (out.size() < n && !heap.empty()) {
    const StreamHeapNode top = heap.top();
    heap.pop();
    Candidate c;
    c.log_likelihood = top.score;
    c.plaintext.resize(inner);
    uint32_t value_index = top.stream;
    uint32_t list_index = top.prev_index;
    for (size_t t = inner; t-- > 0;) {
      c.plaintext[t] = a[value_index];
      const ListEntry& e = lists[t][value_index][list_index];
      value_index = e.prev_value_index;
      list_index = e.prev_list_index;
    }
    out.push_back(std::move(c));
    const auto& src = lists[inner - 1][top.stream];
    if (top.prev_index + 1 < src.size()) {
      const double trans =
          final_table[static_cast<size_t>(a[top.stream]) * 256 + m_last];
      heap.push(StreamHeapNode{src[top.prev_index + 1].score + trans,
                               top.prev_index + 1, top.stream});
    }
  }
  return out;
}

// --- Shared fixtures ------------------------------------------------------

// Strongly biased per-TSC1 oracle model over the injected packet's trailer
// positions (same construction as tests/sim/tkip_sim_test.cc).
TkipTscModel StrongModel(double boost) {
  const Bytes msdu = sim::InjectedPacket();
  const size_t first = msdu.size() + 1;
  const size_t last = msdu.size() + kTkipTrailerSize;
  TkipTscModel model(first, last);
  for (int tsc1 = 0; tsc1 < 256; ++tsc1) {
    for (size_t pos = first; pos <= last; ++pos) {
      std::vector<double> p(256, (1.0 - (1.0 / 256 + boost)) / 255.0);
      p[(tsc1 * 31 + static_cast<int>(pos)) & 0xff] = 1.0 / 256 + boost;
      model.SetRow(static_cast<uint8_t>(tsc1), pos, p);
    }
  }
  return model;
}

struct TkipCase {
  Bytes msdu;
  Bytes trailer;
  TkipPeer peer;
  SingleByteTables tables;
};

void CaptureTkipCase(const TkipTscModel& model, uint64_t seed, uint64_t frames,
                     TkipCase* out) {
  Xoshiro256 rng = sim::TrialRng(seed, 0);
  out->peer = sim::RandomPeer(rng);
  out->msdu = sim::InjectedPacket();
  out->trailer = TkipTrailer(out->peer, out->msdu);
  TkipCaptureStats stats(out->msdu.size() + 1,
                         out->msdu.size() + kTkipTrailerSize);
  sim::TrailerFrameSource source(model, /*oracle=*/true, out->peer, out->msdu,
                                 out->trailer, /*initial_tsc=*/1, rng());
  for (uint64_t i = 0; i < frames; ++i) {
    ASSERT_TRUE(stats.AddFrame(source.NextFrame()));
  }
  recovery::TkipTscLikelihoodSource likelihoods(stats, model);
  out->tables = likelihoods.Tables();
}

void ExpectEqualResults(const TkipAttackResult& a, const TkipAttackResult& b) {
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(a.candidates_tried, b.candidates_tried);
  EXPECT_EQ(a.trailer, b.trailer);
  EXPECT_EQ(a.mic_key, b.mic_key);
}

TEST(GoldenParityTest, TkipRecoveryMatchesPreRefactorOnStrongSignal) {
  const TkipTscModel model = StrongModel(0.2);
  TkipCase c;
  CaptureTkipCase(model, 101, 4096, &c);
  for (uint64_t budget : {uint64_t{1}, uint64_t{2}, uint64_t{1} << 16}) {
    const auto reference = ReferenceRecoverTkipTrailer(c.msdu, c.tables, budget,
                                                       c.trailer, c.peer);
    const auto refactored =
        RecoverTkipTrailer(c.msdu, c.tables, budget, c.trailer, c.peer);
    ExpectEqualResults(refactored, reference);
  }
  // At a generous budget the strong signal must actually recover the truth —
  // otherwise this parity test would only compare failures.
  const auto result =
      RecoverTkipTrailer(c.msdu, c.tables, uint64_t{1} << 16, c.trailer, c.peer);
  EXPECT_TRUE(result.found);
  EXPECT_TRUE(result.correct);
  EXPECT_EQ(result.mic_key, c.peer.mic_key);
}

TEST(GoldenParityTest, TkipRecoveryMatchesPreRefactorOnFailure) {
  // No-signal tables: both implementations must walk the same 512 candidates
  // and report the same failure shape.
  Xoshiro256 rng(7);
  TkipCase c;
  c.peer = sim::RandomPeer(rng);
  c.msdu = sim::InjectedPacket();
  c.trailer = TkipTrailer(c.peer, c.msdu);
  c.tables.assign(kTkipTrailerSize, std::vector<double>(256));
  for (auto& row : c.tables) {
    for (double& cell : row) {
      cell = -rng.UnitDouble();
    }
  }
  const auto reference =
      ReferenceRecoverTkipTrailer(c.msdu, c.tables, 512, c.trailer, c.peer);
  const auto refactored =
      RecoverTkipTrailer(c.msdu, c.tables, 512, c.trailer, c.peer);
  ExpectEqualResults(refactored, reference);
  EXPECT_FALSE(refactored.found);
  EXPECT_EQ(refactored.candidates_tried, 512u);
}

TEST(GoldenParityTest, CookieBruteForceMatchesPreRefactor) {
  sim::CookieSimOptions options;
  options.cookie_length = 4;
  options.max_gap = 16;
  const sim::CookieSimContext context(options);
  const auto& alphabet = context.alphabet();

  Xoshiro256 rng = sim::TrialRng(55, 1);
  Bytes truth(options.cookie_length);
  for (auto& b : truth) {
    b = alphabet[rng.Below(alphabet.size())];
  }
  const auto transitions = sim::SampleCookieTransitions(
      context, truth, /*ciphertexts=*/uint64_t{1} << 34, rng);

  const auto oracle = [&](const Bytes& candidate) { return candidate == truth; };
  for (size_t budget : {size_t{1}, size_t{64}, size_t{1} << 14}) {
    const auto reference = ReferenceBruteForceCookie(
        transitions, options.m1, options.m_last, alphabet, budget, oracle);
    const auto refactored = BruteForceCookie(transitions, options.m1,
                                             options.m_last, alphabet, budget,
                                             oracle);
    EXPECT_EQ(refactored.success, reference.success) << "budget " << budget;
    EXPECT_EQ(refactored.attempts, reference.attempts) << "budget " << budget;
    EXPECT_EQ(refactored.cookie, reference.cookie) << "budget " << budget;
  }
  // At 2^34 ciphertexts the combined signal recovers the 4-char cookie.
  const auto result = BruteForceCookie(transitions, options.m1, options.m_last,
                                       alphabet, 1 << 14, oracle);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.cookie, truth);

  // Candidate-ordering pin: the attempts consumed by a never-matching oracle
  // must equal the materialized Algorithm 2 list walked in order.
  std::vector<Bytes> visited;
  BruteForceCookie(transitions, options.m1, options.m_last, alphabet, 64,
                   [&](const Bytes& candidate) {
                     visited.push_back(candidate);
                     return false;
                   });
  const auto expected = GenerateCandidatesDouble(transitions, options.m1,
                                                 options.m_last, 64, alphabet);
  ASSERT_EQ(visited.size(), expected.size());
  for (size_t i = 0; i < visited.size(); ++i) {
    EXPECT_EQ(visited[i], expected[i].plaintext) << "candidate " << i;
  }
}

// --- Lazy Algorithm 2 vs. the eager reference -----------------------------

// Transition tables whose cells are small negative integers, so many
// candidates tie and the heaps' tie order decides the list order.
DoubleByteTables TieHeavyTransitions(size_t count, uint64_t seed, int levels) {
  Xoshiro256 rng(seed);
  DoubleByteTables tables(count, std::vector<double>(65536));
  for (auto& table : tables) {
    for (double& v : table) {
      v = -static_cast<double>(rng.Below(static_cast<uint64_t>(levels)));
    }
  }
  return tables;
}

// Same plaintexts, bitwise-equal scores, same order.
void ExpectSameList(const std::vector<Candidate>& got,
                    const std::vector<Candidate>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].plaintext, want[i].plaintext) << what << " candidate " << i;
    ASSERT_EQ(std::memcmp(&got[i].log_likelihood, &want[i].log_likelihood,
                          sizeof(double)),
              0)
        << what << " candidate " << i;
  }
}

void ExpectLazyMatchesEager(const DoubleByteTables& transitions, uint8_t m1,
                            uint8_t m_last, std::span<const uint8_t> alphabet,
                            size_t n, const std::string& what) {
  const auto want =
      ReferenceGenerateCandidatesDouble(transitions, m1, m_last, n, alphabet);
  ExpectSameList(GenerateCandidatesDouble(transitions, m1, m_last, n, alphabet),
                 want, what);
  // Drawn one at a time from the enumerator, the first n candidates are the
  // eager n-best list whatever n is.
  LazyDoubleCandidateEnumerator enumerator(transitions, m1, m_last, alphabet);
  std::vector<Candidate> drawn;
  while (drawn.size() < n && !enumerator.Exhausted()) {
    drawn.push_back(enumerator.Next());
  }
  ExpectSameList(drawn, want, what + " (enumerator)");
}

TEST(GoldenParityTest, LazyAlgorithm2MatchesEagerOnTieHeavyTables) {
  const std::vector<uint8_t> alphabet = {'a', 'b', 'c', 'd', 'e', 'f'};
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const size_t tables = 2 + seed % 5;  // 1 to 5 unknown bytes
    const auto transitions = TieHeavyTransitions(tables, seed, 1 + seed % 3);
    for (size_t n : {size_t{1}, size_t{7}, size_t{100}, size_t{500}}) {
      ExpectLazyMatchesEager(transitions, 'X', 'Y', alphabet, n,
                             "seed " + std::to_string(seed) + " n " +
                                 std::to_string(n));
    }
  }
}

TEST(GoldenParityTest, LazyAlgorithm2MatchesEagerOnOneUnknownByte) {
  const std::vector<uint8_t> alphabet = {'0', '1', '2', '3', '4', '5', '6', '7'};
  const auto transitions = TieHeavyTransitions(2, 21, 2);
  for (size_t n : {size_t{1}, size_t{5}, size_t{8}, size_t{9}}) {
    ExpectLazyMatchesEager(transitions, '=', ';', alphabet, n,
                           "n " + std::to_string(n));
  }
  ExpectLazyMatchesEager(transitions, '=', ';', {}, 300, "full alphabet");
}

TEST(GoldenParityTest, LazyAlgorithm2MatchesEagerOnFullAlphabet) {
  // Empty alphabet = all 256 values; real-valued and tie-heavy tables.
  Xoshiro256 rng(33);
  DoubleByteTables real(4, std::vector<double>(65536));
  for (auto& table : real) {
    for (double& v : table) {
      v = -rng.UnitDouble() * 5.0;
    }
  }
  ExpectLazyMatchesEager(real, 'H', 'T', {}, 2000, "real-valued");
  ExpectLazyMatchesEager(TieHeavyTransitions(3, 34, 3), 'H', 'T', {}, 2000,
                         "tie-heavy");
}

TEST(GoldenParityTest, LazyAlgorithm2MatchesEagerAtBudgetEdges) {
  const std::vector<uint8_t> alphabet = {'p', 'q', 'r'};
  const auto transitions = TieHeavyTransitions(4, 41, 2);  // 27 candidates
  // n = 0; n one short of, equal to and beyond |A|^inner.
  for (size_t n : {size_t{0}, size_t{26}, size_t{27}, size_t{28}, size_t{1000}}) {
    ExpectLazyMatchesEager(transitions, 'U', 'V', alphabet, n,
                           "n " + std::to_string(n));
  }
  LazyDoubleCandidateEnumerator enumerator(transitions, 'U', 'V', alphabet);
  for (int i = 0; i < 27; ++i) {
    ASSERT_FALSE(enumerator.Exhausted()) << i;
    enumerator.Next();
  }
  EXPECT_TRUE(enumerator.Exhausted());
}

TEST(GoldenParityTest, RecoverDoubleStopsAtTheTruthsReferenceRank) {
  const std::vector<uint8_t> alphabet = {'a', 'b', 'c', 'd', 'e'};
  const auto transitions = TieHeavyTransitions(5, 51, 3);
  const size_t n = 400;
  const auto reference =
      ReferenceGenerateCandidatesDouble(transitions, '<', '>', n, alphabet);
  ASSERT_EQ(reference.size(), n);
  for (size_t index : {size_t{0}, size_t{1}, size_t{57}, n - 1}) {
    recovery::RecoveryOptions options;
    options.max_candidates = n;
    options.truth = reference[index].plaintext;
    const recovery::RecoveryEngine engine(options);
    const auto result = engine.RecoverDouble(
        transitions, recovery::PairBoundary{'<', '>'}, alphabet,
        [&](const Bytes& candidate) { return candidate == options.truth; });
    EXPECT_TRUE(result.found) << index;
    EXPECT_TRUE(result.correct) << index;
    EXPECT_EQ(result.candidates_tried, index + 1);
    EXPECT_EQ(std::memcmp(&result.log_likelihood,
                          &reference[index].log_likelihood, sizeof(double)),
              0)
        << index;
  }
}

}  // namespace
}  // namespace rc4b
