// The unified plaintext-recovery loop (docs/recovery.md).
//
// Both headline attacks of the paper are instances of one algorithm:
//   1. accumulate ciphertext statistics,
//   2. turn them into per-position likelihood tables (a LikelihoodSource),
//   3. enumerate plaintext candidates in decreasing likelihood, lazily
//      (Algorithm 1 for single-byte tables, Algorithm 2 for double-byte
//      tables),
//   4. test each candidate against a verification predicate — the CRC-32
//      relation between MIC and ICV for TKIP (Sect. 5.3), the server oracle
//      for HTTPS cookies (Sect. 6.2) — until one is accepted or the
//      candidate budget runs out.
// RecoveryEngine owns steps 3-4; src/tkip/attack and src/tls/cookie_attack
// are thin wrappers that supply their domain predicate, and every scenario
// in src/recovery/scenario.h runs through this loop.
#ifndef SRC_RECOVERY_ENGINE_H_
#define SRC_RECOVERY_ENGINE_H_

#include <cstdint>
#include <functional>
#include <span>

#include "src/core/candidates.h"
#include "src/recovery/likelihood_source.h"

namespace rc4b::recovery {

// Accepts or rejects a candidate plaintext: the CRC/ICV consistency check, a
// (simulated) server query, or any other oracle. Returning true ends the
// traversal with this candidate.
using VerifyPredicate = std::function<bool(const Bytes&)>;

struct RecoveryOptions {
  // Candidate-traversal budget (the paper uses ~2^30 for TKIP, 2^23 for
  // cookies). The traversal also stops early if the candidate space is
  // exhausted.
  uint64_t max_candidates = uint64_t{1} << 20;
  // Optional ground truth for evaluation: when non-empty, the result's
  // `correct` flag marks whether the accepted candidate equals it.
  Bytes truth;
};

struct RecoveryResult {
  bool found = false;    // a candidate was accepted by the predicate
  bool correct = false;  // ... and it equals the configured truth
  // Candidates drawn from the enumerator: the accepted candidate's 1-based
  // position on success, or the total number tried on failure.
  uint64_t candidates_tried = 0;
  Bytes plaintext;               // the accepted candidate
  double log_likelihood = 0.0;   // its score
};

// Known boundary bytes around the unknown plaintext in the double-byte
// (Algorithm 2) pipeline: m1 precedes it, m_last follows it.
struct PairBoundary {
  uint8_t m1 = 0;
  uint8_t m_last = 0;
};

class RecoveryEngine {
 public:
  explicit RecoveryEngine(RecoveryOptions options)
      : options_(std::move(options)) {}

  const RecoveryOptions& options() const { return options_; }

  // Single-byte pipeline: lazy best-first traversal of Algorithm 1's
  // ordering (LazyCandidateEnumerator), testing each candidate against the
  // predicate. Empty tables yield an empty result.
  RecoveryResult RecoverSingle(const SingleByteTables& tables,
                               const VerifyPredicate& verify) const;
  RecoveryResult RecoverSingle(SingleByteLikelihoodSource& source,
                               const VerifyPredicate& verify) const;

  // Double-byte pipeline: Algorithm 2's ordering (optionally restricted to
  // `alphabet`), drawn lazily from LazyDoubleCandidateEnumerator and tested
  // against the predicate in order, so the cost scales with the accepted
  // candidate's rank, not the budget. Malformed tables (fewer than two, or
  // not 65536 wide) yield an empty result and one stderr line.
  RecoveryResult RecoverDouble(const DoubleByteTables& transitions,
                               const PairBoundary& boundary,
                               std::span<const uint8_t> alphabet,
                               const VerifyPredicate& verify) const;
  RecoveryResult RecoverDouble(DoubleByteLikelihoodSource& source,
                               const PairBoundary& boundary,
                               std::span<const uint8_t> alphabet,
                               const VerifyPredicate& verify) const;

 private:
  RecoveryOptions options_;
};

}  // namespace rc4b::recovery

#endif  // SRC_RECOVERY_ENGINE_H_
