#include "src/recovery/engine.h"

namespace rc4b::recovery {

namespace {

// Draws candidates in decreasing likelihood until the predicate accepts one,
// the budget runs out or the candidate space is exhausted.
template <typename Enumerator>
RecoveryResult Traverse(Enumerator& enumerator, const RecoveryOptions& options,
                        const VerifyPredicate& verify) {
  RecoveryResult result;
  for (uint64_t n = 0; n < options.max_candidates && !enumerator.Exhausted(); ++n) {
    const Candidate candidate = enumerator.Next();
    result.candidates_tried = n + 1;
    if (verify(candidate.plaintext)) {
      result.found = true;
      result.plaintext = candidate.plaintext;
      result.log_likelihood = candidate.log_likelihood;
      result.correct = !options.truth.empty() && options.truth == candidate.plaintext;
      return result;
    }
  }
  return result;
}

}  // namespace

RecoveryResult RecoveryEngine::RecoverSingle(
    const SingleByteTables& tables, const VerifyPredicate& verify) const {
  if (tables.empty()) {
    return {};
  }
  LazyCandidateEnumerator enumerator(tables);
  return Traverse(enumerator, options_, verify);
}

RecoveryResult RecoveryEngine::RecoverSingle(
    SingleByteLikelihoodSource& source, const VerifyPredicate& verify) const {
  return RecoverSingle(source.Tables(), verify);
}

RecoveryResult RecoveryEngine::RecoverDouble(
    const DoubleByteTables& transitions, const PairBoundary& boundary,
    std::span<const uint8_t> alphabet, const VerifyPredicate& verify) const {
  LazyDoubleCandidateEnumerator enumerator(transitions, boundary.m1,
                                           boundary.m_last, alphabet);
  return Traverse(enumerator, options_, verify);
}

RecoveryResult RecoveryEngine::RecoverDouble(
    DoubleByteLikelihoodSource& source, const PairBoundary& boundary,
    std::span<const uint8_t> alphabet, const VerifyPredicate& verify) const {
  return RecoverDouble(source.Tables(), boundary, alphabet, verify);
}

}  // namespace rc4b::recovery
