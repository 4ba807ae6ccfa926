// Deterministic trial-parallel Monte-Carlo runner.
//
// Every attack evaluation in this repository (Figs. 7-10) is a Monte-Carlo
// experiment: N independent simulated attacks, aggregated into success rates
// or medians. This runner shards trials over the thread pool under one
// determinism contract, mirroring the keystream engine's sharding-invariant
// key derivation (docs/engine.md):
//
//   trial t always derives its RNG from (seed, t) alone — TrialRng(seed, t)
//   — never from the worker it lands on, and per-trial results are collected
//   into a trial-indexed vector. Aggregates computed by folding that vector
//   in trial order are therefore bit-exact for ANY worker count, including 1.
//
// docs/sim.md spells out the contract; tests/sim/ pins it.
#ifndef SRC_SIM_RUNNER_H_
#define SRC_SIM_RUNNER_H_

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "src/common/rng.h"

namespace rc4b::sim {

struct TrialRunnerOptions {
  uint64_t trials = 0;
  unsigned workers = 0;  // shards; 0 = hardware concurrency
  uint64_t seed = 1;
};

// Mixes (seed, trial) into the single-word seed of trial t's generator with
// a SplitMix64 finalizer, so nearby seeds / trial indices land far apart.
// Also used to derive independent per-checkpoint seed streams (e.g.
// TrialSeed(seed, ciphertext_count) in the cookie simulation).
uint64_t TrialSeed(uint64_t seed, uint64_t trial);

// The canonical per-trial generator: Xoshiro256 seeded with
// TrialSeed(seed, trial).
Xoshiro256 TrialRng(uint64_t seed, uint64_t trial);

// Runs fn(trial, rng) for every trial in [0, options.trials) on the thread
// pool; each worker claims the next unclaimed trial. Each call receives a fresh
// TrialRng(options.seed, trial); fn runs concurrently across trials and must
// only write trial-local state (e.g. its slot of a results vector).
void ForEachTrial(const TrialRunnerOptions& options,
                  const std::function<void(uint64_t, Xoshiro256&)>& fn);

// ForEachTrial collecting each trial's result into a trial-indexed vector:
// results[t] = fn(t, rng_t). The returned vector — and anything folded from
// it in index order — is bit-exact for any worker count.
template <typename Result, typename Fn>
std::vector<Result> RunTrials(const TrialRunnerOptions& options, Fn&& fn) {
  // std::vector<bool> packs results into shared bytes, which would turn the
  // concurrent per-trial slot writes into a data race — wrap the flag in a
  // struct (see Fig7Trial in bench_fig7_recovery_rate.cc) instead.
  static_assert(!std::is_same_v<Result, bool>,
                "RunTrials<bool> would race on std::vector<bool> bits");
  std::vector<Result> results(options.trials);
  ForEachTrial(options, [&](uint64_t trial, Xoshiro256& rng) {
    results[trial] = fn(trial, rng);
  });
  return results;
}

}  // namespace rc4b::sim

#endif  // SRC_SIM_RUNNER_H_
