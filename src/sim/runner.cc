#include "src/sim/runner.h"

#include <algorithm>
#include <atomic>

#include "src/common/thread_pool.h"

namespace rc4b::sim {

uint64_t TrialSeed(uint64_t seed, uint64_t trial) {
  // SplitMix64 finalizer over an odd-constant combination of seed and trial.
  // The +1 keeps trial 0 from collapsing to the bare seed.
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (trial + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Xoshiro256 TrialRng(uint64_t seed, uint64_t trial) {
  return Xoshiro256(TrialSeed(seed, trial));
}

void ForEachTrial(const TrialRunnerOptions& options,
                  const std::function<void(uint64_t, Xoshiro256&)>& fn) {
  // Workers claim the next trial from a shared counter, so one slow trial
  // does not leave the rest of its chunk waiting while other workers idle.
  // Which worker runs a trial never reaches its RNG or its result slot.
  const unsigned workers = static_cast<unsigned>(std::min<uint64_t>(
      options.workers == 0 ? DefaultWorkerCount() : options.workers,
      std::max<uint64_t>(options.trials, 1)));
  std::atomic<uint64_t> next_trial{0};
  ParallelFor(workers, [&](unsigned) {
    for (uint64_t trial = next_trial++; trial < options.trials; trial = next_trial++) {
      Xoshiro256 rng = TrialRng(options.seed, trial);
      fn(trial, rng);
    }
  });
}

}  // namespace rc4b::sim
