#include "src/biases/dataset.h"

#include <cassert>

#include "src/engine/accumulators.h"
#include "src/engine/keystream_engine.h"
#include "src/store/grid_cache.h"

namespace rc4b {

// All generators are thin drivers over the sharded keystream engine
// (src/engine/): they pick an accumulator, forward the scale knobs, and
// return the merged grid. The engine guarantees the result is bit-identical
// for any worker count (keys are indexed globally in one AES-CTR stream).
//
// When cache_dir is set (and the request starts at key 0), the grid
// generators route through store::GridCache instead: load the stored grid if
// its provenance matches, otherwise generate once and store it back. Shards
// of a distributed run (first_key != 0) never consult the cache — their
// slices are keyed by range in the shard manifest instead.

namespace {

bool UseCache(const DatasetOptions& options) {
  return !options.cache_dir.empty() && options.first_key == 0;
}

EngineOptions ToEngineOptions(const DatasetOptions& options) {
  EngineOptions engine;
  engine.keys = options.keys;
  engine.workers = options.workers;
  engine.seed = options.seed;
  engine.interleave = options.interleave;
  engine.kernel = options.kernel;
  engine.first_key = options.first_key;
  return engine;
}

LongTermEngineOptions ToLongTermOptions(const LongTermOptions& options) {
  LongTermEngineOptions engine;
  engine.keys = options.keys;
  engine.bytes_per_key = options.bytes_per_key;
  engine.drop = options.drop;
  engine.workers = options.workers;
  engine.seed = options.seed;
  engine.interleave = options.interleave;
  engine.kernel = options.kernel;
  engine.first_key = options.first_key;
  // The engine's default 256 KiB windows (see LongTermEngineOptions); it
  // consumes every whole 256-byte block of bytes_per_key regardless of the
  // window size.
  return engine;
}

}  // namespace

SingleByteGrid GenerateSingleByteDataset(size_t positions,
                                         const DatasetOptions& options) {
  if (UseCache(options)) {
    return store::GridCache(options.cache_dir)
        .LoadOrGenerateSingleByte(positions, options);
  }
  SingleByteAccumulator accumulator(positions);
  RunKeystreamEngine(ToEngineOptions(options), accumulator);
  return accumulator.TakeGrid();
}

DigraphGrid GenerateConsecutiveDataset(size_t positions, const DatasetOptions& options) {
  if (UseCache(options)) {
    return store::GridCache(options.cache_dir)
        .LoadOrGenerateConsecutive(positions, options);
  }
  ConsecutiveAccumulator accumulator(positions);
  RunKeystreamEngine(ToEngineOptions(options), accumulator);
  return accumulator.TakeGrid();
}

DigraphGrid GeneratePairDataset(const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
                                const DatasetOptions& options) {
  if (UseCache(options)) {
    return store::GridCache(options.cache_dir).LoadOrGeneratePair(pairs, options);
  }
  PairAccumulator accumulator(pairs);
  RunKeystreamEngine(ToEngineOptions(options), accumulator);
  return accumulator.TakeGrid();
}

DigraphGrid GenerateLongTermDigraphDataset(const LongTermOptions& options) {
  assert(options.drop % 256 == 0);
  if (!options.cache_dir.empty() && options.first_key == 0) {
    return store::GridCache(options.cache_dir).LoadOrGenerateLongTermDigraph(options);
  }
  LongTermDigraphAccumulator accumulator;
  RunLongTermEngine(ToLongTermOptions(options), accumulator);
  return accumulator.TakeGrid();
}

AbsabCounts GenerateAbsabDataset(uint64_t max_gap, const LongTermOptions& options) {
  AbsabAccumulator accumulator(max_gap);
  RunLongTermEngine(ToLongTermOptions(options), accumulator);
  AbsabCounts totals;
  totals.matches = accumulator.matches();
  totals.samples = accumulator.samples();
  return totals;
}

std::vector<uint64_t> GenerateAlignedPairDataset(uint32_t offset_a, uint32_t offset_b,
                                                 const LongTermOptions& options) {
  assert(offset_a < offset_b && offset_b < 256);
  assert(options.drop % 256 == 0 && options.drop > 0);
  AlignedPairAccumulator accumulator(offset_a, offset_b);
  RunLongTermEngine(ToLongTermOptions(options), accumulator);
  return accumulator.TakeCounts();
}

}  // namespace rc4b
