#include <gtest/gtest.h>

#include "src/engine/accumulators.h"
#include "src/engine/keystream_engine.h"

namespace rc4b {
namespace {

// Short-term sinks flush their 16-bit worker tiles into the shared grid every
// 2^19 keys (kKeysPerFlush in src/engine/accumulators.cc) and once more when
// the shard retires. With 3 workers over 3 * (2^19 + 4099) keys, every shard
// crosses that cadence once, so three shards flush into one grid
// concurrently with each other's consumption and retirement.
constexpr uint64_t kKeys = 3 * ((uint64_t{1} << 19) + 4099);

SingleByteGrid RunOnePosition(unsigned workers) {
  EngineOptions options;
  options.keys = kKeys;
  options.workers = workers;
  options.seed = 31;
  SingleByteAccumulator accumulator(1);
  RunKeystreamEngine(options, accumulator);
  return accumulator.TakeGrid();
}

TEST(StripedFlushTest, MidShardFlushesMatchOneWorker) {
  const SingleByteGrid one = RunOnePosition(1);
  const SingleByteGrid three = RunOnePosition(3);
  EXPECT_TRUE(one == three);
  for (const SingleByteGrid* grid : {&one, &three}) {
    EXPECT_EQ(grid->keys(), kKeys);
    uint64_t row_sum = 0;
    for (const uint64_t count : grid->Row(0)) {
      row_sum += count;
    }
    EXPECT_EQ(row_sum, kKeys);
  }
}

}  // namespace
}  // namespace rc4b
