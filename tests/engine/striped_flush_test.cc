#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/accumulators.h"
#include "src/engine/keystream_engine.h"

namespace rc4b {
namespace {

// Short-term sinks flush their 16-bit worker tiles into the shared grid before
// a batch would take them past 2^16 - 1 keys (kKeysPerFlush in
// src/engine/accumulators.cc) and once more when the shard retires. With 3
// workers over 3 * (2^19 + 4099) keys, every shard crosses that cadence
// several times, so three shards flush into one grid concurrently with each
// other's consumption and retirement.
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

// A degenerate keystream: every key adds to the same cell of every row. Past
// 2^16 - 1 keys between flushes a 16-bit tile cell would wrap (70000 would
// read 4464); the sinks must flush before that.
constexpr size_t kDegenerateKeys = 70000;

// Feeds `keys` identical rows of `length` zero bytes to one shard sink of
// `accumulator`, `batch_rows` rows per Consume().
template <typename Accumulator>
void FeedZeroRows(Accumulator& accumulator, size_t length, size_t keys,
                  size_t batch_rows) {
  const std::vector<uint8_t> rows(batch_rows * length, 0);
  std::unique_ptr<ShardSink> shard = accumulator.MakeShard();
  for (size_t done = 0; done < keys; done += batch_rows) {
    KeystreamBatch batch;
    batch.data = rows.data();
    batch.rows = std::min(batch_rows, keys - done);
    batch.length = length;
    shard->Consume(batch);
  }
  accumulator.MergeShard(*shard, keys);
}

TEST(StripedFlushTest, TileCellsCannotWrapOnDegenerateKeystreams) {
  // One batch larger than the cadence, and many small batches across it.
  for (const size_t batch_rows : {kDegenerateKeys, size_t{1000}}) {
    SCOPED_TRACE(batch_rows);
    SingleByteAccumulator single(3);
    FeedZeroRows(single, single.KeystreamLength(), kDegenerateKeys, batch_rows);
    ConsecutiveAccumulator digraph(2);
    FeedZeroRows(digraph, digraph.KeystreamLength(), kDegenerateKeys,
                 batch_rows);
    for (size_t pos = 0; pos < 3; ++pos) {
      EXPECT_EQ(single.grid().Count(pos, 0), kDegenerateKeys);
    }
    for (size_t pos = 0; pos < 2; ++pos) {
      EXPECT_EQ(digraph.grid().Count(pos, 0, 0), kDegenerateKeys);
    }
  }
}

}  // namespace
}  // namespace rc4b
