#include "src/engine/keystream_engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/biases/bias_scan.h"
#include "src/biases/dataset.h"
#include "src/engine/accumulators.h"
#include "src/rc4/keygen.h"
#include "src/rc4/rc4.h"

namespace rc4b {
namespace {

// The engine's core guarantee: key k is key number k of one AES-CTR stream
// regardless of sharding, so merged counters are bit-identical for any
// worker count. These tests pin that with deterministic seeds.

EngineOptions Options(uint64_t keys, unsigned workers, uint64_t seed) {
  EngineOptions options;
  options.keys = keys;
  options.workers = workers;
  options.seed = seed;
  return options;
}

SingleByteGrid RunSingleByte(size_t positions, const EngineOptions& options) {
  SingleByteAccumulator accumulator(positions);
  RunKeystreamEngine(options, accumulator);
  return accumulator.TakeGrid();
}

DigraphGrid RunConsecutive(size_t positions, const EngineOptions& options) {
  ConsecutiveAccumulator accumulator(positions);
  RunKeystreamEngine(options, accumulator);
  return accumulator.TakeGrid();
}

void ExpectGridsEqual(const SingleByteGrid& a, const SingleByteGrid& b) {
  ASSERT_EQ(a.positions(), b.positions());
  ASSERT_EQ(a.keys(), b.keys());
  for (size_t pos = 0; pos < a.positions(); ++pos) {
    for (int v = 0; v < 256; ++v) {
      ASSERT_EQ(a.Count(pos, static_cast<uint8_t>(v)),
                b.Count(pos, static_cast<uint8_t>(v)))
          << "pos=" << pos << " v=" << v;
    }
  }
}

void ExpectGridsEqual(const DigraphGrid& a, const DigraphGrid& b) {
  ASSERT_EQ(a.positions(), b.positions());
  ASSERT_EQ(a.keys(), b.keys());
  for (size_t pos = 0; pos < a.positions(); ++pos) {
    const auto row_a = a.Row(pos);
    const auto row_b = b.Row(pos);
    for (size_t cell = 0; cell < row_a.size(); ++cell) {
      ASSERT_EQ(row_a[cell], row_b[cell]) << "pos=" << pos << " cell=" << cell;
    }
  }
}

// More shards than grid lock stripes: at least two shards start their
// stripe walks on the same stripe.
constexpr unsigned kMoreShardsThanStripes = GridStripes::kStripes + 1;

TEST(KeystreamEngineTest, SingleByteShardingIsBitExact) {
  // 20001 keys do not divide evenly into 4 or 7 shards; counts must still
  // match the single-shard reference exactly.
  const auto reference = RunSingleByte(8, Options(20001, 1, 3));
  ExpectGridsEqual(reference, RunSingleByte(8, Options(20001, 4, 3)));
  ExpectGridsEqual(reference, RunSingleByte(8, Options(20001, 7, 3)));
  ExpectGridsEqual(reference,
                   RunSingleByte(8, Options(20001, kMoreShardsThanStripes, 3)));
}

TEST(KeystreamEngineTest, ConsecutiveShardingIsBitExact) {
  const auto reference = RunConsecutive(4, Options(6007, 1, 5));
  ExpectGridsEqual(reference, RunConsecutive(4, Options(6007, 3, 5)));
  ExpectGridsEqual(reference,
                   RunConsecutive(4, Options(6007, kMoreShardsThanStripes, 5)));
}

TEST(KeystreamEngineTest, PairShardingIsBitExact) {
  const std::vector<std::pair<uint32_t, uint32_t>> pairs = {{1, 2}, {3, 16}};
  PairAccumulator single(pairs);
  RunKeystreamEngine(Options(5000, 1, 7), single);
  PairAccumulator sharded(pairs);
  RunKeystreamEngine(Options(5000, 5, 7), sharded);
  ExpectGridsEqual(single.grid(), sharded.grid());
  PairAccumulator many(pairs);
  RunKeystreamEngine(Options(5000, kMoreShardsThanStripes, 7), many);
  ExpectGridsEqual(single.grid(), many.grid());
}

TEST(KeystreamEngineTest, BatchSizeDoesNotChangeCounts) {
  EngineOptions options = Options(4096, 2, 9);
  options.batch_keys = 1;
  const auto one = RunSingleByte(4, options);
  options.batch_keys = 64;
  const auto sixty_four = RunSingleByte(4, options);
  options.batch_keys = 333;
  const auto uneven = RunSingleByte(4, options);
  ExpectGridsEqual(one, sixty_four);
  ExpectGridsEqual(one, uneven);
}

TEST(KeystreamEngineTest, DropShiftsKeystreamPositions) {
  // With drop=2, engine position 0 is Z_3: its counts must equal position 2
  // of a no-drop run over the same keys.
  EngineOptions options = Options(4096, 2, 11);
  const auto plain = RunSingleByte(4, options);
  options.drop = 2;
  const auto dropped = RunSingleByte(2, options);
  for (int v = 0; v < 256; ++v) {
    ASSERT_EQ(dropped.Count(0, static_cast<uint8_t>(v)),
              plain.Count(2, static_cast<uint8_t>(v)));
    ASSERT_EQ(dropped.Count(1, static_cast<uint8_t>(v)),
              plain.Count(3, static_cast<uint8_t>(v)));
  }
}

TEST(KeystreamEngineTest, DatasetWrappersRideTheEngine) {
  // GenerateSingleByteDataset must be the engine verbatim: same seed, same
  // counts, independent of each side's worker count.
  DatasetOptions dataset;
  dataset.keys = 5000;
  dataset.workers = 3;
  dataset.seed = 13;
  const auto wrapped = GenerateSingleByteDataset(6, dataset);
  const auto direct = RunSingleByte(6, Options(5000, 1, 13));
  ExpectGridsEqual(wrapped, direct);
}

TEST(KeystreamEngineTest, EngineScansDetectKnownBiases) {
  // The one-shot engine-backed scans: Z2 (Mantin–Shamir) must be flagged
  // biased and (Z1, Z2) dependent; 2^17 keys give >20-sigma signals.
  const auto single = ScanSingleBytesWithEngine(4, Options(1 << 17, 0, 2));
  ASSERT_EQ(single.size(), 4u);
  EXPECT_TRUE(single[1].biased) << "Z2 p_adj=" << single[1].p_adjusted;
  EXPECT_FALSE(single[2].biased);

  const auto pairs = ScanConsecutiveDigraphsWithEngine(2, Options(1 << 17, 0, 2));
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_TRUE(pairs[0].dependent) << "(Z1,Z2) p_adj=" << pairs[0].p_adjusted;
}

TEST(LongTermEngineTest, StreamingShardingIsBitExact) {
  LongTermEngineOptions options;
  options.keys = 6;
  options.bytes_per_key = 1 << 14;
  options.drop = 1024;
  options.seed = 17;
  options.chunk_bytes = 1 << 12;

  options.workers = 1;
  LongTermDigraphAccumulator single;
  RunLongTermEngine(options, single);
  options.workers = 4;
  LongTermDigraphAccumulator sharded;
  RunLongTermEngine(options, sharded);
  ExpectGridsEqual(single.grid(), sharded.grid());

  options.workers = 1;
  AbsabAccumulator absab_single(6);
  RunLongTermEngine(options, absab_single);
  options.workers = 3;
  AbsabAccumulator absab_sharded(6);
  RunLongTermEngine(options, absab_sharded);
  EXPECT_EQ(absab_single.matches(), absab_sharded.matches());
  EXPECT_EQ(absab_single.samples(), absab_sharded.samples());

  options.workers = 1;
  AlignedPairAccumulator aligned_single(0, 2);
  RunLongTermEngine(options, aligned_single);
  options.workers = 4;
  AlignedPairAccumulator aligned_sharded(0, 2);
  RunLongTermEngine(options, aligned_sharded);
  EXPECT_EQ(aligned_single.counts(), aligned_sharded.counts());

  // Enough keys for one shard per worker when shards outnumber the stripes.
  options.keys = kMoreShardsThanStripes + 2;
  options.workers = 1;
  LongTermDigraphAccumulator many_single;
  RunLongTermEngine(options, many_single);
  options.workers = kMoreShardsThanStripes;
  LongTermDigraphAccumulator many_sharded;
  RunLongTermEngine(options, many_sharded);
  ExpectGridsEqual(many_single.grid(), many_sharded.grid());
}

TEST(LongTermEngineTest, ChunkSizeDoesNotChangeCounts) {
  LongTermEngineOptions options;
  options.keys = 4;
  // Not a multiple of any power-of-two chunk: exercises the tail window.
  options.bytes_per_key = (1 << 14) + 512;
  options.drop = 256;
  options.seed = 19;
  options.workers = 2;

  options.chunk_bytes = 1 << 14;
  LongTermDigraphAccumulator coarse;
  RunLongTermEngine(options, coarse);
  options.chunk_bytes = 256;
  LongTermDigraphAccumulator fine;
  RunLongTermEngine(options, fine);
  options.chunk_bytes = 3 * 256;  // does not divide bytes_per_key
  LongTermDigraphAccumulator uneven;
  RunLongTermEngine(options, uneven);
  ExpectGridsEqual(coarse.grid(), fine.grid());
  ExpectGridsEqual(coarse.grid(), uneven.grid());
  // Every whole 256-byte block must be consumed: 65 blocks per key.
  EXPECT_EQ(coarse.grid().keys(), 4u * (options.bytes_per_key / 256));
}

// The long-term digraph grid against a plain count off the scalar Rc4: each
// (Z_r, Z_{r+1}) of every key lands in class (r - 1) mod 256. The other
// long-term tests compare the engine with itself, where both sides run the
// same walk. 70 keys are one 64-lane group plus scalar remainder keys (at
// auto width, one worker), and 4 workers walk the stripes concurrently.
// bytes_per_key is not a multiple of 3 * 256 or of 2^18, so those windows
// leave a tail; chunk 256 gives each class visit fewer than 8 digraphs per
// lane, and a full 64-lane 2^18 group streams whole next-class rows.
TEST(LongTermEngineTest, DigraphGridMatchesTextbookCount) {
  LongTermEngineOptions options;
  options.keys = 70;
  options.bytes_per_key = (uint64_t{1} << 18) + 3 * 256;
  options.drop = 1024;
  options.seed = 23;

  std::vector<uint32_t> expected(256 * 65536, 0);
  Rc4KeyGenerator keygen(options.seed);
  std::vector<uint8_t> z(options.bytes_per_key + 1);
  for (uint64_t k = 0; k < options.keys; ++k) {
    const auto key = keygen.NextKey();
    Rc4 rc4(key);
    rc4.Skip(options.drop);
    rc4.Keystream(z);
    for (size_t r = 1; r <= options.bytes_per_key; ++r) {
      expected[(r - 1) % 256 * 65536 + size_t{z[r - 1]} * 256 + z[r]] += 1;
    }
  }

  for (const unsigned workers : {1u, 4u}) {
    for (const size_t chunk : {size_t{256}, size_t{3 * 256}, size_t{1} << 18}) {
      options.workers = workers;
      options.chunk_bytes = chunk;
      LongTermDigraphAccumulator accumulator;
      RunLongTermEngine(options, accumulator);
      const DigraphGrid& grid = accumulator.grid();
      EXPECT_EQ(grid.keys(), options.keys * (options.bytes_per_key / 256));
      size_t mismatches = 0;
      size_t first_mismatch = 0;
      for (size_t pos = 0; pos < 256; ++pos) {
        const auto row = grid.Row(pos);
        for (size_t cell = 0; cell < 65536; ++cell) {
          if (row[cell] != expected[pos * 65536 + cell] && mismatches++ == 0) {
            first_mismatch = pos * 65536 + cell;
          }
        }
      }
      EXPECT_EQ(mismatches, 0u) << "workers=" << workers << " chunk=" << chunk
                                << " first at class=" << first_mismatch / 65536
                                << " cell=" << first_mismatch % 65536;
    }
  }
}

}  // namespace
}  // namespace rc4b
