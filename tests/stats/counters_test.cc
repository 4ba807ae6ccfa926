#include "src/stats/counters.h"

#include <gtest/gtest.h>

namespace rc4b {
namespace {

TEST(SingleByteGridTest, AddAndCount) {
  SingleByteGrid grid(4);
  grid.Add(0, 7);
  grid.Add(0, 7);
  grid.Add(3, 255, 5);
  EXPECT_EQ(grid.Count(0, 7), 2u);
  EXPECT_EQ(grid.Count(3, 255), 5u);
  EXPECT_EQ(grid.Count(1, 7), 0u);
}

TEST(SingleByteGridTest, MergeAddsCountsAndKeys) {
  SingleByteGrid a(2), b(2);
  a.Add(0, 1, 3);
  a.AddKeys(10);
  b.Add(0, 1, 4);
  b.Add(1, 2, 1);
  b.AddKeys(20);
  a.Merge(b);
  EXPECT_EQ(a.Count(0, 1), 7u);
  EXPECT_EQ(a.Count(1, 2), 1u);
  EXPECT_EQ(a.keys(), 30u);
}

TEST(SingleByteGridTest, ProbabilityNormalizesByKeys) {
  SingleByteGrid grid(1);
  grid.Add(0, 0, 50);
  grid.AddKeys(200);
  EXPECT_DOUBLE_EQ(grid.Probability(0, 0), 0.25);
}

TEST(DigraphGridTest, AddAndRow) {
  DigraphGrid grid(2);
  grid.Add(1, 3, 4, 6);
  EXPECT_EQ(grid.Count(1, 3, 4), 6u);
  EXPECT_EQ(grid.Row(1)[3 * 256 + 4], 6u);
  EXPECT_EQ(grid.Count(0, 3, 4), 0u);
}

TEST(DigraphGridTest, MarginalsSumCorrectly) {
  DigraphGrid grid(1);
  grid.Add(0, 10, 0, 3);
  grid.Add(0, 10, 200, 7);
  grid.Add(0, 99, 200, 10);
  grid.AddKeys(100);
  EXPECT_DOUBLE_EQ(grid.MarginalFirst(0, 10), 0.10);
  EXPECT_DOUBLE_EQ(grid.MarginalSecond(0, 200), 0.17);
  EXPECT_DOUBLE_EQ(grid.MarginalSecond(0, 0), 0.03);
}

TEST(DigraphGridTest, MergeConsistent) {
  DigraphGrid a(1), b(1);
  a.Add(0, 1, 2, 5);
  a.AddKeys(5);
  b.Add(0, 1, 2, 2);
  b.AddKeys(2);
  a.Merge(b);
  EXPECT_EQ(a.Count(0, 1, 2), 7u);
  EXPECT_EQ(a.keys(), 7u);
}

TEST(WorkerTileTest, FlushAddsAndZeroes) {
  WorkerTile tile(8);
  tile.Add(3);
  tile.Add(3);
  tile.Add(5);
  std::vector<uint64_t> out(8, 100);
  tile.FlushInto(out);
  EXPECT_EQ(out[3], 102u);
  EXPECT_EQ(out[5], 101u);
  EXPECT_EQ(out[0], 100u);
  // Second flush adds nothing: the tile was reset.
  tile.FlushInto(out);
  EXPECT_EQ(out[3], 102u);
}

TEST(WorkerTileTest, RangeFlushTouchesOnlyItsCells) {
  // The engine flushes a tile one grid stripe at a time: cells outside the
  // flushed range must keep their counts until their own stripe's turn.
  WorkerTile tile(8);
  tile.Add(1);
  tile.Add(5);
  tile.Add(6);
  std::vector<uint64_t> grid(8, 0);
  tile.FlushInto(std::span<uint64_t>(grid).subspan(4, 3), 4);
  EXPECT_EQ(grid, (std::vector<uint64_t>{0, 0, 0, 0, 0, 1, 1, 0}));
  tile.FlushInto(grid);
  EXPECT_EQ(grid, (std::vector<uint64_t>{0, 1, 0, 0, 0, 1, 1, 0}));
}

TEST(WorkerTileTest, ManyIncrementsBelowCap) {
  WorkerTile tile(1);
  for (int i = 0; i < 60000; ++i) {
    tile.Add(0);
  }
  std::vector<uint64_t> out(1, 0);
  tile.FlushInto(out);
  EXPECT_EQ(out[0], 60000u);
}

}  // namespace
}  // namespace rc4b
