#include "src/engine/accumulators.h"

#include <algorithm>
#include <cassert>

namespace rc4b {

size_t GridStripes::NextStart() {
  static_assert((kStripes & (kStripes - 1)) == 0, "bit reversal needs 2^k");
  const size_t shard = shards_.fetch_add(1, std::memory_order_relaxed);
  size_t start = 0;
  for (size_t bit = 1; bit < kStripes; bit <<= 1) {
    start = (start << 1) | ((shard & bit) != 0 ? 1 : 0);
  }
  return start;
}

namespace {

// Flush cadence for 16-bit worker tiles, counted in keys: the one bound on
// tile counts. The largest per-cell probability across our short-term
// datasets is ~2 * 2^-8 (the Mantin–Shamir Z2 = 0 bias), so per-cell counts
// stay below ~2^12 per flush — a wide margin under the tile's 2^16 - 1 cap
// even with batch-sized overshoot. The 64-bit grid cannot wrap.
constexpr uint64_t kKeysPerFlush = 1 << 19;

// Shard sink shared by all short-term accumulators: a 16-bit tile that
// flushes straight into the accumulator's final 64-bit grid, one stripe at a
// time, every kKeysPerFlush keys and once more when the engine retires the
// shard.
class TileShardSink : public ShardSink {
 public:
  TileShardSink(std::span<uint64_t> grid, size_t row_cells, GridStripes& stripes)
      : tile_(grid.size()),
        grid_(grid),
        row_cells_(row_cells),
        stripes_(stripes),
        start_(stripes.NextStart()) {}

  void Flush() {
    stripes_.ForEach(start_, [&](size_t first, size_t last) {
      const size_t begin = first * row_cells_;
      tile_.FlushInto(grid_.subspan(begin, (last - first) * row_cells_), begin);
    });
    keys_since_flush_ = 0;
  }

 protected:
  void CountKeysAndMaybeFlush(size_t rows) {
    keys_since_flush_ += rows;
    if (keys_since_flush_ >= kKeysPerFlush) {
      Flush();
    }
  }

  WorkerTile tile_;

 private:
  std::span<uint64_t> grid_;
  size_t row_cells_;
  GridStripes& stripes_;
  size_t start_;
  uint64_t keys_since_flush_ = 0;
};

class SingleByteShardSink : public TileShardSink {
 public:
  SingleByteShardSink(SingleByteGrid& grid, GridStripes& stripes)
      : TileShardSink(grid.MutableCells(), 256, stripes), positions_(grid.positions()) {}

  void Consume(const KeystreamBatch& batch) override {
    // Position-major: all rows hit one 256-cell tile region before moving
    // on, so the working set per step is a few cache lines instead of the
    // whole tile (the add order changes, the counts cannot).
    for (size_t pos = 0; pos < positions_; ++pos) {
      const uint8_t* column = batch.data + pos;
      for (size_t r = 0; r < batch.rows; ++r) {
        tile_.Add(pos * 256 + column[r * batch.length]);
      }
    }
    CountKeysAndMaybeFlush(batch.rows);
  }

 private:
  size_t positions_;
};

class ConsecutiveShardSink : public TileShardSink {
 public:
  ConsecutiveShardSink(DigraphGrid& grid, GridStripes& stripes)
      : TileShardSink(grid.MutableCells(), 65536, stripes),
        positions_(grid.positions()) {}

  void Consume(const KeystreamBatch& batch) override {
    // Position-major (see SingleByteShardSink): for a 256-position digraph
    // tile the row-major order walked ~33 MB per key; this keeps each
    // position's 128 KB region hot for the whole batch. Cells are still
    // random within the region, so prefetch a few rows ahead.
    constexpr size_t kPrefetchRows = 16;
    for (size_t pos = 0; pos < positions_; ++pos) {
      const uint8_t* column = batch.data + pos;
      for (size_t r = 0; r < batch.rows; ++r) {
        if (r + kPrefetchRows < batch.rows) {
          const uint8_t* ahead = column + (r + kPrefetchRows) * batch.length;
          tile_.Prefetch(pos * 65536 + static_cast<size_t>(ahead[0]) * 256 +
                         ahead[1]);
        }
        const uint8_t* pair = column + r * batch.length;
        tile_.Add(pos * 65536 + static_cast<size_t>(pair[0]) * 256 + pair[1]);
      }
    }
    CountKeysAndMaybeFlush(batch.rows);
  }

 private:
  size_t positions_;
};

class PairShardSink : public TileShardSink {
 public:
  PairShardSink(const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
                DigraphGrid& grid, GridStripes& stripes)
      : TileShardSink(grid.MutableCells(), 65536, stripes), pairs_(pairs) {}

  void Consume(const KeystreamBatch& batch) override {
    // Pair-major for the same cache reasons as the other short-term sinks.
    for (size_t p = 0; p < pairs_.size(); ++p) {
      const size_t a = pairs_[p].first - 1;
      const size_t b = pairs_[p].second - 1;
      for (size_t r = 0; r < batch.rows; ++r) {
        const uint8_t* keystream = batch.data + r * batch.length;
        tile_.Add(p * 65536 + static_cast<size_t>(keystream[a]) * 256 +
                  keystream[b]);
      }
    }
    CountKeysAndMaybeFlush(batch.rows);
  }

 private:
  const std::vector<std::pair<uint32_t, uint32_t>>& pairs_;
};

}  // namespace

std::unique_ptr<ShardSink> SingleByteAccumulator::MakeShard() {
  return std::make_unique<SingleByteShardSink>(grid_, stripes_);
}

void SingleByteAccumulator::MergeShard(ShardSink& shard, uint64_t keys) {
  static_cast<TileShardSink&>(shard).Flush();
  grid_.AddKeys(keys);
}

std::unique_ptr<ShardSink> ConsecutiveAccumulator::MakeShard() {
  return std::make_unique<ConsecutiveShardSink>(grid_, stripes_);
}

void ConsecutiveAccumulator::MergeShard(ShardSink& shard, uint64_t keys) {
  static_cast<TileShardSink&>(shard).Flush();
  grid_.AddKeys(keys);
}

PairAccumulator::PairAccumulator(std::vector<std::pair<uint32_t, uint32_t>> pairs)
    : pairs_(std::move(pairs)),
      max_position_(0),
      grid_(pairs_.size()),
      stripes_(pairs_.size()) {
  for (const auto& [a, b] : pairs_) {
    assert(a >= 1 && a < b);
    max_position_ = std::max<size_t>(max_position_, b);
  }
}

std::unique_ptr<ShardSink> PairAccumulator::MakeShard() {
  return std::make_unique<PairShardSink>(pairs_, grid_, stripes_);
}

void PairAccumulator::MergeShard(ShardSink& shard, uint64_t keys) {
  static_cast<TileShardSink&>(shard).Flush();
  grid_.AddKeys(keys);
}

// ------------------------------------------------------------------------
// Long-term sinks.

namespace {

// Holds no counters: every window adds straight into the accumulator's
// grid, one stripe of counter classes at a time.
class LongTermDigraphShardSink : public StreamShardSink {
 public:
  LongTermDigraphShardSink(DigraphGrid& grid, GridStripes& stripes)
      : grid_(grid.MutableCells()), stripes_(stripes), start_(stripes.NextStart()) {}

  void ConsumeChunk(std::span<const uint8_t> chunk, size_t owned) override {
    // chunk_bytes is a 256-multiple and owned positions restart at 0 each
    // key, so owned position `off` always sits at counter class off % 256.
    // Class-major within a stripe: one class's 512 KB grid row takes every
    // block's digraph before the walk moves on. The cells are random within
    // the row, so prefetch kPrefetchBlocks blocks ahead.
    constexpr size_t kPrefetchBlocks = 32;
    stripes_.ForEach(start_, [&](size_t first, size_t last) {
      for (size_t off = first; off < last; ++off) {
        uint64_t* row = grid_.data() + off * 65536;
        const uint8_t* pair = chunk.data() + off;
        for (size_t base = 0; base < owned; base += 256, pair += 256) {
          if (base + kPrefetchBlocks * 256 < owned) {
            const uint8_t* ahead = pair + kPrefetchBlocks * 256;
            __builtin_prefetch(row + static_cast<size_t>(ahead[0]) * 256 + ahead[1], 1);
          }
          row[static_cast<size_t>(pair[0]) * 256 + pair[1]] += 1;
        }
      }
    });
  }

 private:
  std::span<uint64_t> grid_;
  GridStripes& stripes_;
  size_t start_;
};

class AbsabShardSink : public StreamShardSink {
 public:
  explicit AbsabShardSink(uint64_t max_gap) : matches_(max_gap + 1, 0) {}

  void ConsumeChunk(std::span<const uint8_t> chunk, size_t owned) override {
    const uint8_t* c = chunk.data();
    const size_t gaps = matches_.size();
    for (size_t r = 0; r < owned; ++r) {
      const uint8_t a = c[r];
      const uint8_t b = c[r + 1];
      for (size_t g = 0; g < gaps; ++g) {
        matches_[g] += (a == c[r + g + 2] && b == c[r + g + 3]) ? 1 : 0;
      }
    }
  }

  std::span<const uint64_t> matches() const { return matches_; }

 private:
  AlignedVector<uint64_t> matches_;
};

class AlignedPairShardSink : public StreamShardSink {
 public:
  AlignedPairShardSink(uint32_t offset_a, uint32_t offset_b)
      : offset_a_(offset_a), offset_b_(offset_b), cells_(65536, 0) {}

  void ConsumeChunk(std::span<const uint8_t> chunk, size_t owned) override {
    for (size_t base = 0; base < owned; base += 256) {
      const uint8_t* block = chunk.data() + base;
      cells_[static_cast<size_t>(block[offset_a_]) * 256 + block[offset_b_]] += 1;
    }
  }

  std::span<const uint64_t> cells() const { return cells_; }

 private:
  uint32_t offset_a_;
  uint32_t offset_b_;
  AlignedVector<uint64_t> cells_;
};

}  // namespace

std::unique_ptr<StreamShardSink> LongTermDigraphAccumulator::MakeShard() {
  return std::make_unique<LongTermDigraphShardSink>(grid_, stripes_);
}

void LongTermDigraphAccumulator::MergeShard(StreamShardSink& /*shard*/, uint64_t keys,
                                            uint64_t owned_per_key) {
  grid_.AddKeys(keys * (owned_per_key / 256));
}

std::unique_ptr<StreamShardSink> AbsabAccumulator::MakeShard() {
  return std::make_unique<AbsabShardSink>(max_gap_);
}

void AbsabAccumulator::MergeShard(StreamShardSink& shard, uint64_t keys,
                                  uint64_t owned_per_key) {
  const auto local = static_cast<AbsabShardSink&>(shard).matches();
  for (size_t g = 0; g < matches_.size(); ++g) {
    matches_[g] += local[g];
    samples_[g] += keys * owned_per_key;
  }
}

std::unique_ptr<StreamShardSink> AlignedPairAccumulator::MakeShard() {
  return std::make_unique<AlignedPairShardSink>(offset_a_, offset_b_);
}

void AlignedPairAccumulator::MergeShard(StreamShardSink& shard, uint64_t keys,
                                        uint64_t owned_per_key) {
  (void)keys;
  (void)owned_per_key;
  const auto local = static_cast<AlignedPairShardSink&>(shard).cells();
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += local[i];
  }
}

}  // namespace rc4b
