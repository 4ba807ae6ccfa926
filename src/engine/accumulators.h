// Concrete BiasAccumulator / StreamAccumulator implementations feeding the
// grids in src/stats/counters.h. These are the engine-side halves of every
// dataset in src/biases/dataset.h:
//
//   short-term (RunKeystreamEngine)        long-term (RunLongTermEngine)
//   ------------------------------------   ---------------------------------
//   SingleByteAccumulator   (Fig. 6)       LongTermDigraphAccumulator (Tab. 1)
//   ConsecutiveAccumulator  (Fig. 4/5)     AbsabAccumulator    (formula (1))
//   PairAccumulator         (Table 2)      AlignedPairAccumulator (form. (8))
//
// There is one layer of counters per grid: the accumulator's final 64-bit
// grid. Grid sinks add straight into it under the accumulator's row-striped
// locks (GridStripes). Short-term sinks count into a 16-bit worker tile first
// and flush it stripe by stripe; the long-term digraph sink adds each
// lockstep group of windows directly. The ABSAB and aligned-pair sinks keep
// small shard-local 64-bit blocks that MergeShard() adds in once per shard.
#ifndef SRC_ENGINE_ACCUMULATORS_H_
#define SRC_ENGINE_ACCUMULATORS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/engine/keystream_engine.h"
#include "src/stats/counters.h"

namespace rc4b {

// Row-striped locks over one accumulator's final grid. The grid's rows split
// into kStripes contiguous ranges, one lock each; a sink adds into the grid
// one stripe at a time with that stripe's lock held. Every shard walks the
// stripes from its own start, spread so that concurrent shards rarely meet.
// Integer addition commutes, so the grid is the same for every interleaving
// of the walks: bit-exact for any worker count.
class GridStripes {
 public:
  static constexpr size_t kStripes = 16;

  explicit GridStripes(size_t rows) : rows_(rows) {}

  // Start stripe for the next shard's walks. Consecutive shards get
  // bit-reversed indices (0, 8, 4, 12, 2, ...), so any power-of-two number
  // of shards starts evenly spaced.
  size_t NextStart();

  // Calls fn(first_row, last_row) once per non-empty stripe, in stripe order
  // from `start` (wrapping), holding that stripe's lock.
  template <typename Fn>
  void ForEach(size_t start, Fn&& fn) {
    for (size_t i = 0; i < kStripes; ++i) {
      const size_t s = (start + i) % kStripes;
      const size_t first = rows_ * s / kStripes;
      const size_t last = rows_ * (s + 1) / kStripes;
      if (first == last) {
        continue;
      }
      std::lock_guard<std::mutex> lock(locks_[s].mutex);
      fn(first, last);
    }
  }

 private:
  // One cache line per lock: neighbouring stripes are taken by different
  // shards at the same time.
  struct alignas(kCacheLineBytes) StripeLock {
    std::mutex mutex;
  };

  size_t rows_;
  std::array<StripeLock, kStripes> locks_;
  std::atomic<size_t> shards_{0};
};

// Counts of Z_r for 1 <= r <= positions (one count per key per position).
class SingleByteAccumulator : public BiasAccumulator {
 public:
  explicit SingleByteAccumulator(size_t positions)
      : positions_(positions), grid_(positions), stripes_(positions) {}

  size_t KeystreamLength() const override { return positions_; }
  std::unique_ptr<ShardSink> MakeShard() override;
  void MergeShard(ShardSink& shard, uint64_t keys) override;

  const SingleByteGrid& grid() const { return grid_; }
  SingleByteGrid TakeGrid() { return std::move(grid_); }

 private:
  size_t positions_;
  SingleByteGrid grid_;
  GridStripes stripes_;
};

// Counts of consecutive digraphs (Z_r, Z_{r+1}) for 1 <= r <= positions.
class ConsecutiveAccumulator : public BiasAccumulator {
 public:
  explicit ConsecutiveAccumulator(size_t positions)
      : positions_(positions), grid_(positions), stripes_(positions) {}

  size_t KeystreamLength() const override { return positions_ + 1; }
  std::unique_ptr<ShardSink> MakeShard() override;
  void MergeShard(ShardSink& shard, uint64_t keys) override;

  const DigraphGrid& grid() const { return grid_; }
  DigraphGrid TakeGrid() { return std::move(grid_); }

 private:
  size_t positions_;
  DigraphGrid grid_;
  GridStripes stripes_;
};

// Counts of (Z_a, Z_b) for arbitrary 1-based position pairs a < b; grid row p
// corresponds to pairs[p].
class PairAccumulator : public BiasAccumulator {
 public:
  explicit PairAccumulator(std::vector<std::pair<uint32_t, uint32_t>> pairs);

  size_t KeystreamLength() const override { return max_position_; }
  std::unique_ptr<ShardSink> MakeShard() override;
  void MergeShard(ShardSink& shard, uint64_t keys) override;

  const DigraphGrid& grid() const { return grid_; }
  DigraphGrid TakeGrid() { return std::move(grid_); }

 private:
  std::vector<std::pair<uint32_t, uint32_t>> pairs_;
  size_t max_position_;
  DigraphGrid grid_;
  GridStripes stripes_;
};

// Long-term digraphs (Z_r, Z_{r+1}) bucketed by (r - 1) mod 256 — row layout
// identical to GenerateLongTermDigraphDataset. grid().keys() counts digraph
// samples per row.
class LongTermDigraphAccumulator : public StreamAccumulator {
 public:
  LongTermDigraphAccumulator() : grid_(256), stripes_(256) {}

  size_t Lookahead() const override { return 1; }
  std::unique_ptr<StreamShardSink> MakeShard() override;
  void MergeShard(StreamShardSink& shard, uint64_t keys,
                  uint64_t owned_per_key) override;

  const DigraphGrid& grid() const { return grid_; }
  DigraphGrid TakeGrid() { return std::move(grid_); }

 private:
  DigraphGrid grid_;
  GridStripes stripes_;
};

// ABSAB match counts per gap g in [0, max_gap]: position r matches when
// Z_r = Z_{r+g+2} and Z_{r+1} = Z_{r+g+3}.
class AbsabAccumulator : public StreamAccumulator {
 public:
  explicit AbsabAccumulator(uint64_t max_gap)
      : max_gap_(max_gap),
        matches_(max_gap + 1, 0),
        samples_(max_gap + 1, 0) {}

  size_t Lookahead() const override { return static_cast<size_t>(max_gap_) + 3; }
  std::unique_ptr<StreamShardSink> MakeShard() override;
  void MergeShard(StreamShardSink& shard, uint64_t keys,
                  uint64_t owned_per_key) override;

  const std::vector<uint64_t>& matches() const { return matches_; }
  const std::vector<uint64_t>& samples() const { return samples_; }

 private:
  uint64_t max_gap_;
  std::vector<uint64_t> matches_;
  std::vector<uint64_t> samples_;
};

// 256-aligned digraphs (Z_{256w + a}, Z_{256w + b}) for one offset pair
// 0 <= a < b < 256, relative to the paper's Z_{256w} block numbering.
class AlignedPairAccumulator : public StreamAccumulator {
 public:
  AlignedPairAccumulator(uint32_t offset_a, uint32_t offset_b)
      : offset_a_(offset_a), offset_b_(offset_b), counts_(65536, 0) {}

  size_t Lookahead() const override { return 0; }
  // Realign so that owned position 0 sits on the paper's Z_{256w} boundary
  // (with drop a positive multiple of 256, the first post-drop byte is
  // Z_{drop+1}; skipping 255 more makes it Z_{drop+256}).
  uint64_t ExtraDrop() const override { return 255; }
  std::unique_ptr<StreamShardSink> MakeShard() override;
  void MergeShard(StreamShardSink& shard, uint64_t keys,
                  uint64_t owned_per_key) override;

  const std::vector<uint64_t>& counts() const { return counts_; }
  std::vector<uint64_t> TakeCounts() { return std::move(counts_); }

 private:
  uint32_t offset_a_;
  uint32_t offset_b_;
  std::vector<uint64_t> counts_;
};

}  // namespace rc4b

#endif  // SRC_ENGINE_ACCUMULATORS_H_
