// Counter grids for keystream statistics.
//
// Mirrors the paper's dataset-generation optimizations (Sect. 3.2): workers
// accumulate into 16-bit counters (WorkerTile, cache friendly) and
// periodically flush them into 64-bit grids. Grids are indexed
// (position, value) for single-byte statistics and (position, value1,
// value2) for digraph statistics.
#ifndef SRC_STATS_COUNTERS_H_
#define SRC_STATS_COUNTERS_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <vector>

namespace rc4b {

// Cache-line alignment for counter storage: engine shards write their worker
// tiles from one thread each, and aligning every tile (and every grid) to its
// own cache lines keeps false sharing out of the hot loop.
inline constexpr size_t kCacheLineBytes = 64;

template <typename T>
class CacheAlignedAllocator {
 public:
  using value_type = T;

  CacheAlignedAllocator() noexcept = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kCacheLineBytes}));
  }
  void deallocate(T* p, size_t) noexcept {
    ::operator delete(p, std::align_val_t{kCacheLineBytes});
  }

  template <typename U>
  bool operator==(const CacheAlignedAllocator<U>&) const noexcept {
    return true;
  }
};

template <typename T>
using AlignedVector = std::vector<T, CacheAlignedAllocator<T>>;

// counts[pos * 256 + value] over `positions` keystream positions.
class SingleByteGrid {
 public:
  explicit SingleByteGrid(size_t positions)
      : positions_(positions), counts_(positions * 256, 0) {}

  void Add(size_t pos, uint8_t value, uint64_t n = 1) {
    counts_[pos * 256 + value] += n;
  }

  uint64_t Count(size_t pos, uint8_t value) const { return counts_[pos * 256 + value]; }

  // All 256 counts at `pos`.
  std::span<const uint64_t> Row(size_t pos) const {
    return std::span<const uint64_t>(counts_).subspan(pos * 256, 256);
  }

  size_t positions() const { return positions_; }
  uint64_t keys() const { return keys_; }
  void AddKeys(uint64_t n) { keys_ += n; }

  // Raw cell storage (pos-major) for the engine's striped adds.
  std::span<uint64_t> MutableCells() { return counts_; }
  // Read-only view of all cells (pos-major) — the grid store serializes this
  // block verbatim (src/store/grid_file.h).
  std::span<const uint64_t> Cells() const { return counts_; }

  // Merges another grid (e.g. a worker shard) into this one.
  void Merge(const SingleByteGrid& other);

  // Adds a raw cell block (same pos-major layout) plus its key count.
  void MergeCells(std::span<const uint64_t> cells, uint64_t keys);

  // Exact equality of positions, key count and every cell (merge
  // bit-exactness checks).
  friend bool operator==(const SingleByteGrid& a, const SingleByteGrid& b);

  // Empirical probability estimate Pr[Z_pos = value].
  double Probability(size_t pos, uint8_t value) const {
    return static_cast<double>(Count(pos, value)) / static_cast<double>(keys_);
  }

 private:
  size_t positions_;
  AlignedVector<uint64_t> counts_;
  uint64_t keys_ = 0;
};

// counts[pos * 65536 + v1 * 256 + v2] for consecutive-byte (digraph)
// statistics: pair (Z_{pos+1}, Z_{pos+2}) in 1-based paper numbering.
class DigraphGrid {
 public:
  explicit DigraphGrid(size_t positions)
      : positions_(positions), counts_(positions * 65536, 0) {}

  void Add(size_t pos, uint8_t v1, uint8_t v2, uint64_t n = 1) {
    counts_[pos * 65536 + static_cast<size_t>(v1) * 256 + v2] += n;
  }

  uint64_t Count(size_t pos, uint8_t v1, uint8_t v2) const {
    return counts_[pos * 65536 + static_cast<size_t>(v1) * 256 + v2];
  }

  std::span<const uint64_t> Row(size_t pos) const {
    return std::span<const uint64_t>(counts_).subspan(pos * 65536, 65536);
  }

  size_t positions() const { return positions_; }
  uint64_t keys() const { return keys_; }
  void AddKeys(uint64_t n) { keys_ += n; }

  // Raw cell storage (pos-major) for the engine's striped adds.
  std::span<uint64_t> MutableCells() { return counts_; }
  // Read-only view of all cells (pos-major, see src/store/grid_file.h).
  std::span<const uint64_t> Cells() const { return counts_; }

  void Merge(const DigraphGrid& other);

  // Adds a raw cell block (same pos-major layout) plus its key count.
  void MergeCells(std::span<const uint64_t> cells, uint64_t keys);

  friend bool operator==(const DigraphGrid& a, const DigraphGrid& b);

  double Probability(size_t pos, uint8_t v1, uint8_t v2) const {
    return static_cast<double>(Count(pos, v1, v2)) / static_cast<double>(keys_);
  }

  // Marginal Pr[Z_{pos(first)} = v] obtained by summing the second byte,
  // i.e. formula (6) in the paper.
  double MarginalFirst(size_t pos, uint8_t v) const;
  double MarginalSecond(size_t pos, uint8_t v) const;

 private:
  size_t positions_;
  AlignedVector<uint64_t> counts_;
  uint64_t keys_ = 0;
};

// 16-bit worker-local tile that flushes into a 64-bit grid. A cell wraps
// silently past 2^16 - 1 Add()s between flushes; the engine's flush cadence
// and why it stays under that cap are stated once, at kKeysPerFlush in
// src/engine/accumulators.cc.
class WorkerTile {
 public:
  explicit WorkerTile(size_t cells) : counts_(cells, 0) {}

  void Add(size_t cell) { ++counts_[cell]; }

  // Hints the prefetcher at a cell that Add() will touch shortly. Counter
  // cells are data-dependent random accesses, so a short software-prefetch
  // pipeline hides most of their cache/TLB latency in the consume loops.
  void Prefetch(size_t cell) const { __builtin_prefetch(&counts_[cell], 1); }

  // Adds tile cells [first, first + out.size()) into `out` and zeroes them,
  // so a flush can run one grid stripe at a time.
  void FlushInto(std::span<uint64_t> out, size_t first = 0);

  size_t cells() const { return counts_.size(); }

 private:
  AlignedVector<uint16_t> counts_;
};

}  // namespace rc4b

#endif  // SRC_STATS_COUNTERS_H_
