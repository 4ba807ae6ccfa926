#include "src/stats/counters.h"

#include <cassert>

namespace rc4b {

void SingleByteGrid::Merge(const SingleByteGrid& other) {
  assert(positions_ == other.positions_);
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  keys_ += other.keys_;
}

void SingleByteGrid::MergeCells(std::span<const uint64_t> cells, uint64_t keys) {
  assert(cells.size() == counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += cells[i];
  }
  keys_ += keys;
}

bool operator==(const SingleByteGrid& a, const SingleByteGrid& b) {
  return a.positions_ == b.positions_ && a.keys_ == b.keys_ &&
         a.counts_ == b.counts_;
}

void DigraphGrid::Merge(const DigraphGrid& other) {
  assert(positions_ == other.positions_);
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  keys_ += other.keys_;
}

void DigraphGrid::MergeCells(std::span<const uint64_t> cells, uint64_t keys) {
  assert(cells.size() == counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += cells[i];
  }
  keys_ += keys;
}

bool operator==(const DigraphGrid& a, const DigraphGrid& b) {
  return a.positions_ == b.positions_ && a.keys_ == b.keys_ &&
         a.counts_ == b.counts_;
}

double DigraphGrid::MarginalFirst(size_t pos, uint8_t v) const {
  uint64_t sum = 0;
  const auto row = Row(pos);
  const size_t base = static_cast<size_t>(v) * 256;
  for (size_t y = 0; y < 256; ++y) {
    sum += row[base + y];
  }
  return static_cast<double>(sum) / static_cast<double>(keys_);
}

double DigraphGrid::MarginalSecond(size_t pos, uint8_t v) const {
  uint64_t sum = 0;
  const auto row = Row(pos);
  for (size_t x = 0; x < 256; ++x) {
    sum += row[x * 256 + v];
  }
  return static_cast<double>(sum) / static_cast<double>(keys_);
}

void WorkerTile::FlushInto(std::span<uint64_t> out, size_t first) {
  assert(first + out.size() <= counts_.size());
  uint16_t* cells = counts_.data() + first;
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] += cells[i];
    cells[i] = 0;
  }
}

}  // namespace rc4b
