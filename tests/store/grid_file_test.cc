#include "src/store/grid_file.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "src/store/shard_runner.h"

namespace rc4b::store {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

GridMeta SmallMeta(GridKind kind) {
  GridMeta meta;
  meta.kind = kind;
  meta.seed = 11;
  meta.key_begin = 0;
  meta.key_end = 512;
  switch (kind) {
    case GridKind::kSingleByte:
    case GridKind::kConsecutive:
      meta.rows = 8;
      break;
    case GridKind::kPair:
      meta.pairs = {{1, 3}, {2, 257}};
      meta.rows = meta.pairs.size();
      break;
    case GridKind::kLongTermDigraph:
      meta.rows = 256;
      meta.key_end = 4;
      meta.drop = 256;
      meta.bytes_per_key = 2048;
      break;
  }
  return meta;
}

// Flips one byte of the file at `offset` (negative: from the end).
void CorruptByte(const std::string& path, long offset) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good());
  file.seekg(offset, offset < 0 ? std::ios::end : std::ios::beg);
  char byte = 0;
  file.read(&byte, 1);
  byte ^= 0x40;
  file.seekp(offset, offset < 0 ? std::ios::end : std::ios::beg);
  file.write(&byte, 1);
}

TEST(GridFileTest, RoundTripsEveryKindBitExactly) {
  for (const GridKind kind :
       {GridKind::kSingleByte, GridKind::kConsecutive, GridKind::kPair,
        GridKind::kLongTermDigraph}) {
    SCOPED_TRACE(GridKindName(kind));
    const std::string path = TempPath("roundtrip.grid");
    const StoredGrid grid = GenerateStoredGrid(SmallMeta(kind), 2, 0);
    ASSERT_TRUE(WriteGridFile(path, grid.meta, grid.cells).ok());

    StoredGrid loaded;
    ASSERT_TRUE(ReadGridFile(path, &loaded).ok());
    EXPECT_EQ(loaded.meta, grid.meta);
    ASSERT_EQ(loaded.cells.size(), grid.cells.size());
    EXPECT_TRUE(std::equal(loaded.cells.begin(), loaded.cells.end(),
                           grid.cells.begin()));

    // The zero-copy view sees the same data.
    GridFileView view;
    ASSERT_TRUE(view.Open(path).ok());
    EXPECT_EQ(view.meta(), grid.meta);
    ASSERT_EQ(view.cells().size(), grid.cells.size());
    std::remove(path.c_str());
  }
}

// The checked-in fuzz seed was written before the CRC was sliced; it must
// keep validating, and its cells must still be the grid they describe.
TEST(GridFileTest, ReadsGridWrittenByEarlierCrc) {
  StoredGrid stored;
  const IoStatus status = ReadGridFile(
      RC4B_SOURCE_DIR "/tests/fuzz/corpus/fuzz_grid_file/valid", &stored);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(stored.meta.kind, GridKind::kSingleByte);
  EXPECT_EQ(stored.meta.keys(), 32u);
  EXPECT_EQ(stored.meta.rows, 2u);
  const StoredGrid regenerated = GenerateStoredGrid(stored.meta, 1, 1);
  EXPECT_TRUE(std::equal(stored.cells.begin(), stored.cells.end(),
                         regenerated.cells.begin(), regenerated.cells.end()));
}

TEST(GridFileTest, RejectsTruncatedFile) {
  const std::string path = TempPath("truncated.grid");
  const StoredGrid grid =
      GenerateStoredGrid(SmallMeta(GridKind::kSingleByte), 1, 0);
  ASSERT_TRUE(WriteGridFile(path, grid.meta, grid.cells).ok());

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_TRUE(
      WriteFileAtomic(path, std::string_view(bytes).substr(0, bytes.size() - 9))
          .ok());

  StoredGrid loaded;
  const IoStatus status = ReadGridFile(path, &loaded);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("truncated"), std::string::npos);
  EXPECT_NE(status.message().find(path), std::string::npos);
  std::remove(path.c_str());
}

TEST(GridFileTest, RejectsFlippedCellByte) {
  const std::string path = TempPath("flipped.grid");
  const StoredGrid grid =
      GenerateStoredGrid(SmallMeta(GridKind::kSingleByte), 1, 0);
  ASSERT_TRUE(WriteGridFile(path, grid.meta, grid.cells).ok());
  CorruptByte(path, -5);  // inside the cells section

  StoredGrid loaded;
  const IoStatus status = ReadGridFile(path, &loaded);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("cells section checksum"), std::string::npos);
  std::remove(path.c_str());
}

TEST(GridFileTest, RejectsFlippedMetaByte) {
  const std::string path = TempPath("flipped-meta.grid");
  const StoredGrid grid =
      GenerateStoredGrid(SmallMeta(GridKind::kConsecutive), 1, 0);
  ASSERT_TRUE(WriteGridFile(path, grid.meta, grid.cells).ok());
  CorruptByte(path, 56 + 8);  // the seed field of the meta section

  StoredGrid loaded;
  const IoStatus status = ReadGridFile(path, &loaded);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("meta section checksum"), std::string::npos);
  std::remove(path.c_str());
}

TEST(GridFileTest, RejectsWrongFormatVersion) {
  const std::string path = TempPath("version.grid");
  const StoredGrid grid =
      GenerateStoredGrid(SmallMeta(GridKind::kSingleByte), 1, 0);
  ASSERT_TRUE(WriteGridFile(path, grid.meta, grid.cells).ok());
  CorruptByte(path, 8);  // the version field

  StoredGrid loaded;
  const IoStatus status = ReadGridFile(path, &loaded);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("format version"), std::string::npos);
  std::remove(path.c_str());
}

TEST(GridFileTest, RejectsNonGridFile) {
  const std::string path = TempPath("notagrid.grid");
  ASSERT_TRUE(WriteFileAtomic(path, std::string(128, 'x')).ok());
  StoredGrid loaded;
  const IoStatus status = ReadGridFile(path, &loaded);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("bad magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(GridFileTest, CheckSameDatasetNamesTheMismatchedField) {
  const GridMeta want = SmallMeta(GridKind::kSingleByte);
  GridMeta got = want;
  got.seed = 99;
  IoStatus status = CheckSameDataset(want, got, "ctx");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("seed"), std::string::npos);

  got = want;
  got.kind = GridKind::kConsecutive;
  status = CheckSameDataset(want, got, "ctx");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("kind"), std::string::npos);

  // Key range, samples and interleave may differ between slices.
  got = want;
  got.key_begin = 100;
  got.key_end = 200;
  got.samples = 7;
  got.interleave = 4;
  EXPECT_TRUE(CheckSameDataset(want, got, "ctx").ok());
}

TEST(GridFileTest, ToGridRebuildsProbabilities) {
  const StoredGrid stored =
      GenerateStoredGrid(SmallMeta(GridKind::kSingleByte), 2, 0);
  const SingleByteGrid grid = ToSingleByteGrid(stored);
  EXPECT_EQ(grid.keys(), stored.meta.samples);
  double total = 0;
  for (int v = 0; v < 256; ++v) {
    total += grid.Probability(0, static_cast<uint8_t>(v));
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

}  // namespace
}  // namespace rc4b::store
