// Unit tests for storage/file_block.h: the on-disk block format, CRC
// verification, and corruption handling.

#include <gtest/gtest.h>

#include <sys/types.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "storage/file_block.h"
#include "util/rng.h"

namespace isla {
namespace storage {
namespace {

class FileBlockTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("isla_fb_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(FileBlockTest, RoundTripSmall) {
  std::vector<double> values = {1.5, -2.5, 3.25, 0.0};
  ASSERT_TRUE(WriteBlockFile(Path("a.islb"), values).ok());
  auto block = FileBlock::Open(Path("a.islb"));
  ASSERT_TRUE(block.ok()) << block.status();
  EXPECT_EQ((*block)->size(), 4u);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_DOUBLE_EQ((*block)->ValueAt(i), values[i]);
  }
  EXPECT_EQ((*block)->ContiguousView().size(), values.size());
}

TEST_F(FileBlockTest, RoundTripLargeCrossesChunks) {
  std::vector<double> values;
  Xoshiro256 rng(1);
  for (int i = 0; i < 20000; ++i) values.push_back(rng.NextDouble() * 100);
  ASSERT_TRUE(WriteBlockFile(Path("b.islb"), values).ok());
  auto block = FileBlock::Open(Path("b.islb"));
  ASSERT_TRUE(block.ok());
  // Random access across the whole payload.
  Xoshiro256 access(2);
  for (int i = 0; i < 1000; ++i) {
    uint64_t idx = access.NextBounded(values.size());
    EXPECT_DOUBLE_EQ((*block)->ValueAt(idx), values[idx]);
  }
}

TEST_F(FileBlockTest, ReadRangeMatchesPayload) {
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) values.push_back(static_cast<double>(i));
  ASSERT_TRUE(WriteBlockFile(Path("c.islb"), values).ok());
  auto block = FileBlock::Open(Path("c.islb"));
  ASSERT_TRUE(block.ok());
  std::vector<double> out;
  ASSERT_TRUE((*block)->ReadRange(4000, 1000, &out).ok());
  EXPECT_EQ(out.size(), 1000u);
  EXPECT_DOUBLE_EQ(out.front(), 4000.0);
  EXPECT_DOUBLE_EQ(out.back(), 4999.0);
}

TEST_F(FileBlockTest, ReadRangeOutOfBounds) {
  ASSERT_TRUE(WriteBlockFile(Path("d.islb"), std::vector<double>{1.0}).ok());
  auto block = FileBlock::Open(Path("d.islb"));
  ASSERT_TRUE(block.ok());
  std::vector<double> out;
  EXPECT_TRUE((*block)->ReadRange(0, 2, &out).IsOutOfRange());
}

TEST_F(FileBlockTest, EmptyPayloadRoundTrips) {
  ASSERT_TRUE(WriteBlockFile(Path("e.islb"), std::vector<double>{}).ok());
  auto block = FileBlock::Open(Path("e.islb"));
  ASSERT_TRUE(block.ok());
  EXPECT_EQ((*block)->size(), 0u);
}

TEST_F(FileBlockTest, MissingFileIsIOError) {
  auto block = FileBlock::Open(Path("nope.islb"));
  EXPECT_TRUE(block.status().IsIOError());
}

TEST_F(FileBlockTest, BadMagicIsCorruption) {
  std::ofstream f(Path("bad.islb"), std::ios::binary);
  f << "XXXXGARBAGEGARBAGEGARBAGE";
  f.close();
  auto block = FileBlock::Open(Path("bad.islb"));
  EXPECT_TRUE(block.status().IsCorruption());
}

TEST_F(FileBlockTest, TruncatedHeaderIsCorruption) {
  std::ofstream f(Path("trunc.islb"), std::ios::binary);
  f << "IS";
  f.close();
  auto block = FileBlock::Open(Path("trunc.islb"));
  EXPECT_TRUE(block.status().IsCorruption());
}

TEST_F(FileBlockTest, FlippedPayloadBitFailsCrc) {
  std::vector<double> values(100, 1.0);
  ASSERT_TRUE(WriteBlockFile(Path("flip.islb"), values).ok());
  // Flip one payload byte in place.
  std::fstream f(Path("flip.islb"),
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(16 + 50 * 8 + 3);
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(16 + 50 * 8 + 3);
  byte = static_cast<char>(byte ^ 0x40);
  f.write(&byte, 1);
  f.close();
  auto block = FileBlock::Open(Path("flip.islb"));
  EXPECT_TRUE(block.status().IsCorruption())
      << "expected CRC mismatch, got: " << block.status();
}

TEST_F(FileBlockTest, TruncatedPayloadIsCorruption) {
  std::vector<double> values(100, 2.0);
  ASSERT_TRUE(WriteBlockFile(Path("short.islb"), values).ok());
  std::filesystem::resize_file(Path("short.islb"), 16 + 40 * 8);
  auto block = FileBlock::Open(Path("short.islb"));
  EXPECT_TRUE(block.status().IsCorruption());
}

// The cases below pin the checks that run before Open reads any payload
// byte: a wrong length check there is a SIGBUS, not an error.

TEST_F(FileBlockTest, ZeroByteFileIsCorruption) {
  std::ofstream(Path("zero.islb"), std::ios::binary).close();
  auto block = FileBlock::Open(Path("zero.islb"));
  EXPECT_TRUE(block.status().IsCorruption()) << block.status();
}

TEST_F(FileBlockTest, UnsupportedVersionIsCorruption) {
  ASSERT_TRUE(WriteBlockFile(Path("v2.islb"), std::vector<double>{1.0}).ok());
  std::fstream f(Path("v2.islb"),
                 std::ios::binary | std::ios::in | std::ios::out);
  const uint32_t version = 2;
  f.seekp(4);
  f.write(reinterpret_cast<const char*>(&version), sizeof(version));
  f.close();
  auto block = FileBlock::Open(Path("v2.islb"));
  EXPECT_TRUE(block.status().IsCorruption()) << block.status();
}

TEST_F(FileBlockTest, MissingCrcFooterIsCorruption) {
  std::vector<double> values(100, 3.0);
  ASSERT_TRUE(WriteBlockFile(Path("nofooter.islb"), values).ok());
  std::filesystem::resize_file(Path("nofooter.islb"), 16 + 100 * 8);
  auto block = FileBlock::Open(Path("nofooter.islb"));
  EXPECT_TRUE(block.status().IsCorruption()) << block.status();
}

TEST_F(FileBlockTest, RowCountOverflowIsCorruption) {
  // 2^61 rows put the footer at byte 16 + 2^64, which wraps to 16 in u64
  // arithmetic. The file holds exactly that: a header and the CRC of an
  // empty payload (0), so only a check that cannot wrap refuses it.
  const uint32_t version = 1;
  const uint64_t rows = uint64_t{1} << 61;
  const uint32_t crc = 0;
  std::ofstream f(Path("huge.islb"), std::ios::binary);
  f.write("ISLB", 4);
  f.write(reinterpret_cast<const char*>(&version), sizeof(version));
  f.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
  f.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  f.close();
  auto block = FileBlock::Open(Path("huge.islb"));
  EXPECT_TRUE(block.status().IsCorruption()) << block.status();
}

TEST_F(FileBlockTest, Crc32KnownVector) {
  // CRC32("123456789") = 0xCBF43926 (IEEE check value).
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

TEST_F(FileBlockTest, Crc32EmptyIsZero) {
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST_F(FileBlockTest, Crc32PinnedVectors) {
  // Pins the CRC across implementation changes (the slice-by-8 rewrite
  // must keep the block format byte-compatible). Values independently
  // computed with zlib's crc32, the same IEEE polynomial.
  std::vector<unsigned char> bytes(256);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<unsigned char>(i);
  }
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()), 0x29058c73u);

  std::vector<unsigned char> big;
  for (int rep = 0; rep < 37; ++rep) {
    big.insert(big.end(), bytes.begin(), bytes.end());
  }
  EXPECT_EQ(Crc32(big.data(), big.size()), 0x97ac7cf5u);  // 9472 bytes

  const unsigned char zeros[7] = {0};  // shorter than one 8-byte slice
  EXPECT_EQ(Crc32(zeros, sizeof(zeros)), 0x9d6cdf7eu);

  const char* text = "ISLA block format stays pinned forever";
  EXPECT_EQ(Crc32(text, 38), 0x6b51c147u);
}

TEST_F(FileBlockTest, Crc32IncrementalMatchesOneShot) {
  // Arbitrary split points, including mid-slice ones, must agree with the
  // one-shot CRC: BlockFileWriter folds each Append into a running CRC.
  std::vector<unsigned char> data(3000);
  Xoshiro256 rng(5);
  for (auto& b : data) b = static_cast<unsigned char>(rng.NextBounded(256));
  const uint32_t whole = Crc32(data.data(), data.size());
  for (size_t split : {size_t{1}, size_t{7}, size_t{8}, size_t{13},
                       size_t{1024}, size_t{2999}}) {
    uint32_t state = kCrc32Init;
    state = Crc32Update(state, data.data(), split);
    state = Crc32Update(state, data.data() + split, data.size() - split);
    EXPECT_EQ(Crc32Finalize(state), whole) << "split at " << split;
  }
}

TEST_F(FileBlockTest, PayloadOffsetArithmeticIs64Bit) {
  // Regression for the old static_cast<long> seek offsets: on ILP32
  // platforms `long` is 32 bits and rows past 2 GiB of payload truncated.
  // The offset helper must stay exact in uint64_t, and off_t must be 64
  // bits so fstat and mmap handle block files over 2 GiB.
  EXPECT_EQ(BlockPayloadByteOffset(0), 16u);
  EXPECT_EQ(BlockPayloadByteOffset(1), 24u);
  // Row 400M sits at 3.2 GB — past INT32_MAX, where a long cast on ILP32
  // went negative; row 600M is past UINT32_MAX, where even an unsigned
  // 32-bit cast wraps.
  EXPECT_EQ(BlockPayloadByteOffset(400'000'000ULL), 3'200'000'016ULL);
  EXPECT_GT(BlockPayloadByteOffset(400'000'000ULL), uint64_t{1} << 31);
  EXPECT_EQ(BlockPayloadByteOffset(600'000'000ULL), 4'800'000'016ULL);
  EXPECT_GT(BlockPayloadByteOffset(600'000'000ULL), uint64_t{1} << 32);
  // 1e12 rows (the paper's largest experiments) still compute exactly.
  EXPECT_EQ(BlockPayloadByteOffset(1'000'000'000'000ULL),
            8'000'000'000'016ULL);
  static_assert(sizeof(off_t) == 8,
                "fstat and mmap need a 64-bit off_t for files over 2 GiB");
}

TEST_F(FileBlockTest, MmapGatherIsSafeUnderConcurrency) {
  // The read path takes no lock; hammer it from several threads and verify
  // every thread sees exactly the payload values.
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) values.push_back(static_cast<double>(i));
  ASSERT_TRUE(WriteBlockFile(Path("mt.islb"), values).ok());
  auto block = FileBlock::Open(Path("mt.islb"));
  ASSERT_TRUE(block.ok());

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(100 + static_cast<uint64_t>(t));
      std::vector<uint64_t> indices(512);
      std::vector<double> out(indices.size());
      for (int round = 0; round < 50; ++round) {
        for (auto& i : indices) i = rng.NextBounded(values.size());
        if (!(*block)->GatherAt(indices, out.data()).ok()) {
          ++failures;
          return;
        }
        for (size_t i = 0; i < indices.size(); ++i) {
          if (out[i] != values[indices[i]]) {
            ++failures;
            return;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(FileBlockTest, GatherAtSpansChunkBoundaries) {
  // 3 × 4096 rows plus a tail: indices deliberately hit the first/last row
  // of each 4096-row window plus interior points, unsorted and with a
  // repeat.
  std::vector<double> values;
  for (int i = 0; i < 3 * 4096 + 17; ++i) values.push_back(i * 0.5);
  ASSERT_TRUE(WriteBlockFile(Path("g.islb"), values).ok());
  auto block = FileBlock::Open(Path("g.islb"));
  ASSERT_TRUE(block.ok());

  std::vector<uint64_t> indices = {8191, 0,    4096, 12304, 4095,
                                   8192, 4096, 12288, 1};
  std::vector<double> out(indices.size());
  ASSERT_TRUE((*block)->GatherAt(indices, out.data()).ok());
  for (size_t i = 0; i < indices.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], values[indices[i]]) << "slot " << i;
  }
}

TEST_F(FileBlockTest, GatherAtMatchesValueAtOnRandomBatches) {
  std::vector<double> values;
  Xoshiro256 data_rng(77);
  for (int i = 0; i < 10000; ++i) values.push_back(data_rng.NextDouble());
  ASSERT_TRUE(WriteBlockFile(Path("r.islb"), values).ok());
  auto block = FileBlock::Open(Path("r.islb"));
  ASSERT_TRUE(block.ok());

  Xoshiro256 rng(78);
  std::vector<uint64_t> indices;
  for (int i = 0; i < 500; ++i) indices.push_back(rng.NextBounded(10000));
  std::vector<double> out(indices.size());
  ASSERT_TRUE((*block)->GatherAt(indices, out.data()).ok());
  for (size_t i = 0; i < indices.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], values[indices[i]]);
  }
}

TEST_F(FileBlockTest, GatherAtEdgeCases) {
  std::vector<double> values = {1.0, 2.0, 3.0};
  ASSERT_TRUE(WriteBlockFile(Path("e.islb"), values).ok());
  auto block = FileBlock::Open(Path("e.islb"));
  ASSERT_TRUE(block.ok());

  double sentinel = -1.0;
  ASSERT_TRUE((*block)->GatherAt({}, &sentinel).ok());
  EXPECT_DOUBLE_EQ(sentinel, -1.0);

  std::vector<uint64_t> oor = {0, 3};
  std::vector<double> out(oor.size());
  EXPECT_TRUE((*block)->GatherAt(oor, out.data()).IsOutOfRange());
  EXPECT_TRUE((*block)->GatherAt(oor, nullptr).IsInvalidArgument());
}

TEST_F(FileBlockTest, ReadRangeEdgeCases) {
  std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  ASSERT_TRUE(WriteBlockFile(Path("rr.islb"), values).ok());
  auto block = FileBlock::Open(Path("rr.islb"));
  ASSERT_TRUE(block.ok());

  std::vector<double> out;
  ASSERT_TRUE((*block)->ReadRange(4, 0, &out).ok());  // Empty tail read.
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE((*block)->ReadRange(2, 2, &out).ok());  // Exact tail.
  EXPECT_EQ(out, (std::vector<double>{3.0, 4.0}));
  EXPECT_TRUE((*block)->ReadRange(2, 3, &out).IsOutOfRange());
  EXPECT_TRUE((*block)->ReadRange(5, 0, &out).IsOutOfRange());
}

TEST_F(FileBlockTest, ValueAtStaysCorrectAfterGatherAt) {
  // Interleaving ValueAt with GatherAt must not change what either reads.
  std::vector<double> values;
  for (int i = 0; i < 9000; ++i) values.push_back(static_cast<double>(i));
  ASSERT_TRUE(WriteBlockFile(Path("m.islb"), values).ok());
  auto block = FileBlock::Open(Path("m.islb"));
  ASSERT_TRUE(block.ok());

  EXPECT_DOUBLE_EQ((*block)->ValueAt(100), 100.0);
  std::vector<uint64_t> indices = {8000, 50};
  std::vector<double> out(indices.size());
  ASSERT_TRUE((*block)->GatherAt(indices, out.data()).ok());
  EXPECT_DOUBLE_EQ(out[0], 8000.0);
  EXPECT_DOUBLE_EQ((*block)->ValueAt(4200), 4200.0);
}

TEST_F(FileBlockTest, RewritingAnOpenFileKeepsItsRows) {
  // A rewrite replaces the file by rename and never truncates the inode an
  // open block maps; truncating it would make these reads a SIGBUS.
  const std::string path = Path("live.islb");
  ASSERT_TRUE(WriteBlockFile(path, std::vector<double>(1'000'000, 7.0)).ok());
  auto open = FileBlock::Open(path);
  ASSERT_TRUE(open.ok()) << open.status();
  const uint64_t fingerprint = (*open)->DataFingerprint();

  ASSERT_TRUE(WriteBlockFile(path, std::vector<double>(10, 1.0)).ok());
  EXPECT_EQ((*open)->ValueAt(5), 7.0);
  EXPECT_EQ((*open)->ValueAt(900'000), 7.0);
  EXPECT_EQ((*open)->DataFingerprint(), fingerprint);

  auto fresh = FileBlock::Open(path);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  ASSERT_EQ((*fresh)->size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ((*fresh)->ValueAt(i), 1.0);
  EXPECT_FALSE(std::filesystem::exists(path + ".part"));
}

TEST_F(FileBlockTest, WriterRefusesAWrongRowCountAndLeavesNoFile) {
  const std::string path = Path("w.islb");
  const std::vector<double> two = {1.0, 2.0};
  auto no_files = [&] {
    return !std::filesystem::exists(path) &&
           !std::filesystem::exists(path + ".part");
  };
  {
    auto writer = BlockFileWriter::Create(path, 1);
    ASSERT_TRUE(writer.ok()) << writer.status();
    EXPECT_TRUE(writer->Append(two).IsInvalidArgument());
    EXPECT_TRUE(no_files());
  }
  {
    auto writer = BlockFileWriter::Create(path, 3);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(writer->Append(two).ok());
    EXPECT_TRUE(writer->Commit().IsInvalidArgument());
    EXPECT_TRUE(no_files());
  }
  {
    auto writer = BlockFileWriter::Create(path, 2);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(writer->Append(two).ok());
  }  // Destroyed before Commit.
  EXPECT_TRUE(no_files());
}

TEST_F(FileBlockTest, OverwriteReplacesContent) {
  ASSERT_TRUE(WriteBlockFile(Path("o.islb"), std::vector<double>{1.0}).ok());
  ASSERT_TRUE(
      WriteBlockFile(Path("o.islb"), std::vector<double>{9.0, 8.0}).ok());
  auto block = FileBlock::Open(Path("o.islb"));
  ASSERT_TRUE(block.ok());
  EXPECT_EQ((*block)->size(), 2u);
  EXPECT_DOUBLE_EQ((*block)->ValueAt(0), 9.0);
}

}  // namespace
}  // namespace storage
}  // namespace isla
