#ifndef ISLA_STORAGE_FILE_BLOCK_H_
#define ISLA_STORAGE_FILE_BLOCK_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "storage/block.h"

namespace isla {
namespace storage {

// On-disk block file format (little-endian):
//
//   [0..4)   magic "ISLB"
//   [4..8)   format version (u32, currently 1)
//   [8..16)  row count (u64)
//   [16..)   row count f64 payload
//   footer   CRC32 (u32) over the payload bytes
//
// The paper stores each block as a .txt file; we use a checksummed binary
// format, the realistic equivalent for a production system.
// BlockFileWriter writes this layout and FileBlock::Open reads it; no other
// code knows it.

/// Header size in bytes; the payload of row r starts at
/// BlockPayloadByteOffset(r).
inline constexpr uint64_t kBlockHeaderBytes = 16;

/// Absolute byte offset of row `row` inside a block file. Deliberately
/// computed in uint64_t, never in `long` or `size_t`: those are 32 bits on
/// ILP32 targets, where a block file can still exceed 4 GiB.
inline constexpr uint64_t BlockPayloadByteOffset(uint64_t row) {
  return kBlockHeaderBytes + row * sizeof(double);
}

/// CRC32 (IEEE, reflected) of a byte span. Exposed for tests.
uint32_t Crc32(const void* data, size_t len);

/// Incremental CRC32: feed chunks into a running state. Start from
/// kCrc32Init, call Crc32Update per chunk, finish with Crc32Finalize.
/// Crc32(d, n) == Crc32Finalize(Crc32Update(kCrc32Init, d, n)).
inline constexpr uint32_t kCrc32Init = 0xffffffffu;
uint32_t Crc32Update(uint32_t state, const void* data, size_t len);
inline constexpr uint32_t Crc32Finalize(uint32_t state) {
  return state ^ 0xffffffffu;
}

/// Writes one block file. Create writes the header for `rows` rows to
/// `<path>.part`, Append adds rows in order, and Commit writes the CRC
/// footer and renames `<path>.part` over `path`. The rename replaces the
/// directory entry and never truncates the old file, so a FileBlock that
/// mapped the previous contents keeps reading them. A writer destroyed
/// before Commit, or one whose Append or Commit failed, removes its `.part`
/// file. Nothing is fsynced: the replacement is atomic for readers, not
/// durable across a power loss.
class BlockFileWriter {
 public:
  /// Creates `<path>.part` and writes the header. Fails with IOError.
  static Result<BlockFileWriter> Create(const std::string& path,
                                        uint64_t rows);

  BlockFileWriter(BlockFileWriter&&) = default;
  BlockFileWriter& operator=(BlockFileWriter&&) = delete;
  ~BlockFileWriter();

  /// Appends rows after those already written. Fails with InvalidArgument
  /// past the row count given to Create, and with IOError on a short write.
  Status Append(std::span<const double> rows);

  /// Finishes the file and moves it into place. Fails with InvalidArgument
  /// when fewer rows than declared were appended.
  Status Commit();

 private:
  struct CloseFile {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  BlockFileWriter(std::string path, uint64_t rows);

  /// Closes and removes the `.part` file, then returns `status`.
  Status Abandon(Status status);

  std::string path_;
  std::string part_path_;
  std::unique_ptr<std::FILE, CloseFile> file_;  // null once committed/failed
  uint64_t rows_;
  uint64_t written_ = 0;
  uint32_t crc_ = kCrc32Init;
};

/// Writes `values` as a block file at `path`, atomically replacing any
/// existing file (see BlockFileWriter).
Status WriteBlockFile(const std::string& path, std::span<const double> values);

/// A block backed by an on-disk file in the ISLB format, mapped read-only
/// for the block's lifetime. Open checks the header and the file length
/// against the mapping before it reads any payload byte, then verifies the
/// payload CRC over the mapped bytes. Every read is a load from the mapping:
/// ValueAt/GatherAt/ReadRange take no lock and are safe to call
/// concurrently, and ContiguousView() is the whole payload.
class FileBlock : public Block {
 public:
  /// Opens, maps and validates `path`. Fails with IOError when the file
  /// cannot be opened or mapped, and with Corruption when it is not a
  /// well-formed block file.
  static Result<std::shared_ptr<FileBlock>> Open(const std::string& path);

  ~FileBlock() override;

  FileBlock(const FileBlock&) = delete;
  FileBlock& operator=(const FileBlock&) = delete;

  uint64_t size() const override { return count_; }
  double ValueAt(uint64_t index) const override;
  std::span<const double> ContiguousView() const override {
    return {payload_, count_};
  }
  std::string DebugString() const override;
  /// Content-derived: hashes (path, row count, verified payload CRC), so
  /// re-opening the same shard — in any session — yields the same identity,
  /// while rewriting the file changes it with the CRC.
  uint64_t ContentFingerprint() const override;

  const std::string& path() const { return path_; }

 protected:
  /// The payload CRC was already verified on open, so the machine-portable
  /// data identity is O(1) here — no second pass over the file.
  uint64_t ComputeDataFingerprint() const override;

 private:
  /// Takes ownership of the mapping [map_base, map_base + map_len).
  FileBlock(std::string path, void* map_base, size_t map_len);

  std::string path_;
  void* map_base_;
  size_t map_len_;
  // Set by Open once the header and CRC are verified.
  const double* payload_ = nullptr;
  uint64_t count_ = 0;
  uint32_t payload_crc_ = 0;  // feeds ContentFingerprint()
};

}  // namespace storage
}  // namespace isla

#endif  // ISLA_STORAGE_FILE_BLOCK_H_
