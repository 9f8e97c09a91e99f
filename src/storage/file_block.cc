#include "storage/file_block.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <sstream>

#include "util/rng.h"

namespace isla {
namespace storage {

namespace {

constexpr char kBlockMagic[4] = {'I', 'S', 'L', 'B'};
constexpr uint32_t kBlockFormatVersion = 1;

/// Slice-by-8 CRC32 tables: table[0] is the classic bytewise table, and
/// table[k][b] is the CRC of byte b followed by k zero bytes, letting the
/// update loop fold 8 input bytes per iteration instead of 1. Generated at
/// first use; private to this translation unit so the file format's CRC
/// definition has exactly one home.
const std::array<std::array<uint32_t, 256>, 8>& Crc32Tables() {
  static const std::array<std::array<uint32_t, 256>, 8> tables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = t[0][i];
      for (size_t k = 1; k < 8; ++k) {
        c = t[0][c & 0xffu] ^ (c >> 8);
        t[k][i] = c;
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace

uint32_t Crc32Update(uint32_t state, const void* data, size_t len) {
  const auto& t = Crc32Tables();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = state;
  // The 8-byte folding step assembles two little-endian words; on a
  // big-endian host fall through to the bytewise loop (correctness over
  // speed on the exotic platform).
  if constexpr (std::endian::native == std::endian::little) {
    while (len >= 8) {
      uint32_t lo;
      uint32_t hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
      p += 8;
      len -= 8;
    }
  }
  for (size_t i = 0; i < len; ++i) {
    c = t[0][(c ^ p[i]) & 0xffu] ^ (c >> 8);
  }
  return c;
}

uint32_t Crc32(const void* data, size_t len) {
  return Crc32Finalize(Crc32Update(kCrc32Init, data, len));
}

Result<BlockFileWriter> BlockFileWriter::Create(const std::string& path,
                                                uint64_t rows) {
  BlockFileWriter writer(path, rows);
  writer.file_.reset(std::fopen(writer.part_path_.c_str(), "wb"));
  if (writer.file_ == nullptr) {
    return Status::IOError("cannot open for write: " + writer.part_path_);
  }
  const uint32_t version = kBlockFormatVersion;
  std::FILE* f = writer.file_.get();
  if (std::fwrite(kBlockMagic, 1, 4, f) != 4 ||
      std::fwrite(&version, sizeof(version), 1, f) != 1 ||
      std::fwrite(&rows, sizeof(rows), 1, f) != 1) {
    return writer.Abandon(
        Status::IOError("short write to " + writer.part_path_));
  }
  return writer;
}

BlockFileWriter::BlockFileWriter(std::string path, uint64_t rows)
    : path_(std::move(path)), part_path_(path_ + ".part"), rows_(rows) {}

BlockFileWriter::~BlockFileWriter() {
  if (file_ != nullptr) (void)Abandon(Status::OK());
}

Status BlockFileWriter::Abandon(Status status) {
  file_.reset();
  std::remove(part_path_.c_str());
  return status;
}

Status BlockFileWriter::Append(std::span<const double> rows) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("block writer is closed: " + path_);
  }
  if (rows.size() > rows_ - written_) {
    return Abandon(Status::InvalidArgument(
        "append past the declared row count of " + path_));
  }
  if (rows.empty()) return Status::OK();
  if (std::fwrite(rows.data(), sizeof(double), rows.size(), file_.get()) !=
      rows.size()) {
    return Abandon(Status::IOError("short write to " + part_path_));
  }
  crc_ = Crc32Update(crc_, rows.data(), rows.size_bytes());
  written_ += rows.size();
  return Status::OK();
}

Status BlockFileWriter::Commit() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("block writer is closed: " + path_);
  }
  if (written_ != rows_) {
    return Abandon(Status::InvalidArgument(
        "commit before every declared row was appended to " + path_));
  }
  const uint32_t footer = Crc32Finalize(crc_);
  const bool written =
      std::fwrite(&footer, sizeof(footer), 1, file_.get()) == 1;
  // fclose flushes; its result is the last write's.
  if ((std::fclose(file_.release()) != 0) || !written) {
    return Abandon(Status::IOError("short write to " + part_path_));
  }
  if (std::rename(part_path_.c_str(), path_.c_str()) != 0) {
    return Abandon(Status::IOError("cannot rename " + part_path_));
  }
  return Status::OK();
}

Status WriteBlockFile(const std::string& path,
                      std::span<const double> values) {
  ISLA_ASSIGN_OR_RETURN(BlockFileWriter writer,
                        BlockFileWriter::Create(path, values.size()));
  ISLA_RETURN_NOT_OK(writer.Append(values));
  return writer.Commit();
}

FileBlock::FileBlock(std::string path, void* map_base, size_t map_len)
    : path_(std::move(path)), map_base_(map_base), map_len_(map_len) {}

FileBlock::~FileBlock() { ::munmap(map_base_, map_len_); }

uint64_t FileBlock::ContentFingerprint() const {
  // FNV-1a over the path, then the row count and the payload CRC folded
  // through SplitMix64. Including the path means two distinct shard files
  // that happen to collide in CRC32 can never alias; a rewritten file
  // aliases its old identity only on a CRC32 collision of payloads with
  // equal row counts.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : path_) h = (h ^ c) * 0x100000001b3ULL;
  h = SplitMix64::Hash(h, count_);
  h = SplitMix64::Hash(h, payload_crc_);
  return h == 0 ? 1 : h;
}

uint64_t FileBlock::ComputeDataFingerprint() const {
  // Must equal the base-class streaming computation bit-for-bit: the rows
  // hashed with the finalized CRC32 of the raw f64 payload — which is
  // exactly what the open-time verification already computed.
  return SplitMix64::Hash(count_, payload_crc_);
}

Result<std::shared_ptr<FileBlock>> FileBlock::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open: " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat: " + path);
  }
  const uint64_t file_bytes = static_cast<uint64_t>(st.st_size);
  if (file_bytes < kBlockHeaderBytes) {
    ::close(fd);
    return Status::Corruption("truncated header in " + path);
  }
  if (file_bytes != static_cast<size_t>(file_bytes)) {
    ::close(fd);
    return Status::IOError("too large to map on this platform: " + path);
  }
  void* base = ::mmap(nullptr, static_cast<size_t>(file_bytes), PROT_READ,
                      MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping keeps the file alive without the descriptor.
  if (base == MAP_FAILED) return Status::IOError("cannot map: " + path);
  // The block owns the mapping from here, so every early return unmaps it.
  std::shared_ptr<FileBlock> block(
      new FileBlock(path, base, static_cast<size_t>(file_bytes)));

  // Header and length checks come first: a payload or footer read past the
  // end of the file would be a SIGBUS, not an error.
  const auto* bytes = static_cast<const unsigned char*>(base);
  uint32_t version = 0;
  uint64_t count = 0;
  std::memcpy(&version, bytes + 4, sizeof(version));
  std::memcpy(&count, bytes + 8, sizeof(count));
  if (std::memcmp(bytes, kBlockMagic, 4) != 0) {
    return Status::Corruption("bad magic in " + path);
  }
  if (version != kBlockFormatVersion) {
    std::ostringstream os;
    os << "unsupported block format version " << version << " in " << path;
    return Status::Corruption(os.str());
  }
  // Divide instead of multiplying: a forged row count times 8 can wrap.
  const uint64_t after_header = file_bytes - kBlockHeaderBytes;
  if (count > after_header / sizeof(double)) {
    return Status::Corruption("truncated payload in " + path);
  }
  if (after_header - count * sizeof(double) < sizeof(uint32_t)) {
    return Status::Corruption("missing CRC footer in " + path);
  }

  // The payload starts at byte 16 of a page-aligned mapping, so the double
  // view is 8-byte aligned.
  const unsigned char* payload = bytes + kBlockHeaderBytes;
  const uint32_t crc =
      Crc32(payload, static_cast<size_t>(count * sizeof(double)));
  uint32_t stored = 0;
  std::memcpy(&stored, bytes + BlockPayloadByteOffset(count), sizeof(stored));
  if (stored != crc) return Status::Corruption("CRC mismatch in " + path);

  block->payload_ = reinterpret_cast<const double*>(payload);
  block->count_ = count;
  block->payload_crc_ = crc;
  return block;
}

double FileBlock::ValueAt(uint64_t index) const {
  if (index >= count_) return std::numeric_limits<double>::quiet_NaN();
  return payload_[index];
}

std::string FileBlock::DebugString() const {
  std::ostringstream os;
  os << "file[" << count_ << " " << path_ << "]";
  return os.str();
}

}  // namespace storage
}  // namespace isla
