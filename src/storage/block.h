#ifndef ISLA_STORAGE_BLOCK_H_
#define ISLA_STORAGE_BLOCK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "stats/distribution.h"

namespace isla {
namespace storage {

/// A block is the paper's unit of distribution: one machine's shard of a
/// column (§II-C). ISLA never scans blocks; it samples them, so the only
/// mandatory access path is positional reads. Implementations must be
/// thread-compatible for concurrent const access.
class Block {
 public:
  Block();
  virtual ~Block() = default;

  /// Number of rows stored in this block.
  virtual uint64_t size() const = 0;

  /// The value at `index`. Precondition: index < size(). Out-of-range access
  /// on checked implementations returns quiet NaN in release builds.
  virtual double ValueAt(uint64_t index) const = 0;

  /// Bulk positional read: out = rows [start, start + count). The default
  /// copies from ContiguousView() when it is non-empty and loops over
  /// ValueAt otherwise.
  virtual Status ReadRange(uint64_t start, uint64_t count,
                           std::vector<double>* out) const;

  /// Batched positional read: out[i] = value at indices[i]. Indices may be
  /// unsorted and may repeat; `out` must have room for indices.size()
  /// values. Fails with OutOfRange if any index >= size() (no partial
  /// output contract in that case). This is the hot path of the sampling
  /// engine — one virtual call per ~4k samples instead of one per sample.
  /// The default resolves a non-empty ContiguousView() with the kernel
  /// gather (MemoryBlock, FileBlock) and loops over ValueAt otherwise;
  /// GeneratorBlock overrides it.
  virtual Status GatherAt(std::span<const uint64_t> indices,
                          double* out) const;

  /// Zero-copy view of the whole block when its rows are resident and
  /// contiguous in memory (MemoryBlock, and FileBlock through its mapping).
  /// Returns an empty span otherwise, and for a block of zero rows.
  virtual std::span<const double> ContiguousView() const { return {}; }

  /// Short description for logs ("memory[10000]", "gen[1e10 Normal(...)]").
  virtual std::string DebugString() const = 0;

  /// Content identity for the scan scheduler (src/engine/scan_scheduler):
  /// two blocks with equal fingerprints MUST hold bit-identical rows, so
  /// a shared scan may gather either and serve both, and cache entries
  /// keyed on the fingerprint stay valid. Never returns 0. Deterministic
  /// sources override this with a content-derived hash (a generator block
  /// is a pure function of its distribution, size, and seed; a file block
  /// of its verified payload); the default is a process-unique id assigned
  /// at construction, so sources whose content cannot be summarized never
  /// alias — and a re-created table gets fresh fingerprints, which is what
  /// makes cache invalidation automatic (stale keys become unreachable).
  virtual uint64_t ContentFingerprint() const { return unique_fingerprint_; }

  /// Machine-portable content identity for replica integrity checks
  /// (net::WorkerRegistry): a pure function of the row data — row count and
  /// payload CRC32 — never of paths, mmap addresses, or process-local ids,
  /// so two workers holding the same rows (hand-provisioned, streamed
  /// worker-to-worker, or regenerated from the same DDL) agree on it across
  /// machines. This is deliberately distinct from ContentFingerprint():
  /// that one may be process-unique (cache invalidation wants re-created
  /// tables to NOT alias), this one must be stable (replica verification
  /// wants identical data to alias). Never returns 0; computed on first
  /// call and cached (blocks are immutable).
  uint64_t DataFingerprint() const;

 protected:
  /// Hook for sources that can summarize their content without streaming
  /// it. The default reads every row through ReadRange and CRC32s the raw
  /// f64 payload — exactly the bytes WriteBlockFile would persist, so a
  /// block round-tripped through the ISLB file format keeps its identity.
  virtual uint64_t ComputeDataFingerprint() const;

 private:
  uint64_t unique_fingerprint_;
  mutable std::atomic<uint64_t> data_fingerprint_{0};
};

using BlockPtr = std::shared_ptr<const Block>;

/// Same as block.GatherAt(indices, out), kept as the free-function entry
/// the repository benchmark (bench_suite/) calls.
inline Status GatherInto(const Block& block, std::span<const uint64_t> indices,
                         double* out) {
  return block.GatherAt(indices, out);
}

/// An in-memory block: a plain vector of doubles. The workhorse for tests
/// and small experiments.
class MemoryBlock : public Block {
 public:
  explicit MemoryBlock(std::vector<double> values);

  uint64_t size() const override { return values_.size(); }
  double ValueAt(uint64_t index) const override;
  std::span<const double> ContiguousView() const override {
    return {values_.data(), values_.size()};
  }
  std::string DebugString() const override;

  /// Direct access for baselines that stream the whole block.
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// A generator-backed *virtual* block: row i is a pure function of
/// (seed, i) under a Distribution. This reproduces the paper's 10⁸–10¹²-row
/// experiments without materializing the data: ISLA touches only m =
/// u²σ²/e² rows, and every one of them is reproducible from the seed.
class GeneratorBlock : public Block {
 public:
  GeneratorBlock(std::shared_ptr<const stats::Distribution> dist,
                 uint64_t size, uint64_t seed);

  uint64_t size() const override { return size_; }
  double ValueAt(uint64_t index) const override;
  Status GatherAt(std::span<const uint64_t> indices,
                  double* out) const override;
  std::string DebugString() const override;
  /// Content-derived when the distribution has a parameter fingerprint
  /// (identical DDL in two sessions yields equal block fingerprints, so
  /// their scans batch and their pilots share a cache line); falls back to
  /// the unique-id default when the distribution opts out.
  uint64_t ContentFingerprint() const override;

  const stats::Distribution& distribution() const { return *dist_; }
  uint64_t seed() const { return seed_; }

 private:
  std::shared_ptr<const stats::Distribution> dist_;
  uint64_t size_;
  uint64_t seed_;
  uint64_t content_fingerprint_;  // 0 = use the unique-id default
};

}  // namespace storage
}  // namespace isla

#endif  // ISLA_STORAGE_BLOCK_H_
