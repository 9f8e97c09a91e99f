#include "net/shard_streamer.h"

#include <cstdio>
#include <string>
#include <vector>

#include "distributed/failover.h"
#include "distributed/message.h"
#include "storage/file_block.h"

namespace isla {
namespace net {

namespace {

/// One chunk exchange with bounded retries. Every retry re-asks the same
/// start_row — the request is a pure read, so replaying it is free — and
/// a non-retryable status (the donor answered deliberately via
/// ErrorFrame) propagates at once.
Result<distributed::ShardBlockChunk> FetchChunk(
    TcpTransport* transport, uint64_t shard_id, uint64_t column,
    uint64_t start_row, const ShardStreamOptions& options) {
  distributed::ShardFetchRequest req;
  req.shard_id = shard_id;
  req.column = column;
  req.start_row = start_row;
  req.max_rows = options.chunk_rows;
  const std::string frame = distributed::Encode(req);

  Status last = Status::Internal("no fetch attempt made");
  for (uint64_t attempt = 0; attempt <= options.max_chunk_retries;
       ++attempt) {
    Result<std::string> response = transport->Call(0, frame);
    if (!response.ok()) {
      if (!response.status().IsRetryable()) return response.status();
      last = response.status();
      continue;
    }
    Result<distributed::MessageType> type = distributed::PeekType(*response);
    if (type.ok() && *type == distributed::MessageType::kError) {
      // The donor answered deliberately (wrong shard, read failure): the
      // typed status decides retryability, not the chunk decoder.
      auto error = distributed::DecodeErrorFrame(*response);
      Status status = error.ok()
                          ? error->ToStatus()
                          : Status::Corruption("undecodable error frame");
      if (!status.IsRetryable()) return status;
      last = status;
      continue;
    }
    Result<distributed::ShardBlockChunk> chunk =
        distributed::DecodeShardBlockChunk(*response);
    if (!chunk.ok()) {
      // Includes the per-chunk CRC check: a damaged chunk costs one more
      // round trip at the same offset, never a damaged row on disk.
      last = chunk.status();
      continue;
    }
    if (chunk->shard_id != shard_id || chunk->column != column ||
        (chunk->column_present == 1 && chunk->start_row != start_row)) {
      last = Status::Corruption("shard chunk answers a different fetch");
      continue;
    }
    return chunk;
  }
  return last;
}

}  // namespace

Result<ShardStreamResult> FetchShard(const Endpoint& donor, uint64_t shard_id,
                                     const std::string& dest_dir,
                                     const ShardStreamOptions& options) {
  TcpTransportOptions topts;
  topts.connect_timeout_millis = options.connect_timeout_millis;
  topts.call_deadline_millis = options.call_deadline_millis;
  topts.reconnect_attempts = options.reconnect_attempts;
  TcpTransport transport({donor}, topts);

  ShardStreamResult result;
  std::vector<std::string> created;  // finished files, for failure cleanup
  // All-or-nothing: any failure removes everything this call wrote (an
  // unfinished column's .part file goes with its writer), so a died stream
  // leaves the joiner's directory exactly as it was.
  auto fail = [&](Status status) -> Status {
    for (const std::string& p : created) std::remove(p.c_str());
    return status;
  };

  struct ColumnSpec {
    uint64_t column;
    const char* name;
    std::string* out_path;
  };
  const ColumnSpec columns[3] = {
      {distributed::kShardColumnValues, "values", &result.values_path},
      {distributed::kShardColumnPredicate, "predicate",
       &result.predicate_path},
      {distributed::kShardColumnKeys, "keys", &result.keys_path},
  };

  for (const ColumnSpec& spec : columns) {
    Result<distributed::ShardBlockChunk> first =
        FetchChunk(&transport, shard_id, spec.column, 0, options);
    if (!first.ok()) return fail(first.status());
    distributed::ShardBlockChunk chunk = *std::move(first);
    if (chunk.column_present == 0) {
      if (spec.column == distributed::kShardColumnValues) {
        return fail(Status::FailedPrecondition(
            "donor holds no values block for the shard"));
      }
      continue;  // Optional column the donor doesn't have.
    }
    const uint64_t total = chunk.total_rows;
    const std::string path = dest_dir + "/shard_" +
                             std::to_string(shard_id) + "_" + spec.name +
                             ".islb";
    // The storage writer owns the ISLB layout, so FileBlock::Open's
    // verification (and the data fingerprint) treat streamed and locally
    // written shards identically.
    Result<storage::BlockFileWriter> writer =
        storage::BlockFileWriter::Create(path, total);
    if (!writer.ok()) return fail(writer.status());
    uint64_t next = 0;
    for (;;) {
      if (chunk.rows.size() > total - next) {
        return fail(
            Status::Corruption("donor sent rows past the block end"));
      }
      if (!chunk.rows.empty()) {
        Status appended = writer->Append(chunk.rows);
        if (!appended.ok()) return fail(appended);
        next += chunk.rows.size();
        ++result.chunks;
      } else if (next < total) {
        return fail(Status::Corruption(
            "donor sent an empty chunk before the block end"));
      }
      if (next >= total) break;
      Result<distributed::ShardBlockChunk> more =
          FetchChunk(&transport, shard_id, spec.column, next, options);
      if (!more.ok()) return fail(more.status());
      chunk = *std::move(more);
      if (chunk.column_present != 1 || chunk.total_rows != total) {
        return fail(Status::Corruption("donor changed the block mid-stream"));
      }
    }
    Status committed = writer->Commit();
    if (!committed.ok()) return fail(committed);
    created.push_back(path);
    *spec.out_path = path;
    if (spec.column == distributed::kShardColumnValues) result.rows = total;
  }

  distributed::GlobalFailoverStats().replicas_joined.fetch_add(
      1, std::memory_order_relaxed);
  return result;
}

}  // namespace net
}  // namespace isla
