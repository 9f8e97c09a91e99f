#ifndef ISLA_NET_WORKER_REGISTRY_H_
#define ISLA_NET_WORKER_REGISTRY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "net/connection.h"
#include "net/tcp_transport.h"
#include "runtime/thread_pool.h"

namespace isla {
namespace net {

struct WorkerRegistryOptions {
  /// 0 picks an ephemeral port (read it back from port()).
  uint16_t port = 0;
};

/// The coordinator-side membership service of the tentpole's dynamic
/// cluster: accepts RegisterFrame announcements from `isla_serverd
/// --worker --coordinator` processes and maintains the live shard →
/// replica placement. Workers may come up before or after the registry,
/// die, restart, and re-register — Placement() always reflects who is
/// servable *now*, so a coordinator building a FailoverTransport from it
/// gets a cluster that grew or healed without any restart.
///
/// Replica identity is (shard_id, host, port): a restarted worker
/// re-announcing the same triple replaces its dead incarnation rather
/// than duplicating it.
class WorkerRegistry {
 public:
  explicit WorkerRegistry(WorkerRegistryOptions options = {});
  ~WorkerRegistry();

  WorkerRegistry(const WorkerRegistry&) = delete;
  WorkerRegistry& operator=(const WorkerRegistry&) = delete;

  Status Start();
  void Stop();

  /// Bound port; valid after Start().
  uint16_t port() const { return port_; }

  /// One live replica of one shard.
  struct Replica {
    uint64_t shard_id = 0;
    std::string host;
    uint16_t port = 0;
    uint64_t block_rows = 0;
    uint64_t fingerprint = 0;  // the shard's canonical data fingerprint
  };

  /// Live replicas grouped by shard id, replicas in registration order.
  std::map<uint64_t, std::vector<Replica>> Placement() const;

  /// A placement lease: everything a coordinator needs to build a
  /// FailoverTransport over a TcpTransport for this instant of the
  /// cluster, stamped with the epoch it was taken at. The epoch bumps on
  /// every observed membership change (a replica joining the live set or
  /// dropping out of it), so two snapshots with equal epochs are
  /// guaranteed identical — callers poll it between queries and rebuild
  /// their transport only when the lease moved.
  struct ClusterSnapshot {
    uint64_t epoch = 0;
    /// One channel per live replica, in placement order.
    std::vector<Endpoint> endpoints;
    /// placement[s] lists indices into `endpoints` for shard s.
    std::vector<std::vector<uint64_t>> placement;
  };

  /// Snapshot of shards [0, expect_shards). Fails with FailedPrecondition
  /// when any of those shards has no live replica — a lease over a hole
  /// would just manufacture "no replicas placed" errors at query time.
  Result<ClusterSnapshot> SnapshotCluster(size_t expect_shards) const;

  /// Distinct (shard, host, port) registrations accepted so far
  /// (re-registrations of a dead incarnation count again; heartbeats do
  /// not).
  uint64_t registrations() const {
    return registrations_.load(std::memory_order_relaxed);
  }

  /// Registrations refused because the announced shard data diverged from
  /// the shard's canonical fingerprint (or row count). Every heartbeat of
  /// a divergent worker counts again — the counter is a flow, mirroring
  /// `fingerprint_rejections` in SHOW SERVER STATS.
  uint64_t fingerprint_rejections() const {
    return fingerprint_rejections_.load(std::memory_order_relaxed);
  }

  /// Current placement-lease epoch (see ClusterSnapshot::epoch).
  uint64_t epoch() const;

  /// Blocks until shards [0, n_shards) each have at least `min_replicas`
  /// live replicas, or `timeout_millis` passes. Returns whether the
  /// cluster converged.
  bool WaitForShards(size_t n_shards, size_t min_replicas,
                     int64_t timeout_millis) const;

 private:
  struct Entry {
    Replica replica;
    uint64_t conn_id = 0;  // Registration connection currently announcing.
    bool connected = false;
    std::chrono::steady_clock::time_point last_seen;
    uint64_t order = 0;  // First-registration order, for stable placement.
  };

  void AcceptLoop();
  void Serve(std::unique_ptr<Connection> conn, uint64_t conn_id);
  bool IsLive(const Entry& entry,
              std::chrono::steady_clock::time_point now) const;
  /// Bumps the lease epoch and mirrors it into the global stats gauge.
  /// Caller holds mu_.
  void BumpEpochLocked();

  WorkerRegistryOptions options_;
  std::unique_ptr<Listener> listener_;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<uint64_t> registrations_{0};
  std::atomic<uint64_t> fingerprint_rejections_{0};

  mutable std::mutex mu_;
  /// Keyed by (shard_id, host, port) — the replica identity.
  std::map<std::tuple<uint64_t, std::string, uint16_t>, Entry> entries_;
  uint64_t next_order_ = 0;
  /// Canonical (fingerprint, block_rows) per shard id: set by the first
  /// accepted registration announcing a fingerprint, then sticky for the
  /// registry's lifetime — a divergent replica stays refused even after
  /// every honest replica of the shard has died, because placing it would
  /// silently change answers, which is strictly worse than unavailability.
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> canonical_;
  /// Placement-lease epoch; bumped under mu_ on membership changes.
  uint64_t epoch_ = 0;

  runtime::ThreadGroup threads_;
};

}  // namespace net
}  // namespace isla

#endif  // ISLA_NET_WORKER_REGISTRY_H_
