#include "net/worker_registry.h"

#include <algorithm>
#include <thread>
#include <tuple>
#include <utility>

#include "distributed/failover.h"
#include "distributed/message.h"

namespace isla {
namespace net {

namespace {

/// Accept/recv tick; each timeout is a stop-flag check.
constexpr int64_t kTickMillis = 250;

/// A replica is live while its registration connection is open OR its last
/// heartbeat is younger than this. The OR matters: liveness follows the
/// socket (a killed worker vanishes at once via the disconnect), and the age
/// check only covers the window where a wedged-but-connected worker has
/// silently stopped heartbeating.
constexpr int64_t kExpiryMillis = 3'000;

}  // namespace

WorkerRegistry::WorkerRegistry(WorkerRegistryOptions options)
    : options_(options) {}

WorkerRegistry::~WorkerRegistry() { Stop(); }

Status WorkerRegistry::Start() {
  if (started_) return Status::FailedPrecondition("registry already started");
  ISLA_ASSIGN_OR_RETURN(listener_, Listener::Bind(options_.port));
  port_ = listener_->port();
  stop_.store(false, std::memory_order_relaxed);
  started_ = true;
  threads_.Spawn([this] { AcceptLoop(); });
  return Status::OK();
}

void WorkerRegistry::Stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_relaxed);
  listener_->Shutdown();
  threads_.JoinAll();
  listener_->Close();
  started_ = false;
}

void WorkerRegistry::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    auto accepted = listener_->Accept(kTickMillis);
    if (!accepted.ok()) continue;  // Timeout tick or shutdown.
    std::unique_ptr<Connection> conn = std::move(*accepted);
    conn->set_recv_deadline_millis(kTickMillis);
    uint64_t conn_id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    auto shared = std::make_shared<std::unique_ptr<Connection>>(
        std::move(conn));
    threads_.Spawn([this, shared, conn_id] {
      Serve(std::move(*shared), conn_id);
    });
  }
}

void WorkerRegistry::Serve(std::unique_ptr<Connection> conn,
                           uint64_t conn_id) {
  while (!stop_.load(std::memory_order_relaxed)) {
    Result<std::string> frame = conn->RecvFrame();
    if (!frame.ok()) {
      if (frame.status().IsTimedOut()) continue;  // Idle tick.
      break;  // Worker went away: fall through to the disconnect sweep.
    }
    Result<distributed::RegisterFrame> reg =
        distributed::DecodeRegisterFrame(*frame);
    distributed::RegisterAck ack;
    if (!reg.ok()) {
      // A malformed announcement is answered (rejected), not dropped: the
      // worker learns immediately instead of waiting out a deadline.
      if (!conn->SendFrame(distributed::Encode(ack)).ok()) break;
      continue;
    }
    ack.shard_id = reg->shard_id;
    ack.accepted = 1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto now = std::chrono::steady_clock::now();
      // Replica-integrity gate, before the entry is touched: the first
      // accepted registration announcing a fingerprint fixes the shard's
      // canonical (fingerprint, rows); any replica announcing the same
      // shard id with different data is refused — and the refusal leaves
      // entries_ alone, so a divergent worker can heartbeat forever
      // without ever appearing in a placement.
      auto canon = canonical_.find(reg->shard_id);
      if (reg->fingerprint != 0 && canon != canonical_.end()) {
        if (canon->second.first != reg->fingerprint) {
          ack.accepted = 0;
          ack.reason = static_cast<uint64_t>(
              distributed::RegisterRefusal::kFingerprintMismatch);
        } else if (canon->second.second != reg->block_rows) {
          ack.accepted = 0;
          ack.reason = static_cast<uint64_t>(
              distributed::RegisterRefusal::kRowsMismatch);
        }
      }
      if (ack.accepted == 0) {
        fingerprint_rejections_.fetch_add(1, std::memory_order_relaxed);
        distributed::GlobalFailoverStats().fingerprint_rejections.fetch_add(
            1, std::memory_order_relaxed);
      } else {
        if (reg->fingerprint != 0 && canon == canonical_.end()) {
          canonical_.emplace(reg->shard_id,
                             std::make_pair(reg->fingerprint,
                                            reg->block_rows));
        }
        auto key = std::make_tuple(reg->shard_id, reg->host,
                                   static_cast<uint16_t>(reg->port));
        auto [it, inserted] = entries_.try_emplace(key);
        Entry& entry = it->second;
        // A new triple — or a dead incarnation being replaced by a
        // restarted worker — counts as a registration; a live entry
        // re-announcing on its own connection is just a heartbeat.
        bool was_live = !inserted && IsLive(entry, now);
        if (inserted) entry.order = next_order_++;
        entry.replica = {reg->shard_id, reg->host,
                         static_cast<uint16_t>(reg->port), reg->block_rows,
                         reg->fingerprint};
        entry.conn_id = conn_id;
        entry.connected = true;
        entry.last_seen = now;
        if (!was_live) {
          registrations_.fetch_add(1, std::memory_order_relaxed);
          distributed::GlobalFailoverStats().workers_registered.fetch_add(
              1, std::memory_order_relaxed);
          // Membership grew: the placement lease moves.
          BumpEpochLocked();
        }
      }
      uint64_t shards = 0;
      uint64_t prev_shard = ~0ULL;
      for (const auto& [k, e] : entries_) {
        if (!IsLive(e, now)) continue;
        if (e.replica.shard_id != prev_shard) {
          ++shards;
          prev_shard = e.replica.shard_id;
        }
      }
      ack.known_shards = shards;
      ack.epoch = epoch_;
    }
    if (!conn->SendFrame(distributed::Encode(ack)).ok()) break;
  }
  // The socket is this connection's liveness lease: release every entry it
  // was announcing so Placement() stops listing the dead replica at once.
  std::lock_guard<std::mutex> lock(mu_);
  auto now = std::chrono::steady_clock::now();
  bool membership_changed = false;
  for (auto& [key, entry] : entries_) {
    if (entry.conn_id != conn_id) continue;
    if (IsLive(entry, now)) membership_changed = true;
    entry.connected = false;
  }
  // Only a replica that was actually in the live set moves the lease; a
  // long-expired entry going from wedged to disconnected changes nothing
  // a coordinator could observe.
  if (membership_changed) BumpEpochLocked();
}

void WorkerRegistry::BumpEpochLocked() {
  ++epoch_;
  distributed::GlobalFailoverStats().placement_epoch.store(
      epoch_, std::memory_order_relaxed);
}

uint64_t WorkerRegistry::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

bool WorkerRegistry::IsLive(
    const Entry& entry, std::chrono::steady_clock::time_point now) const {
  if (entry.connected) {
    return now - entry.last_seen <=
           std::chrono::milliseconds(kExpiryMillis);
  }
  return false;
}

std::map<uint64_t, std::vector<WorkerRegistry::Replica>>
WorkerRegistry::Placement() const {
  std::map<uint64_t, std::vector<Replica>> placement;
  auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  // entries_ iterates in key order (shard, host, port); re-sort each
  // shard's replicas by first-registration order so placement is stable
  // under re-registration.
  std::map<uint64_t, std::vector<const Entry*>> by_shard;
  for (const auto& [key, entry] : entries_) {
    if (IsLive(entry, now)) by_shard[entry.replica.shard_id].push_back(&entry);
  }
  for (auto& [shard, list] : by_shard) {
    std::sort(list.begin(), list.end(),
              [](const Entry* a, const Entry* b) {
                return a->order < b->order;
              });
    for (const Entry* e : list) placement[shard].push_back(e->replica);
  }
  return placement;
}

Result<WorkerRegistry::ClusterSnapshot> WorkerRegistry::SnapshotCluster(
    size_t expect_shards) const {
  auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, std::vector<const Entry*>> by_shard;
  for (const auto& [key, entry] : entries_) {
    if (IsLive(entry, now)) by_shard[entry.replica.shard_id].push_back(&entry);
  }
  ClusterSnapshot snap;
  snap.epoch = epoch_;
  snap.placement.resize(expect_shards);
  for (size_t s = 0; s < expect_shards; ++s) {
    auto it = by_shard.find(s);
    if (it == by_shard.end()) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(s) + " has no live replicas");
    }
    std::sort(it->second.begin(), it->second.end(),
              [](const Entry* a, const Entry* b) {
                return a->order < b->order;
              });
    for (const Entry* e : it->second) {
      snap.placement[s].push_back(snap.endpoints.size());
      snap.endpoints.push_back({e->replica.host, e->replica.port});
    }
  }
  return snap;
}

bool WorkerRegistry::WaitForShards(size_t n_shards, size_t min_replicas,
                                   int64_t timeout_millis) const {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_millis);
  for (;;) {
    auto placement = Placement();
    bool converged = true;
    for (size_t s = 0; s < n_shards; ++s) {
      auto it = placement.find(s);
      if (it == placement.end() || it->second.size() < min_replicas) {
        converged = false;
        break;
      }
    }
    if (converged) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

}  // namespace net
}  // namespace isla
