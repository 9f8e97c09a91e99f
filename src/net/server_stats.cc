#include "net/server_stats.h"

#include <cstdio>
#include <sstream>

#include "distributed/failover.h"

namespace isla {
namespace net {

void ServerStatsRegistry::RecordPeakSessions(uint64_t active_now) {
  uint64_t prev = peak_sessions_.load(std::memory_order_relaxed);
  while (active_now > prev &&
         !peak_sessions_.compare_exchange_weak(prev, active_now,
                                               std::memory_order_relaxed)) {
  }
}

void ServerStatsRegistry::RecordStatement(uint64_t latency_micros,
                                          std::string_view table) {
  statements_.fetch_add(1, std::memory_order_relaxed);
  latency_.Record(latency_micros);
  if (!table.empty()) {
    std::lock_guard<std::mutex> lock(table_mu_);
    ++table_scans_[std::string(table)];
  }
}

std::string ServerStatsRegistry::Render(uint64_t active_sessions,
                                        uint64_t served,
                                        uint64_t max_sessions,
                                        unsigned io_threads,
                                        unsigned exec_threads,
                                        double uptime_seconds,
                                        std::string_view kernel_tier) const {
  uint64_t stmts = statements();
  double stmts_per_sec =
      uptime_seconds > 0.0 ? static_cast<double>(stmts) / uptime_seconds : 0.0;
  char buf[64];
  std::ostringstream os;
  os << "active_sessions = " << active_sessions
     << "\npeak_sessions = " << peak_sessions()
     << "\nmax_sessions = " << max_sessions
     << "\nsessions_served = " << served
     << "\nsessions_refused = " << refused()
     << "\nslow_client_disconnects = " << slow_client_disconnects()
     << "\nio_threads = " << io_threads
     << "\nexec_threads = " << exec_threads
     << "\nstatements = " << stmts;
  std::snprintf(buf, sizeof(buf), "%.1f", stmts_per_sec);
  os << "\nstmts_per_sec = " << buf;
  std::snprintf(buf, sizeof(buf), "%.3f",
                latency_.PercentileMicros(0.50) / 1000.0);
  os << "\nlatency_p50_ms = " << buf;
  std::snprintf(buf, sizeof(buf), "%.3f",
                latency_.PercentileMicros(0.99) / 1000.0);
  os << "\nlatency_p99_ms = " << buf;
  os << "\nkernels = " << kernel_tier;
  // Cluster fault-recovery counters: process-global (see FailoverStats)
  // because the transports doing the retrying are per-query objects the
  // stats registry never sees.
  const distributed::FailoverStats& fo = distributed::GlobalFailoverStats();
  os << "\ntransport_reconnects = "
     << fo.transport_reconnects.load(std::memory_order_relaxed)
     << "\nshard_retries = "
     << fo.shard_retries.load(std::memory_order_relaxed)
     << "\nshard_failovers = "
     << fo.shard_failovers.load(std::memory_order_relaxed)
     << "\nhedged_requests = "
     << fo.hedged_requests.load(std::memory_order_relaxed)
     << "\nhedge_wins = " << fo.hedge_wins.load(std::memory_order_relaxed)
     << "\nshards_exhausted = "
     << fo.shards_exhausted.load(std::memory_order_relaxed)
     << "\nworkers_registered = "
     << fo.workers_registered.load(std::memory_order_relaxed)
     << "\nreplicas_joined = "
     << fo.replicas_joined.load(std::memory_order_relaxed)
     << "\nshard_blocks_streamed = "
     << fo.shard_blocks_streamed.load(std::memory_order_relaxed)
     << "\nfingerprint_rejections = "
     << fo.fingerprint_rejections.load(std::memory_order_relaxed)
     << "\nplacement_epoch = "
     << fo.placement_epoch.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(table_mu_);
    for (const auto& [table, scans] : table_scans_) {
      os << "\nscans[" << table << "] = " << scans;
    }
  }
  return os.str();
}

}  // namespace net
}  // namespace isla
