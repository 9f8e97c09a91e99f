#ifndef ISLA_NET_SERVER_STATS_H_
#define ISLA_NET_SERVER_STATS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "stats/latency_histogram.h"

namespace isla {
namespace net {

/// Server-wide observability counters behind `SHOW SERVER STATS` and the
/// daemon's --stats ticker. Everything is atomic (or a small mutex-guarded
/// map for the per-table tallies): sessions and statements bump these
/// concurrently from accept handlers and executor threads.
class ServerStatsRegistry {
 public:
  /// CAS-max of the concurrent-session peak: called with the post-reserve
  /// session count, so the recorded peak can never exceed the admission
  /// limit the reservation enforced.
  void RecordPeakSessions(uint64_t active_now);

  /// One executed statement: latency plus, for SELECTs, the scanned table.
  void RecordStatement(uint64_t latency_micros, std::string_view table);

  void RecordRefusal() { refused_.fetch_add(1, std::memory_order_relaxed); }
  void RecordSlowClientDisconnect() {
    slow_client_disconnects_.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t statements() const {
    return statements_.load(std::memory_order_relaxed);
  }
  uint64_t refused() const { return refused_.load(std::memory_order_relaxed); }
  uint64_t slow_client_disconnects() const {
    return slow_client_disconnects_.load(std::memory_order_relaxed);
  }
  uint64_t peak_sessions() const {
    return peak_sessions_.load(std::memory_order_relaxed);
  }
  const stats::LatencyHistogram& latency() const { return latency_; }

  /// The `SHOW SERVER STATS` body: one "key = value" per line, plus one
  /// "scans[table] = n" line per scanned table (sorted by name).
  std::string Render(uint64_t active_sessions, uint64_t served,
                     uint64_t max_sessions, unsigned io_threads,
                     unsigned exec_threads, double uptime_seconds,
                     std::string_view kernel_tier) const;

 private:
  std::atomic<uint64_t> statements_{0};
  std::atomic<uint64_t> refused_{0};
  std::atomic<uint64_t> slow_client_disconnects_{0};
  std::atomic<uint64_t> peak_sessions_{0};
  stats::LatencyHistogram latency_;
  mutable std::mutex table_mu_;
  std::map<std::string, uint64_t> table_scans_;
};

}  // namespace net
}  // namespace isla

#endif  // ISLA_NET_SERVER_STATS_H_
