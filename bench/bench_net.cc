// Network transport overhead: the same distributed grouped aggregation
// executed over the in-process loopback transport and over real TCP
// (WorkerServer daemons on 127.0.0.1), plus raw transport round-trip
// latency and multi-client query-server throughput.
//
// Two hard checks ride along:
//   1. bit-identity: every TCP answer must equal its loopback answer bit
//      for bit (the differential suite's guarantee, re-verified on the
//      bench workload);
//   2. no-hang: every call is deadline-bounded, so a wedged socket fails
//      the bench instead of stalling it.
// The interesting number is the overhead ratio — how much of a query's
// wall clock the wire adds once real sampling work is on the other side.
//
// The many-clients sweep (--sessions, default 100,500,1000) then drives
// N concurrent sessions through the epoll event-loop server from a small
// driver-thread pool, hard-checks that every session's answer is
// bit-identical, and emits BENCH_net.json with stmts/s plus the server's
// own p50/p99 statement latency (from SHOW SERVER STATS).

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/group_by.h"
#include "distributed/coordinator.h"
#include "distributed/failover.h"
#include "distributed/worker.h"
#include "harness.h"
#include "net/connection.h"
#include "net/query_server.h"
#include "net/tcp_transport.h"
#include "net/worker_server.h"
#include "runtime/kernels/kernels.h"
#include "storage/block.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

using namespace isla;

struct Shards {
  std::vector<std::array<storage::BlockPtr, 3>> triples;
};

Shards MakeShards(uint64_t blocks, uint64_t rows_per_block) {
  Shards out;
  Xoshiro256 rng(424242);
  for (uint64_t b = 0; b < blocks; ++b) {
    std::vector<double> vals, preds, keys;
    for (uint64_t i = 0; i < rows_per_block; ++i) {
      double key = static_cast<double>(rng.NextBounded(4));
      vals.push_back(25.0 * (key + 1.0) + 3.0 * rng.NextDouble());
      preds.push_back(rng.NextDouble());
      keys.push_back(key);
    }
    out.triples.push_back(
        {std::make_shared<storage::MemoryBlock>(std::move(vals)),
         std::make_shared<storage::MemoryBlock>(std::move(preds)),
         std::make_shared<storage::MemoryBlock>(std::move(keys))});
  }
  return out;
}

std::vector<std::unique_ptr<distributed::Worker>> MakeWorkers(
    const Shards& shards) {
  std::vector<std::unique_ptr<distributed::Worker>> workers;
  for (uint64_t w = 0; w < shards.triples.size(); ++w) {
    workers.push_back(std::make_unique<distributed::Worker>(
        w, shards.triples[w][0], shards.triples[w][1],
        shards.triples[w][2]));
  }
  return workers;
}

double MedianMillis(std::vector<double>* times) {
  std::sort(times->begin(), times->end());
  return (*times)[times->size() / 2];
}

/// Blanks the wall-clock segment ("..., 1.2345 ms]") of a response so two
/// sessions' answers can be compared on their answer bytes alone.
std::string StripTiming(std::string s) {
  size_t end = s.find(" ms]");
  if (end == std::string::npos) return s;
  size_t start = s.rfind(", ", end);
  if (start == std::string::npos) return s;
  return s.erase(start, end - start);
}

/// Pulls "key = <double>" out of a SHOW SERVER STATS body; -1 if absent.
double StatsValue(const std::string& stats, const std::string& key) {
  size_t at = stats.find(key + " = ");
  if (at == std::string::npos) return -1.0;
  return std::strtod(stats.c_str() + at + key.size() + 3, nullptr);
}

struct SweepRow {
  int sessions = 0;
  uint64_t statements = 0;
  double stmts_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool identical = false;
};

/// N concurrent sessions against one event-loop query server, driven by a
/// fixed pool of driver threads (each owning N/kDrivers blocking client
/// connections, pipelining round-robin across them). Every session runs
/// the same seeded CREATE + WHERE query, so the shared scheduler's result
/// cache coalesces the work — and every answer must be bit-identical.
bool RunManyClientsSweep(int n_sessions, int stmts_per_session,
                         SweepRow* out) {
  net::QueryServerOptions qopts;
  qopts.max_sessions = 2048;
  net::QueryServer server(qopts);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "sweep(%d): server failed to start\n", n_sessions);
    return false;
  }

  const int kDrivers = std::min(32, n_sessions);
  std::vector<std::unique_ptr<net::Connection>> conns(n_sessions);
  std::atomic<bool> ok{true};
  {
    std::vector<std::thread> threads;
    for (int d = 0; d < kDrivers; ++d) {
      threads.emplace_back([&, d] {
        for (int i = d; i < n_sessions && ok.load(); i += kDrivers) {
          auto conn = net::TcpConnect("127.0.0.1", server.port(), 30'000);
          if (!conn.ok()) { ok = false; return; }
          (*conn)->set_deadline_millis(120'000);
          if (!(*conn)->RecvFrame().ok()) { ok = false; return; }  // greeting
          conns[i] = std::move(*conn);
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  if (!ok.load()) {
    std::fprintf(stderr, "sweep(%d): failed to establish sessions\n",
                 n_sessions);
    return false;
  }

  const std::string create =
      "CREATE TABLE t FROM NORMAL(100, 20) ROWS 1e5 BLOCKS 4";
  const std::string query =
      "SELECT AVG(value) FROM t WHERE value >= 90 WITHIN 0.5";
  std::vector<std::string> answers(n_sessions);

  Timer timer;
  {
    std::vector<std::thread> threads;
    for (int d = 0; d < kDrivers; ++d) {
      threads.emplace_back([&, d] {
        auto round = [&](const std::string& statement, bool keep) {
          for (int i = d; i < n_sessions; i += kDrivers) {
            if (!conns[i]->SendFrame(statement).ok()) { ok = false; return; }
          }
          for (int i = d; i < n_sessions; i += kDrivers) {
            auto r = conns[i]->RecvFrame();
            if (!r.ok()) { ok = false; return; }
            if (keep) answers[i] = *std::move(r);
          }
        };
        round(create, /*keep=*/false);
        for (int q = 0; q < stmts_per_session && ok.load(); ++q) {
          round(query, /*keep=*/true);
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  double wall_ms = timer.ElapsedMillis();
  if (!ok.load()) {
    std::fprintf(stderr, "sweep(%d): statement round failed\n", n_sessions);
    return false;
  }

  // Hard bit-identity across every concurrent session.
  bool identical = true;
  std::string reference = StripTiming(answers[0]);
  for (int i = 1; i < n_sessions && identical; ++i) {
    identical = StripTiming(answers[i]) == reference;
  }
  if (reference.rfind("ok\n", 0) != 0) identical = false;

  // Tail latency as the server itself measured it, per statement.
  std::string stats;
  if (conns[0]->SendFrame("SHOW SERVER STATS").ok()) {
    auto r = conns[0]->RecvFrame();
    if (r.ok()) stats = *std::move(r);
  }

  out->sessions = n_sessions;
  out->statements =
      static_cast<uint64_t>(n_sessions) * (1 + stmts_per_session);
  out->stmts_per_sec =
      1000.0 * static_cast<double>(out->statements) / wall_ms;
  out->p50_ms = StatsValue(stats, "latency_p50_ms");
  out->p99_ms = StatsValue(stats, "latency_p99_ms");
  out->identical = identical;
  server.Stop();
  return identical;
}

bool BitIdentical(const core::GroupedAggregateResult& a,
                  const core::GroupedAggregateResult& b) {
  if (a.groups.size() != b.groups.size()) return false;
  for (size_t g = 0; g < a.groups.size(); ++g) {
    if (a.groups[g].average != b.groups[g].average ||
        a.groups[g].sum != b.groups[g].sum ||
        a.groups[g].count_estimate != b.groups[g].count_estimate ||
        a.groups[g].ci_half_width != b.groups[g].ci_half_width) {
      return false;
    }
  }
  return true;
}

struct FailoverRow {
  double stmts_per_sec = 0.0;
  double max_ms = 0.0;  // slowest query: a handful of reps has no p99
  bool identical = false;
  uint64_t failovers = 0;
};

/// Runs `reps` grouped queries against a replicated cluster (2 replicas
/// per shard; `dead` kills the coordinator-preferred replica of every
/// shard first), hard-checking every answer bit-identical to `reference`.
bool RunFailoverRun(const std::vector<net::Endpoint>& endpoints,
                    const std::vector<std::vector<uint64_t>>& placement,
                    const core::IslaOptions& options,
                    const distributed::GroupedQuerySpec& wire, int reps,
                    const std::vector<core::GroupedAggregateResult>& reference,
                    FailoverRow* out) {
  net::TcpTransportOptions topts;
  topts.reconnect_attempts = 1;
  net::TcpTransport inner(endpoints, topts);
  distributed::FailoverOptions fopts;
  fopts.enable_hedging = false;  // measure the retry path, not the race
  fopts.backoff_base_millis = 1;
  fopts.backoff_max_millis = 5;
  distributed::FailoverTransport transport(&inner, placement, fopts);

  double max_ms = 0.0;
  bool identical = true;
  Timer wall;
  for (int rep = 0; rep < reps; ++rep) {
    distributed::Coordinator coordinator(&transport, options);
    Timer timer;
    auto r = coordinator.AggregateGrouped(wire, /*query_id=*/rep + 1,
                                          /*seed_salt=*/rep);
    max_ms = std::max(max_ms, timer.ElapsedMillis());
    if (!r.ok()) {
      std::fprintf(stderr, "failover query %d failed: %s\n", rep,
                   r.status().ToString().c_str());
      return false;
    }
    identical = identical && BitIdentical(*r, reference[rep]);
  }
  double wall_ms = wall.ElapsedMillis();
  out->stmts_per_sec = 1000.0 * reps / wall_ms;
  out->max_ms = max_ms;
  out->identical = identical;
  out->failovers = transport.failover_snapshot().failovers;
  return identical;
}

/// 2 fds per session (client + server end) at 1000 sessions outgrows the
/// common 1024 soft cap; raise it toward the hard limit up front.
void RaiseFdLimit() {
  struct rlimit rl;
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return;
  rlim_t want = 16384;
  if (rl.rlim_max != RLIM_INFINITY && want > rl.rlim_max) want = rl.rlim_max;
  if (rl.rlim_cur < want) {
    rl.rlim_cur = want;
    (void)::setrlimit(RLIMIT_NOFILE, &rl);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace isla;
  std::vector<int> sweep_sessions = {100, 500, 1000};
  int stmts_per_session = 3;
  std::string out_path = "BENCH_net.json";
  std::string failover_out_path = "BENCH_failover.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--sessions") {
      sweep_sessions.clear();
      std::string list = next("--sessions");
      size_t start = 0;
      while (start <= list.size()) {
        size_t comma = list.find(',', start);
        std::string item = list.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        if (!item.empty()) sweep_sessions.push_back(std::atoi(item.c_str()));
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (arg == "--stmts") {
      stmts_per_session = std::atoi(next("--stmts"));
    } else if (arg == "--out") {
      out_path = next("--out");
    } else if (arg == "--failover-out") {
      failover_out_path = next("--failover-out");
    } else {
      std::fprintf(stderr,
                   "usage: bench_net [--sessions n,n,...] [--stmts n] "
                   "[--out file] [--failover-out file]\n");
      return 2;
    }
  }
  RaiseFdLimit();
  bench::PrintHeader(
      "TCP transport overhead",
      "Grouped WHERE+GROUP BY aggregation, 4 shards, loopback vs TCP "
      "(127.0.0.1 WorkerServer daemons); answers hard-checked "
      "bit-identical");

  constexpr uint64_t kBlocks = 4;
  constexpr uint64_t kRowsPerBlock = 100'000;
  constexpr int kReps = 5;
  Shards shards = MakeShards(kBlocks, kRowsPerBlock);

  core::IslaOptions options;
  options.precision = 0.2;

  distributed::GroupedQuerySpec wire;
  wire.has_predicate = true;
  wire.op = core::PredicateOp::kGe;
  wire.literal = 0.3;
  wire.has_group = true;

  // --- Loopback baseline. ---
  distributed::LoopbackTransport loopback(MakeWorkers(shards));
  std::vector<double> loop_times;
  core::GroupedAggregateResult loop_answer;
  for (int rep = 0; rep < kReps; ++rep) {
    distributed::Coordinator coordinator(&loopback, options);
    Timer timer;
    auto r = coordinator.AggregateGrouped(wire, /*query_id=*/rep + 1,
                                          /*seed_salt=*/rep);
    loop_times.push_back(timer.ElapsedMillis());
    if (!r.ok()) {
      std::fprintf(stderr, "loopback failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    loop_answer = *std::move(r);
  }

  // --- TCP cluster on ephemeral loopback ports. ---
  std::vector<std::unique_ptr<net::WorkerServer>> servers;
  std::vector<net::Endpoint> endpoints;
  {
    auto workers = MakeWorkers(shards);
    for (auto& worker : workers) {
      auto server = std::make_unique<net::WorkerServer>(std::move(worker));
      if (!server->Start().ok()) {
        std::fprintf(stderr, "worker server failed to start\n");
        return 1;
      }
      endpoints.push_back({"127.0.0.1", server->port()});
      servers.push_back(std::move(server));
    }
  }
  net::TcpTransport transport(endpoints);
  std::vector<double> tcp_times;
  bool identical = true;
  for (int rep = 0; rep < kReps; ++rep) {
    distributed::Coordinator coordinator(&transport, options);
    Timer timer;
    auto r = coordinator.AggregateGrouped(wire, /*query_id=*/rep + 1,
                                          /*seed_salt=*/rep);
    tcp_times.push_back(timer.ElapsedMillis());
    if (!r.ok()) {
      std::fprintf(stderr, "tcp failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    // Hard bit-identity check on the last rep's answer (same salt).
    if (rep == kReps - 1) {
      if (r->groups.size() != loop_answer.groups.size()) identical = false;
      for (size_t g = 0; identical && g < r->groups.size(); ++g) {
        identical = r->groups[g].average == loop_answer.groups[g].average &&
                    r->groups[g].count_estimate ==
                        loop_answer.groups[g].count_estimate &&
                    r->groups[g].ci_half_width ==
                        loop_answer.groups[g].ci_half_width;
      }
    }
  }

  double loop_ms = MedianMillis(&loop_times);
  double tcp_ms = MedianMillis(&tcp_times);

  // --- Raw round-trip latency: minimal pilot request, many times. ---
  constexpr int kPings = 400;
  distributed::PilotRequest ping{1, 2, 42};
  std::string ping_frame = distributed::Encode(ping);
  Timer ping_timer;
  for (int i = 0; i < kPings; ++i) {
    auto r = transport.Call(0, ping_frame);
    if (!r.ok()) {
      std::fprintf(stderr, "ping failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
  }
  double ping_ms = ping_timer.ElapsedMillis() / kPings;

  // --- Multi-client query-server throughput. ---
  net::QueryServerOptions qopts;
  net::QueryServer query_server(qopts);
  if (!query_server.Start().ok()) {
    std::fprintf(stderr, "query server failed to start\n");
    return 1;
  }
  constexpr int kClients = 4;
  constexpr int kStatementsPerClient = 25;
  Timer session_timer;
  {
    std::vector<std::thread> clients;
    std::atomic<bool> ok{true};
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        auto conn =
            net::TcpConnect("127.0.0.1", query_server.port(), 2'000);
        if (!conn.ok()) { ok = false; return; }
        if (!(*conn)->RecvFrame().ok()) { ok = false; return; }
        (void)(*conn)->SendFrame(
            "CREATE TABLE t FROM NORMAL(100, 20) ROWS 1e6 BLOCKS 4 SEED " +
            std::to_string(c));
        if (!(*conn)->RecvFrame().ok()) { ok = false; return; }
        for (int q = 0; q < kStatementsPerClient; ++q) {
          if (!(*conn)->SendFrame("SELECT AVG(value) FROM t WITHIN 0.5")
                   .ok() ||
              !(*conn)->RecvFrame().ok()) {
            ok = false;
            return;
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    if (!ok.load()) {
      std::fprintf(stderr, "query-server client failed\n");
      return 1;
    }
  }
  double session_ms = session_timer.ElapsedMillis();
  double stmts_per_sec =
      1000.0 * kClients * kStatementsPerClient / session_ms;
  query_server.Stop();

  // --- Many-clients sweep over the event-loop server. ---
  std::vector<SweepRow> sweep;
  bool sweep_ok = true;
  for (int n : sweep_sessions) {
    SweepRow row;
    if (!RunManyClientsSweep(n, stmts_per_session, &row)) sweep_ok = false;
    sweep.push_back(row);
    std::printf("sweep: %d sessions -> %.0f stmts/s (p50 %.3f ms, p99 "
                "%.3f ms, identical: %s)\n",
                row.sessions, row.stmts_per_sec, row.p50_ms, row.p99_ms,
                row.identical ? "yes" : "NO");
  }

  // --- Failover sweep: replicated cluster, healthy vs one dead replica
  // per shard. The degraded run must stay bit-identical (failover finds
  // the survivor) and the numbers quantify what a dead replica costs. ---
  constexpr int kFailoverReps = 15;
  std::vector<core::GroupedAggregateResult> failover_reference;
  for (int rep = 0; rep < kFailoverReps; ++rep) {
    distributed::Coordinator coordinator(&loopback, options);
    auto r = coordinator.AggregateGrouped(wire, /*query_id=*/rep + 1,
                                          /*seed_salt=*/rep);
    if (!r.ok()) {
      std::fprintf(stderr, "failover reference failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    failover_reference.push_back(*std::move(r));
  }

  std::vector<std::unique_ptr<net::WorkerServer>> replica_servers;
  std::vector<net::Endpoint> replica_endpoints;
  std::vector<std::vector<uint64_t>> placement;
  for (uint64_t w = 0; w < kBlocks; ++w) {
    placement.emplace_back();
    for (int r = 0; r < 2; ++r) {
      auto server = std::make_unique<net::WorkerServer>(
          std::make_unique<distributed::Worker>(w, shards.triples[w][0],
                                                shards.triples[w][1],
                                                shards.triples[w][2]));
      if (!server->Start().ok()) {
        std::fprintf(stderr, "replica server failed to start\n");
        return 1;
      }
      placement.back().push_back(replica_endpoints.size());
      replica_endpoints.push_back({"127.0.0.1", server->port()});
      replica_servers.push_back(std::move(server));
    }
  }

  FailoverRow healthy_row, degraded_row;
  bool failover_ok =
      RunFailoverRun(replica_endpoints, placement, options, wire,
                     kFailoverReps, failover_reference, &healthy_row);
  // Kill the replica the transport tries FIRST for every shard
  // (placement[w][w % 2]), so each degraded query has to fail over.
  for (uint64_t w = 0; w < kBlocks; ++w) {
    replica_servers[placement[w][w % 2]]->Stop();
  }
  failover_ok = RunFailoverRun(replica_endpoints, placement, options, wire,
                               kFailoverReps, failover_reference,
                               &degraded_row) &&
                failover_ok;
  if (degraded_row.failovers == 0) {
    std::fprintf(stderr,
                 "FAIL: degraded run never exercised the failover path\n");
    failover_ok = false;
  }
  for (auto& server : replica_servers) server->Stop();
  std::printf("failover: healthy %.0f stmts/s (max %.3f ms) vs one dead "
              "replica %.0f stmts/s (max %.3f ms, %llu failovers, "
              "identical: %s)\n",
              healthy_row.stmts_per_sec, healthy_row.max_ms,
              degraded_row.stmts_per_sec, degraded_row.max_ms,
              static_cast<unsigned long long>(degraded_row.failovers),
              degraded_row.identical ? "yes" : "NO");

  TablePrinter table({"metric", "value"});
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f ms", loop_ms);
  table.AddRow({"grouped query, loopback (median)", buf});
  std::snprintf(buf, sizeof(buf), "%.2f ms", tcp_ms);
  table.AddRow({"grouped query, TCP (median)", buf});
  std::snprintf(buf, sizeof(buf), "%.2fx", tcp_ms / loop_ms);
  table.AddRow({"TCP / loopback overhead", buf});
  std::snprintf(buf, sizeof(buf), "%.3f ms", ping_ms);
  table.AddRow({"transport round trip (pilot frame)", buf});
  std::snprintf(buf, sizeof(buf), "%.0f stmts/s (%d clients)",
                stmts_per_sec, kClients);
  table.AddRow({"query server throughput", buf});
  table.AddRow({"TCP answer bit-identical", identical ? "YES" : "DIFF"});
  std::snprintf(buf, sizeof(buf), "%.0f stmts/s, max %.3f ms",
                healthy_row.stmts_per_sec, healthy_row.max_ms);
  table.AddRow({"failover sweep, healthy replicas", buf});
  std::snprintf(buf, sizeof(buf), "%.0f stmts/s, max %.3f ms%s",
                degraded_row.stmts_per_sec, degraded_row.max_ms,
                degraded_row.identical ? "" : " (DIVERGED)");
  table.AddRow({"failover sweep, one dead replica", buf});
  for (const SweepRow& row : sweep) {
    std::snprintf(buf, sizeof(buf), "%.0f stmts/s, p99 %.3f ms%s",
                  row.stmts_per_sec, row.p99_ms,
                  row.identical ? "" : " (DIVERGED)");
    table.AddRow({"sweep, " + std::to_string(row.sessions) + " sessions",
                  buf});
  }
  table.Print();

  // --- Emit BENCH_net.json. ---
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open --out file %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"net\",\n");
  std::fprintf(f, "  \"kernel_dispatch\": \"%s\",\n",
               std::string(runtime::kernels::ActiveLevelName()).c_str());
  std::fprintf(f, "  \"cpu_features\": \"%s\",\n",
               runtime::kernels::CpuFeatureString().c_str());
  std::fprintf(f, "  \"transport\": {\n");
  std::fprintf(f, "    \"loopback_ms\": %.3f,\n", loop_ms);
  std::fprintf(f, "    \"tcp_ms\": %.3f,\n", tcp_ms);
  std::fprintf(f, "    \"round_trip_ms\": %.4f,\n", ping_ms);
  std::fprintf(f, "    \"bit_identical\": %s\n",
               identical ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"query_server\": {\n");
  std::fprintf(f, "    \"clients\": %d,\n", kClients);
  std::fprintf(f, "    \"stmts_per_sec\": %.1f\n", stmts_per_sec);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"many_clients\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepRow& row = sweep[i];
    std::fprintf(f,
                 "    {\"sessions\": %d, \"statements\": %llu, "
                 "\"stmts_per_sec\": %.1f, \"latency_p50_ms\": %.3f, "
                 "\"latency_p99_ms\": %.3f, \"bit_identical\": %s}%s\n",
                 row.sessions,
                 static_cast<unsigned long long>(row.statements),
                 row.stmts_per_sec, row.p50_ms, row.p99_ms,
                 row.identical ? "true" : "false",
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // --- Emit BENCH_failover.json. ---
  std::FILE* ff = std::fopen(failover_out_path.c_str(), "w");
  if (ff == nullptr) {
    std::fprintf(stderr, "cannot open --failover-out file %s\n",
                 failover_out_path.c_str());
    return 1;
  }
  std::fprintf(ff, "{\n");
  std::fprintf(ff, "  \"bench\": \"failover\",\n");
  std::fprintf(ff, "  \"kernel_dispatch\": \"%s\",\n",
               std::string(runtime::kernels::ActiveLevelName()).c_str());
  std::fprintf(ff, "  \"shards\": %llu,\n",
               static_cast<unsigned long long>(kBlocks));
  std::fprintf(ff, "  \"replicas_per_shard\": 2,\n");
  std::fprintf(ff, "  \"queries\": %d,\n", kFailoverReps);
  std::fprintf(ff,
               "  \"healthy\": {\"stmts_per_sec\": %.1f, "
               "\"latency_max_ms\": %.3f, \"bit_identical\": %s},\n",
               healthy_row.stmts_per_sec, healthy_row.max_ms,
               healthy_row.identical ? "true" : "false");
  std::fprintf(ff,
               "  \"one_dead_replica\": {\"stmts_per_sec\": %.1f, "
               "\"latency_max_ms\": %.3f, \"bit_identical\": %s, "
               "\"failovers\": %llu}\n",
               degraded_row.stmts_per_sec, degraded_row.max_ms,
               degraded_row.identical ? "true" : "false",
               static_cast<unsigned long long>(degraded_row.failovers));
  std::fprintf(ff, "}\n");
  std::fclose(ff);
  std::printf("wrote %s\n", failover_out_path.c_str());

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: TCP answer diverged from loopback answer\n");
    return 1;
  }
  if (!sweep_ok) {
    std::fprintf(stderr,
                 "FAIL: many-clients sweep diverged or did not complete\n");
    return 1;
  }
  if (!failover_ok) {
    std::fprintf(stderr,
                 "FAIL: failover sweep diverged, failed, or never failed "
                 "over\n");
    return 1;
  }
  std::printf("\nOK: TCP grouped answers bit-identical to loopback; "
              "sweep answers bit-identical across sessions; degraded "
              "replicated answers bit-identical to healthy.\n");
  return 0;
}
