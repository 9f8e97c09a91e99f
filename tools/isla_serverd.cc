// isla_serverd — the ISLA network daemon. Two roles:
//
// Query server (default): accepts concurrent client sessions speaking the
// mini-SQL dialect, one private Session (catalog + SET-tunable
// IslaOptions) per connection:
//
//   $ ./isla_serverd --port 7100 --precision 0.2
//   listening on 127.0.0.1:7100 (query server)
//
// Worker (the paper's subsidiary): hosts one shard triple behind the
// distributed message protocol, for coordinators using --workers:
//
//   $ ./isla_serverd --worker --shard v0.islb --port 7101
//   $ ./isla_serverd --worker --shard v1.islb --predicate-shard p1.islb
//       --key-shard k1.islb --port 7102 --worker-id 1
//
// Worker ids are positional: a coordinator connecting to
// --workers host:7101,host:7102 addresses them as workers 0 and 1, and the
// daemon must be started with the matching --worker-id so its RNG streams
// line up with the single-node engine's per-block streams (that is what
// makes distributed answers bit-identical). Two workers started with the
// SAME --worker-id and the same shard files are replicas: they produce
// bit-identical answers, which is what lets a coordinator fail over or
// hedge between them freely.
//
// With --coordinator the worker announces its shard to a coordinator-side
// registry (isla_client --registry-port) and keeps heartbeating, so the
// cluster can grow or heal without restarting anything:
//
//   $ ./isla_serverd --worker --shard v0.islb --port 7101
//       --coordinator 127.0.0.1:7200
//
// With --join an *empty* worker pulls its shard from a live replica over
// the worker-to-worker streaming protocol before serving — scaling a
// shard 1→2 replicas with no hand-copied files:
//
//   $ ./isla_serverd --worker --worker-id 0 --join 127.0.0.1:7101
//       --shard-dir /var/lib/isla --coordinator 127.0.0.1:7200
//
// The streamed files land as ISLB blocks under --shard-dir and the worker
// then registers normally; its fingerprint matches the donor's, so the
// registry accepts it as a legitimate replica.
//
// The daemon runs until stdin reaches EOF or SIGINT/SIGTERM arrives, so it
// works both interactively and under a supervisor with a pipe held open.

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include "distributed/worker.h"
#include "flag_parse.h"
#include "net/query_server.h"
#include "net/shard_streamer.h"
#include "net/tcp_transport.h"
#include "net/worker_server.h"
#include "runtime/kernels/kernels.h"
#include "storage/file_block.h"

namespace {

volatile sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

void Usage() {
  std::fprintf(stderr,
               "usage: isla_serverd [--port P] [--precision e] "
               "[--confidence b]\n"
               "                    [--parallelism n] [--max-sessions n]\n"
               "                    [--io-threads n] [--exec-threads n] "
               "[--stats]\n"
               "       isla_serverd --worker --shard v.islb "
               "[--predicate-shard p.islb]\n"
               "                    [--key-shard k.islb] [--worker-id N] "
               "[--port P]\n"
               "                    [--coordinator host:port] "
               "[--advertise host]\n"
               "                    [--heartbeat-millis n]\n"
               "       isla_serverd --worker --worker-id N "
               "--join host:port\n"
               "                    [--shard-dir dir] [--port P] "
               "[--coordinator host:port]\n");
}

/// Blocks until stdin closes or a termination signal arrives, invoking
/// `on_tick` (nullable) roughly every 10 seconds in between.
void WaitForShutdown(const std::function<void()>& on_tick = nullptr) {
  int ticks = 0;
  while (!g_stop) {
    struct pollfd pfd;
    pfd.fd = STDIN_FILENO;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int rc = ::poll(&pfd, 1, 200);
    if (rc <= 0) {  // Tick (or EINTR from a handled signal).
      if (on_tick && ++ticks >= 50) {
        ticks = 0;
        on_tick();
      }
      continue;
    }
    char buf[256];
    ssize_t n = ::read(STDIN_FILENO, buf, sizeof(buf));
    if (n <= 0) return;  // EOF: supervisor dropped the pipe.
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool worker_mode = false;
  bool print_stats = false;
  uint16_t port = 0;
  uint64_t worker_id = 0;
  std::string shard, predicate_shard, key_shard;
  std::string coordinator_spec;
  std::string join_spec;
  std::string shard_dir = ".";
  std::string advertise_host = "127.0.0.1";
  int64_t heartbeat_millis = 500;
  isla::net::QueryServerOptions query_options;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--worker") {
      worker_mode = true;
    } else if (arg == "--port") {
      port = isla::tools::ParsePortFlag("--port", next("--port"));
    } else if (arg == "--worker-id") {
      worker_id = isla::tools::ParseU64Flag("--worker-id",
                                            next("--worker-id"));
    } else if (arg == "--shard") {
      shard = next("--shard");
    } else if (arg == "--predicate-shard") {
      predicate_shard = next("--predicate-shard");
    } else if (arg == "--key-shard") {
      key_shard = next("--key-shard");
    } else if (arg == "--coordinator") {
      coordinator_spec = next("--coordinator");
    } else if (arg == "--join") {
      join_spec = next("--join");
    } else if (arg == "--shard-dir") {
      shard_dir = next("--shard-dir");
    } else if (arg == "--advertise") {
      advertise_host = next("--advertise");
    } else if (arg == "--heartbeat-millis") {
      heartbeat_millis = isla::tools::ParseI64Flag("--heartbeat-millis",
                                                   next("--heartbeat-millis"));
    } else if (arg == "--precision") {
      query_options.session_defaults.precision =
          isla::tools::ParseF64Flag("--precision", next("--precision"));
    } else if (arg == "--confidence") {
      query_options.session_defaults.confidence =
          isla::tools::ParseF64Flag("--confidence", next("--confidence"));
    } else if (arg == "--parallelism") {
      query_options.session_defaults.parallelism = static_cast<uint32_t>(
          isla::tools::ParseU64Flag("--parallelism", next("--parallelism")));
    } else if (arg == "--max-sessions") {
      query_options.max_sessions =
          isla::tools::ParseU64Flag("--max-sessions", next("--max-sessions"));
    } else if (arg == "--io-threads") {
      query_options.io_threads = static_cast<unsigned>(
          isla::tools::ParseU64Flag("--io-threads", next("--io-threads")));
    } else if (arg == "--exec-threads") {
      query_options.exec_threads = static_cast<unsigned>(
          isla::tools::ParseU64Flag("--exec-threads", next("--exec-threads")));
    } else if (arg == "--stats") {
      print_stats = true;
    } else {
      Usage();
      return 2;
    }
  }

  signal(SIGINT, HandleSignal);
  signal(SIGTERM, HandleSignal);

  // Logged before the listening line so deployments can spot a
  // scalar-fallback misconfiguration (stale ISLA_KERNELS, wrong container
  // image for the host CPU) in the first line of the daemon's output.
  std::printf("kernel dispatch: %s (cpu: %s)\n",
              std::string(isla::runtime::kernels::ActiveLevelName()).c_str(),
              isla::runtime::kernels::CpuFeatureString().c_str());

  if (worker_mode) {
    if (shard.empty() && join_spec.empty()) {
      std::fprintf(stderr, "error: --worker needs --shard or --join\n");
      return 2;
    }
    if (!join_spec.empty() && shard.empty()) {
      // Empty worker joining the cluster: pull the shard from a live
      // replica first, then serve it like any hand-provisioned worker. A
      // stream that dies leaves no files behind and the daemon exits
      // non-zero — a supervisor restart is a clean retry.
      auto donor = isla::net::ParseEndpoint(join_spec);
      if (!donor.ok()) {
        std::fprintf(stderr, "error: --join: %s\n",
                     donor.status().ToString().c_str());
        return 2;
      }
      auto streamed =
          isla::net::FetchShard(*donor, worker_id, shard_dir);
      if (!streamed.ok()) {
        std::fprintf(stderr, "error: join stream failed: %s\n",
                     streamed.status().ToString().c_str());
        return 1;
      }
      shard = streamed->values_path;
      predicate_shard = streamed->predicate_path;
      key_shard = streamed->keys_path;
      std::printf("joined shard %llu from %s (%llu rows, %llu chunks)\n",
                  static_cast<unsigned long long>(worker_id),
                  join_spec.c_str(),
                  static_cast<unsigned long long>(streamed->rows),
                  static_cast<unsigned long long>(streamed->chunks));
    }
    auto open = [](const std::string& path)
        -> isla::storage::BlockPtr {
      if (path.empty()) return nullptr;
      auto block = isla::storage::FileBlock::Open(path);
      if (!block.ok()) {
        std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                     block.status().ToString().c_str());
        std::exit(1);
      }
      return *block;
    };
    isla::storage::BlockPtr values = open(shard);
    auto worker = std::make_unique<isla::distributed::Worker>(
        worker_id, values, open(predicate_shard), open(key_shard));

    isla::net::WorkerServerOptions options;
    options.port = port;
    if (!coordinator_spec.empty()) {
      auto endpoint = isla::net::ParseEndpoint(coordinator_spec);
      if (!endpoint.ok()) {
        std::fprintf(stderr, "error: --coordinator: %s\n",
                     endpoint.status().ToString().c_str());
        return 2;
      }
      options.coordinator_host = endpoint->host;
      options.coordinator_port = endpoint->port;
      options.advertised_host = advertise_host;
      options.heartbeat_millis = heartbeat_millis;
    }
    isla::net::WorkerServer server(std::move(worker), options);
    isla::Status st = server.Start();
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("listening on 127.0.0.1:%u (worker %llu, %llu rows)\n",
                server.port(),
                static_cast<unsigned long long>(worker_id),
                static_cast<unsigned long long>(values->size()));
    if (!coordinator_spec.empty()) {
      std::printf("registering shard %llu with %s (heartbeat %lld ms)\n",
                  static_cast<unsigned long long>(worker_id),
                  coordinator_spec.c_str(),
                  static_cast<long long>(heartbeat_millis));
    }
    std::fflush(stdout);
    WaitForShutdown();
    server.Stop();
    return 0;
  }

  query_options.port = port;
  isla::net::QueryServer server(query_options);
  isla::Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("listening on 127.0.0.1:%u (query server)\n", server.port());
  std::fflush(stdout);
  if (print_stats) {
    // The same body `SHOW SERVER STATS` returns, on a 10s ticker —
    // supervisor-friendly introspection without opening a session.
    WaitForShutdown([&server] {
      std::printf("--- server stats ---\n%s\n", server.StatsText().c_str());
      std::fflush(stdout);
    });
  } else {
    WaitForShutdown();
  }
  server.Stop();
  return 0;
}
