// Integration tests for the command-line tools: isla_shell (driven through
// a pipe), isla_import (via system()), and the isla_serverd/isla_client
// network pair (daemons on ephemeral ports, stopped before each test ends).
// These exercise the binaries end to end, the way a user would.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "storage/file_block.h"

namespace isla {
namespace {

namespace fs = std::filesystem;

/// Locates a tool binary relative to the test binary's build tree.
std::string ToolPath(const std::string& name) {
  // Tests run from build/tests/<test>; tools live in build/tools/.
  fs::path candidates[] = {
      fs::path("tools") / name,
      fs::path("..") / "tools" / name,
      fs::path("build") / "tools" / name,
  };
  for (const auto& c : candidates) {
    if (fs::exists(c)) return c.string();
  }
  return name;  // Hope it's on PATH.
}

/// Runs `command`, feeding `input` on stdin, returning captured stdout.
std::string RunWithInput(const std::string& command,
                         const std::string& input) {
  fs::path dir = fs::temp_directory_path();
  fs::path in_file = dir / ("isla_tool_in_" + std::to_string(::getpid()));
  fs::path out_file = dir / ("isla_tool_out_" + std::to_string(::getpid()));
  std::ofstream(in_file) << input;
  std::string full = command + " < " + in_file.string() + " > " +
                     out_file.string() + " 2>&1";
  int rc = std::system(full.c_str());
  (void)rc;
  std::ifstream out(out_file);
  std::string captured((std::istreambuf_iterator<char>(out)),
                       std::istreambuf_iterator<char>());
  fs::remove(in_file);
  fs::remove(out_file);
  return captured;
}

TEST(IslaShell, CreateQueryDescribeRoundTrip) {
  std::string out = RunWithInput(
      ToolPath("isla_shell"),
      "CREATE TABLE s FROM NORMAL(100, 20) ROWS 1e6 BLOCKS 4\n"
      "SELECT AVG(value) FROM s WITHIN 0.5\n"
      "SHOW TABLES\n"
      "quit\n");
  EXPECT_NE(out.find("created table s"), std::string::npos) << out;
  EXPECT_NE(out.find("AVG = "), std::string::npos) << out;
  EXPECT_NE(out.find("method=isla"), std::string::npos) << out;
}

TEST(IslaShell, ErrorsAreReportedNotFatal) {
  std::string out = RunWithInput(ToolPath("isla_shell"),
                                 "SELECT AVG(value) FROM ghost\n"
                                 "SHOW TABLES\n");
  EXPECT_NE(out.find("error: NotFound"), std::string::npos) << out;
  EXPECT_NE(out.find("(no tables)"), std::string::npos) << out;
}

TEST(IslaImport, ConvertsTextAndShellReadsIt) {
  fs::path dir = fs::temp_directory_path() / "isla_tools_test";
  fs::create_directories(dir);
  fs::path txt = dir / "col.txt";
  std::ofstream(txt) << "2\n4\n6\n8\n";

  std::string import_out =
      RunWithInput(ToolPath("isla_import") + " " + txt.string(), "");
  EXPECT_NE(import_out.find("4 rows"), std::string::npos) << import_out;

  fs::path islb = dir / "col.islb";
  ASSERT_TRUE(fs::exists(islb));

  std::string shell_out = RunWithInput(
      ToolPath("isla_shell"),
      "CREATE TABLE c FROM FILES('" + islb.string() + "')\n"
      "SELECT AVG(value) FROM c USING exact\n");
  EXPECT_NE(shell_out.find("AVG = 5.0000"), std::string::npos) << shell_out;
  fs::remove_all(dir);
}

TEST(IslaImport, FailsCleanlyOnMissingFile) {
  std::string out = RunWithInput(
      "( " + ToolPath("isla_import") + " /nope/missing.txt; echo rc=$? )",
      "");
  EXPECT_NE(out.find("IOError"), std::string::npos) << out;
  EXPECT_NE(out.find("rc=1"), std::string::npos) << out;
}

TEST(IslaShell, SetRetunesSessionDefaults) {
  std::string out = RunWithInput(ToolPath("isla_shell"),
                                 "SET precision 0.5\n"
                                 "SHOW SETTINGS\n"
                                 "SET confidence 42\n"
                                 "quit\n");
  EXPECT_NE(out.find("set precision = 0.5"), std::string::npos) << out;
  EXPECT_NE(out.find("precision = 0.5"), std::string::npos) << out;
  EXPECT_NE(out.find("error: InvalidArgument"), std::string::npos) << out;
}

TEST(FlagParsing, GarbageNumericFlagsAreFatalUsageErrors) {
  // atof/strtoull silently read "abc" as 0 — a daemon would then bind port
  // 0 or a client wait 0 ms, mysteriously. Both tools must instead refuse
  // loudly with exit code 2.
  struct Case {
    const char* tool;
    const char* args;
  };
  const Case cases[] = {
      {"isla_client", "--port abc"},
      {"isla_client", "--port 70000"},
      {"isla_client", "--within 0.5x"},
      {"isla_client", "--wait-millis twelve"},
      {"isla_client", "--expect-shards 2.5"},
      {"isla_serverd", "--port abc"},
      {"isla_serverd", "--parallelism -"},
      {"isla_serverd", "--precision 1e"},
      {"isla_serverd", "--heartbeat-millis 1s"},
  };
  for (const Case& c : cases) {
    std::string out = RunWithInput(
        "( " + ToolPath(c.tool) + " " + c.args + "; echo rc=$? )", "");
    EXPECT_NE(out.find("needs a number"), std::string::npos)
        << c.tool << " " << c.args << ": " << out;
    EXPECT_NE(out.find("rc=2"), std::string::npos)
        << c.tool << " " << c.args << ": " << out;
  }
}

// ---------------------------------------------------------------------------
// isla_serverd / isla_client: the network daemons end to end.
// ---------------------------------------------------------------------------

/// A daemon whose stdin is a pipe this test holds, with stdout and stderr
/// captured to `log`. isla_serverd exits at stdin EOF, so Stop() (or the
/// destructor, when an assertion returns early) closes the pipe and waits
/// until the daemon is gone; no daemon outlives its test.
class Daemon {
 public:
  Daemon(const std::string& command, const fs::path& log)
      : stdin_(::popen((command + " > " + log.string() + " 2>&1").c_str(),
                       "w")) {}
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  /// Closes the daemon's stdin and waits for it to exit. Returns the wait
  /// status: 0 for a clean exit, -1 if it never started or already stopped.
  int Stop() {
    if (stdin_ == nullptr) return -1;
    int status = ::pclose(stdin_);
    stdin_ = nullptr;
    return status;
  }

 private:
  FILE* stdin_;
};

/// A scratch directory private to this test process, so concurrent runs
/// from two build trees never share logs or shard files.
fs::path TestDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() /
                 (name + "_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  return dir;
}

/// Polls the daemon's stdout for "listening on 127.0.0.1:PORT" and
/// returns PORT (0 on timeout).
int WaitForPort(const fs::path& stdout_file) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::ifstream in(stdout_file);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    size_t at = content.find("listening on 127.0.0.1:");
    if (at != std::string::npos) {
      return std::atoi(content.c_str() + at + 23);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return 0;
}

TEST(IslaServerd, QueryServerSessionOverTcp) {
  fs::path dir = TestDir("isla_serverd_test");
  fs::path log = dir / "serverd.out";

  Daemon daemon(ToolPath("isla_serverd") + " --port 0 --precision 0.4", log);
  int port = WaitForPort(log);
  ASSERT_GT(port, 0) << "daemon never reported its port";

  std::string out = RunWithInput(
      ToolPath("isla_client") + " --port " + std::to_string(port),
      "CREATE TABLE s FROM NORMAL(100, 20) ROWS 1e6 BLOCKS 4\n"
      "SHOW SETTINGS\n"
      "SELECT AVG(value) FROM s\n"
      "quit\n");
  EXPECT_NE(out.find("created table s"), std::string::npos) << out;
  // The daemon's --precision became this session's default.
  EXPECT_NE(out.find("precision = 0.4"), std::string::npos) << out;
  EXPECT_NE(out.find("AVG = "), std::string::npos) << out;
  EXPECT_NE(out.find("bye"), std::string::npos) << out;
  EXPECT_EQ(daemon.Stop(), 0);
  fs::remove_all(dir);
}

TEST(IslaServerd, WorkerDaemonsServeDistributedAvg) {
  fs::path dir = TestDir("isla_workerd_test");

  // Two shards with known means: 2 rows at 10, 2 rows at 30 → AVG 20.
  std::vector<double> shard0 = {10.0, 10.0, 10.0, 10.0};
  std::vector<double> shard1 = {30.0, 30.0, 30.0, 30.0};
  fs::path islb0 = dir / "s0.islb";
  fs::path islb1 = dir / "s1.islb";
  ASSERT_TRUE(storage::WriteBlockFile(islb0.string(), shard0).ok());
  ASSERT_TRUE(storage::WriteBlockFile(islb1.string(), shard1).ok());

  fs::path log0 = dir / "w0.out";
  fs::path log1 = dir / "w1.out";
  Daemon worker0(ToolPath("isla_serverd") + " --worker --shard " +
                     islb0.string() + " --worker-id 0 --port 0",
                 log0);
  Daemon worker1(ToolPath("isla_serverd") + " --worker --shard " +
                     islb1.string() + " --worker-id 1 --port 0",
                 log1);
  int port0 = WaitForPort(log0);
  int port1 = WaitForPort(log1);
  ASSERT_GT(port0, 0);
  ASSERT_GT(port1, 0);

  std::string out = RunWithInput(
      ToolPath("isla_client") + " --workers 127.0.0.1:" +
          std::to_string(port0) + ",127.0.0.1:" + std::to_string(port1) +
          " --within 0.5",
      "");
  // Within-shard-constant data: each worker's partial is its exact shard
  // mean, so the row-weighted merge is (4·10 + 4·30)/8 = 20.
  size_t at = out.find("AVG = ");
  ASSERT_NE(at, std::string::npos) << out;
  EXPECT_NEAR(std::strtod(out.c_str() + at + 6, nullptr), 20.0, 0.5) << out;
  EXPECT_NE(out.find("rows=8"), std::string::npos) << out;
  EXPECT_EQ(worker0.Stop(), 0);
  EXPECT_EQ(worker1.Stop(), 0);
  fs::remove_all(dir);
}

TEST(IslaServerd, ReplicaGroupsFailOverPastDeadPreferredReplicas) {
  // The '|' replica syntax with the coordinator-preferred replica of BOTH
  // shards pointing at a dead port (nothing listens on 127.0.0.1:1): the
  // client must fail over to the live replica of each shard and still
  // produce the exact same answer — and report the failovers it took.
  fs::path dir = TestDir("isla_replicas_test");

  std::vector<double> shard0 = {10.0, 10.0, 10.0, 10.0};
  std::vector<double> shard1 = {30.0, 30.0, 30.0, 30.0};
  fs::path islb0 = dir / "s0.islb";
  fs::path islb1 = dir / "s1.islb";
  ASSERT_TRUE(storage::WriteBlockFile(islb0.string(), shard0).ok());
  ASSERT_TRUE(storage::WriteBlockFile(islb1.string(), shard1).ok());

  fs::path log0 = dir / "w0.out";
  fs::path log1 = dir / "w1.out";
  Daemon worker0(ToolPath("isla_serverd") + " --worker --shard " +
                     islb0.string() + " --worker-id 0 --port 0",
                 log0);
  Daemon worker1(ToolPath("isla_serverd") + " --worker --shard " +
                     islb1.string() + " --worker-id 1 --port 0",
                 log1);
  int port0 = WaitForPort(log0);
  int port1 = WaitForPort(log1);
  ASSERT_GT(port0, 0);
  ASSERT_GT(port1, 0);

  // Shard 0 prefers its first replica (dead), shard 1 its second (dead).
  std::string out = RunWithInput(
      ToolPath("isla_client") + " --workers '127.0.0.1:1|127.0.0.1:" +
          std::to_string(port0) + ",127.0.0.1:" + std::to_string(port1) +
          "|127.0.0.1:1' --within 0.5",
      "");
  size_t at = out.find("AVG = ");
  ASSERT_NE(at, std::string::npos) << out;
  EXPECT_NEAR(std::strtod(out.c_str() + at + 6, nullptr), 20.0, 0.5) << out;
  size_t fo = out.find("failovers=");
  ASSERT_NE(fo, std::string::npos) << out;
  EXPECT_GT(std::atoi(out.c_str() + fo + 10), 0) << out;
  EXPECT_NE(out.find("exhausted=0"), std::string::npos) << out;
  EXPECT_EQ(worker0.Stop(), 0);
  EXPECT_EQ(worker1.Stop(), 0);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace isla
