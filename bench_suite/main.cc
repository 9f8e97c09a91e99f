// bench_suite: the repository benchmark. One workload per process, so peak
// memory and set-up time are counted per workload.
//
//   bench_suite --workload <avg_dram|groupby_cached|server_mix|dist_tcp|all>
//               [--seed N] [--seconds S] [--trace FILE] [--quick]
//               [--data-dir DIR]
//
// --workload all re-executes this binary once per workload. --trace makes
// the separate traced run: it prints the per-layer metrics instead of the
// end-to-end ones and writes the spans to FILE as Chrome trace-event JSON.
// --quick is a smoke run (1/20 of the time and checked statements, smaller
// data); its numbers are not comparable with a full run.
//
// Exit status: 0 ok, 1 a hard check failed (a wrong answer), 2 bad usage.

#include <spawn.h>
#include <sys/wait.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "suite.h"

extern char** environ;

namespace {

struct Workload {
  const char* name;
  suite::WorkloadFn run;
};

constexpr Workload kWorkloads[] = {
    {"avg_dram", suite::RunAvgDram},
    {"groupby_cached", suite::RunGroupbyCached},
    {"server_mix", suite::RunServerMix},
    {"dist_tcp", suite::RunDistTcp},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: bench_suite --workload "
               "<avg_dram|groupby_cached|server_mix|dist_tcp|all> "
               "[--seed N] [--seconds S] [--trace FILE] [--quick] "
               "[--data-dir DIR]\n",
               why);
  std::exit(2);
}

// Numeric flags must parse completely: "10s", "", "1e999" and "-1" are
// usage errors, never silently 0 or truncated.
template <typename T>
T ParseNumber(const char* flag, const char* value) {
  T out{};
  const char* end = value + std::strlen(value);
  auto [ptr, ec] = std::from_chars(value, end, out);
  if (ec != std::errc() || ptr != end || end == value) {
    Usage((std::string(flag) + " needs a number, got '" + value + "'")
              .c_str());
  }
  return out;
}

/// Runs every workload in its own process, with the same flags.
int RunAll(char** argv, int argc) {
  int status = 0;
  for (const Workload& w : kWorkloads) {
    std::vector<std::string> args;
    for (int i = 0; i < argc; ++i) args.push_back(argv[i]);
    for (size_t i = 0; i + 1 < args.size(); ++i) {
      if (args[i] == "--workload") args[i + 1] = w.name;
      if (args[i] == "--trace") args[i + 1] += std::string(".") + w.name;
    }
    std::vector<char*> child_argv;
    for (std::string& a : args) child_argv.push_back(a.data());
    child_argv.push_back(nullptr);
    std::fflush(stdout);
    pid_t pid = 0;
    if (::posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr,
                      child_argv.data(), environ) != 0) {
      std::fprintf(stderr, "cannot re-execute for workload %s\n", w.name);
      return 1;
    }
    int child = 0;
    if (::waitpid(pid, &child, 0) != pid || !WIFEXITED(child) ||
        WEXITSTATUS(child) != 0) {
      std::fprintf(stderr, "workload %s failed\n", w.name);
      status = 1;
    }
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  suite::SuiteOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) Usage((arg + " needs a value").c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = ParseNumber<uint64_t>("--seed", value());
    } else if (arg == "--seconds") {
      options.seconds = ParseNumber<double>("--seconds", value());
      if (!(options.seconds > 0.0 && options.seconds <= 600.0)) {
        Usage("--seconds must be in (0, 600]");
      }
    } else if (arg == "--trace") {
      options.trace_path = value();
      if (options.trace_path.empty()) Usage("--trace needs a file name");
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--data-dir") {
      options.data_dir = value();
    } else {
      Usage(("unknown flag '" + arg + "'").c_str());
    }
  }
  if (options.workload.empty()) Usage("--workload is required");
  if (options.workload == "all") return RunAll(argv, argc);

  for (const Workload& w : kWorkloads) {
    if (options.workload != w.name) continue;
    if (options.quick) options.seconds /= 20.0;
    std::printf("%s machine %s\n", w.name, suite::MachineRecordJson().c_str());
    if (options.quick) {
      std::printf("%s note quick run: not comparable with full runs\n",
                  w.name);
    }
    suite::Report report(w.name);
    w.run(options, &report);
    return report.Finish();
  }
  Usage(("unknown workload '" + options.workload + "'").c_str());
}
