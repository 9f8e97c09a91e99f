// Scan-scheduler benchmark with a machine-readable perf record: emits
// BENCH_shared.json comparing solo execution (N serial standalone
// core::GroupByEngine runs, each with its own sampling pass) against one
// default engine::ScanScheduler with all N statements submitted
// concurrently (identical in-flight statements run once, repeats hit the
// pilot/result caches), for N = 1 / 4 / 16, on two workloads:
//
//   identical — N copies of the same WHERE + GROUP BY statement (the
//               repeated-dashboard-panel case); the scheduler runs them
//               once, so rows scanned collapse by ~N.
//   mixed     — N statements with different predicate literals over the
//               same table. Each is a distinct execution, so the scheduler
//               scans as many rows as solo (1.0x). That is by design: the
//               scheduler shares work only between identical statements,
//               and every execution is the engine's own pipeline.
//
// Hard checks (exit 1 on violation):
//   * every batched answer is bit-identical, field by field, to the
//     standalone core::GroupByEngine execution of the same statement;
//   * for N = 16 identical statements the batched rows-scanned total is at
//     least --min-identical-reduction (default 2.0) times smaller than the
//     solo total.
//
// Flags: --rows N --blocks N --out PATH --min-identical-reduction X

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/group_by.h"
#include "core/options.h"
#include "engine/scan_scheduler.h"
#include "harness.h"
#include "runtime/kernels/kernels.h"
#include "storage/block.h"
#include "storage/table.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using isla::Xoshiro256;

struct Config {
  uint64_t rows = 4'000'000;
  uint64_t blocks = 8;
  std::string out = "BENCH_shared.json";
  double min_identical_reduction = 2.0;  // hard gate for N=16; 0 disables
};

Config ParseArgs(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--rows") {
      cfg.rows = std::strtoull(next(), nullptr, 10);
    } else if (a == "--blocks") {
      cfg.blocks = std::strtoull(next(), nullptr, 10);
    } else if (a == "--out") {
      cfg.out = next();
    } else if (a == "--min-identical-reduction") {
      cfg.min_identical_reduction = std::strtod(next(), nullptr);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      std::exit(2);
    }
  }
  return cfg;
}

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FATAL: %s\n", what);
    std::exit(1);
  }
}

/// Field-by-field bit equality against the standalone engine's answer.
void CheckBitIdentical(const isla::core::GroupedAggregateResult& got,
                       const isla::core::GroupedAggregateResult& want,
                       const char* what) {
  Check(got.groups.size() == want.groups.size(), what);
  Check(got.scanned_samples == want.scanned_samples, what);
  Check(got.pilot_samples == want.pilot_samples, what);
  for (size_t g = 0; g < want.groups.size(); ++g) {
    Check(got.groups[g].key == want.groups[g].key, what);
    Check(got.groups[g].average == want.groups[g].average, what);
    Check(got.groups[g].sum == want.groups[g].sum, what);
    Check(got.groups[g].count_estimate == want.groups[g].count_estimate,
          what);
    Check(got.groups[g].ci_half_width == want.groups[g].ci_half_width, what);
    Check(got.groups[g].samples == want.groups[g].samples, what);
  }
}

/// One statement of a workload: a (predicate literal) variation over the
/// shared fixture columns.
struct Statement {
  isla::core::GroupedSpec spec;
  isla::core::IslaOptions options;
};

struct RunResult {
  double elapsed_millis = 0.0;
  uint64_t rows_scanned = 0;  // value-column rows actually gathered
  double stmts_per_sec = 0.0;
};

RunResult Finish(const isla::Timer& timer, size_t statements,
                 uint64_t rows_scanned) {
  RunResult run;
  run.elapsed_millis = timer.ElapsedMillis();
  run.rows_scanned = rows_scanned;
  run.stmts_per_sec =
      static_cast<double>(statements) / (run.elapsed_millis / 1000.0);
  return run;
}

/// Solo: `stmts` run serially on standalone engines. Their answers are the
/// bit-identity oracle, returned in `expected`.
RunResult RunSolo(const std::vector<Statement>& stmts,
                  std::vector<isla::core::GroupedAggregateResult>* expected) {
  uint64_t rows = 0;
  isla::Timer timer;
  for (const Statement& s : stmts) {
    isla::core::GroupByEngine engine(s.options);
    auto r = engine.Aggregate(s.spec, 0);
    Check(r.ok(), "standalone Aggregate failed");
    rows += r->scanned_samples + r->pilot_samples;
    expected->push_back(std::move(*r));
  }
  return Finish(timer, stmts.size(), rows);
}

/// Batched: `stmts` submitted concurrently to one default scheduler. Every
/// answer is hard-checked against `expected`.
RunResult RunBatched(
    const std::vector<Statement>& stmts,
    const std::vector<isla::core::GroupedAggregateResult>& expected) {
  isla::engine::ScanScheduler scheduler;
  std::vector<isla::Result<isla::core::GroupedAggregateResult>> results(
      stmts.size(), isla::Status::Internal("not run"));
  isla::Timer timer;
  std::vector<std::thread> threads;
  for (size_t i = 0; i < stmts.size(); ++i) {
    threads.emplace_back([&, i] {
      results[i] = scheduler.Execute(stmts[i].spec, stmts[i].options, 0);
    });
  }
  for (auto& t : threads) t.join();
  RunResult run = Finish(timer, stmts.size(), scheduler.stats().rows_gathered);
  for (size_t i = 0; i < stmts.size(); ++i) {
    Check(results[i].ok(), "scheduler Execute failed");
    CheckBitIdentical(*results[i], expected[i],
                      "batched answer must be bit-identical to standalone");
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace isla;
  const Config cfg = ParseArgs(argc, argv);
  bench::PrintHeader(
      "Scan scheduler: in-flight dedup and caches",
      "solo vs batched stmts/s and rows scanned, N=1/4/16 identical and "
      "mixed predicates; emits " + cfg.out);
  std::printf("kernel dispatch: %s (cpu: %s)\n",
              std::string(runtime::kernels::ActiveLevelName()).c_str(),
              runtime::kernels::CpuFeatureString().c_str());

  // --- Fixture: row-aligned value/predicate/key columns. ---
  storage::Column values("v"), preds("p"), keys("k");
  Xoshiro256 rng(20260808);
  const uint64_t per_block = cfg.rows / cfg.blocks;
  for (uint64_t b = 0; b < cfg.blocks; ++b) {
    std::vector<double> vs(per_block), ps(per_block), ks(per_block);
    for (uint64_t i = 0; i < per_block; ++i) {
      double key = static_cast<double>(rng.NextBounded(8));
      vs[i] = 20.0 * (key + 1.0) + 5.0 * rng.NextDouble();
      ps[i] = rng.NextDouble();
      ks[i] = key;
    }
    Check(values.AppendBlock(
                    std::make_shared<storage::MemoryBlock>(std::move(vs)))
              .ok(),
          "append values");
    Check(preds.AppendBlock(
                   std::make_shared<storage::MemoryBlock>(std::move(ps)))
              .ok(),
          "append preds");
    Check(keys.AppendBlock(
                  std::make_shared<storage::MemoryBlock>(std::move(ks)))
              .ok(),
          "append keys");
  }

  auto make_statement = [&](double literal) {
    Statement s;
    s.spec.values = &values;
    s.spec.predicate = &preds;
    s.spec.op = core::PredicateOp::kGe;
    s.spec.literal = literal;
    s.spec.keys = &keys;
    s.options.precision = 0.25;
    s.options.parallelism = 1;
    return s;
  };

  struct Row {
    const char* workload;
    int n;
    RunResult solo;
    RunResult batched;
  };
  std::vector<Row> rows_out;
  double identical16_reduction = 0.0;

  for (const char* workload : {"identical", "mixed"}) {
    const bool mixed = std::strcmp(workload, "mixed") == 0;
    for (int n : {1, 4, 16}) {
      std::vector<Statement> stmts;
      for (int i = 0; i < n; ++i) {
        // Mixed predicates sweep selectivity ~85% down to ~25%.
        stmts.push_back(
            make_statement(mixed ? 0.15 + 0.04 * i : 0.25));
      }
      std::vector<core::GroupedAggregateResult> expected;
      RunResult solo = RunSolo(stmts, &expected);
      RunResult batched = RunBatched(stmts, expected);

      const double reduction =
          batched.rows_scanned > 0
              ? static_cast<double>(solo.rows_scanned) /
                    static_cast<double>(batched.rows_scanned)
              : 0.0;
      if (!mixed && n == 16) identical16_reduction = reduction;
      std::printf(
          "%-9s N=%-2d  solo %8.1f stmts/s %10" PRIu64
          " rows | batched %8.1f stmts/s %10" PRIu64 " rows (%.1fx fewer)\n",
          workload, n, solo.stmts_per_sec, solo.rows_scanned,
          batched.stmts_per_sec, batched.rows_scanned, reduction);
      rows_out.push_back({workload, n, solo, batched});
    }
  }

  // --- Emit BENCH_shared.json. ---
  std::FILE* f = std::fopen(cfg.out.c_str(), "w");
  Check(f != nullptr, "cannot open --out file");
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"shared\",\n");
  std::fprintf(f, "  \"rows\": %" PRIu64 ",\n", cfg.rows);
  std::fprintf(f, "  \"blocks\": %" PRIu64 ",\n", cfg.blocks);
  std::fprintf(f, "  \"kernel_dispatch\": \"%s\",\n",
               std::string(runtime::kernels::ActiveLevelName()).c_str());
  std::fprintf(f, "  \"bit_identical\": true,\n");
  std::fprintf(f, "  \"identical16_rows_reduction\": %.3f,\n",
               identical16_reduction);
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < rows_out.size(); ++i) {
    const Row& r = rows_out[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"n\": %d, "
                 "\"solo_stmts_per_sec\": %.3f, "
                 "\"solo_rows_scanned\": %" PRIu64 ", "
                 "\"batched_stmts_per_sec\": %.3f, "
                 "\"batched_rows_scanned\": %" PRIu64 "}%s\n",
                 r.workload, r.n, r.solo.stmts_per_sec, r.solo.rows_scanned,
                 r.batched.stmts_per_sec, r.batched.rows_scanned,
                 i + 1 < rows_out.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", cfg.out.c_str());

  // Hard gate last, so the JSON exists even on failure for triage.
  if (cfg.min_identical_reduction > 0.0 &&
      identical16_reduction < cfg.min_identical_reduction) {
    std::fprintf(stderr,
                 "FATAL: N=16 identical rows-scanned reduction %.2fx < "
                 "required %.2fx\n",
                 identical16_reduction, cfg.min_identical_reduction);
    return 1;
  }
  return 0;
}
