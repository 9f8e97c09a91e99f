// Shared infrastructure of the bench_suite binary: flags, the closed-loop
// statement runner, latency and accuracy tallies, the in-memory span recorder
// behind the traced run, layer probes, and metric output.
//
// Output protocol: every metric is one stdout line
//   <workload> <metric> <value> <unit>
// A hard-check failure is reported on stderr and makes the process exit 1;
// failed or refused statements are counted, never fatal.

#ifndef ISLA_BENCH_SUITE_SUITE_H_
#define ISLA_BENCH_SUITE_SUITE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/group_by.h"
#include "storage/block.h"
#include "storage/table.h"

namespace suite {

class AccuracyTally;
class Report;

struct SuiteOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_path;  // empty: untraced end-to-end run
  bool quick = false;      // smoke run: 1/20 of the time and checked prefix
  std::string data_dir = ".bench_build/data";

  bool traced() const { return !trace_path.empty(); }
  /// Scales a statement count for --quick (never below 1).
  uint64_t Scaled(uint64_t n) const;
};

/// Monotonic microseconds since the first call in the process; the time
/// base of every span.
double NowMicros();

/// Input generator owned by the benchmark: a change to the library's RNGs
/// or distributions never changes what the benchmark feeds it.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();  // [0, 1)
  double Normal(double mu, double sigma);

 private:
  uint64_t state_;
  bool has_spare_ = false;
  double spare_ = 0.0;
};

/// Stateless 64-bit mix of (seed, counter): salts, query ids and table seeds
/// all derive from --seed through this.
uint64_t Mix(uint64_t seed, uint64_t counter);

/// Linear-interpolated quantile of `v` (copied and sorted); 0 when empty.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// Median, over consecutive windows of `window` values of `v` (in run
/// order; a trailing partial window is dropped), of each window's
/// q-quantile. The whole-run quantile when `v` holds less than one window.
double WindowedQuantile(const std::vector<double>& v, size_t window,
                        double q);

/// Timed statements per window of query_ms_p99, so that each window has 10
/// statements beyond its p99. A shared host slows for seconds at a time; the
/// p99 of a whole run then says whether such a spell fell inside it, while
/// the median window's p99 stays the tail of the statements themselves.
inline constexpr size_t kP99Window = 1000;

/// Neumaier-compensated running sum, for exact ground truth.
class ExactSum {
 public:
  void Add(double x);
  double Total() const { return sum_ + comp_; }

 private:
  double sum_ = 0.0;
  double comp_ = 0.0;
};

/// Row-aligned value / predicate / key blocks of the grouped workloads:
/// key k uniform in {0..15}, value = 100 + 5k + N(0, 20^2), predicate
/// uniform in [0, 1). One MemoryBlock per column per block index.
struct GroupedData {
  using Blocks =
      std::vector<std::shared_ptr<const isla::storage::MemoryBlock>>;
  Blocks values, predicate, keys;

  /// Exact per-key mean of the values whose predicate is >= `literal`.
  std::map<double, double> exact_group_means;
  /// Exact mean of every value.
  double exact_mean = 0.0;
};

inline constexpr uint64_t kGroupKeys = 16;

GroupedData MakeGroupedData(uint64_t seed, uint64_t blocks,
                            uint64_t rows_per_block, double literal);

/// Columns over copies of `data`'s blocks: every set-up repetition builds
/// its own, so building them is part of set-up time.
struct GroupedColumns {
  isla::storage::Column values{"value"};
  isla::storage::Column predicate{"p"};
  isla::storage::Column keys{"k"};
};
std::unique_ptr<GroupedColumns> CopyColumns(const GroupedData& data);

/// Field-by-field bit equality of two grouped answers.
bool SameGrouped(const isla::core::GroupedAggregateResult& a,
                 const isla::core::GroupedAggregateResult& b);

/// Checks a grouped AVG answer (kGroupKeys finite groups; a hard check) and
/// tallies each group's accuracy against `exact`.
void CheckGrouped(const isla::core::GroupedAggregateResult& r,
                  const std::map<double, double>& exact, double e,
                  uint64_t query, Report* report, AccuracyTally* accuracy);

/// Checked AVG answers: an answer misses when |answer - exact| exceeds the
/// half-width it reported (grouped answers report one per group; ungrouped
/// ones report only the requested e, which is what they are held to).
class AccuracyTally {
 public:
  void Add(double answer, double exact, double half_width, double e);
  uint64_t checked() const { return errors_over_e_.size(); }
  double miss_rate() const;
  double err_over_e_p50() const { return Median(errors_over_e_); }

 private:
  uint64_t misses_ = 0;
  std::vector<double> errors_over_e_;
};

/// What a closed loop measured. Statements that *started* before the
/// deadline are timed; the loop then keeps going untimed until it has run
/// `min_statements`, so the checked prefix — and with it every accuracy
/// number — is the same on every run of a seed.
struct LoopResult {
  std::vector<double> latencies_ms;  // timed statements only
  double timed_wall_s = 0.0;
  uint64_t attempted = 0;  // timed statements
  uint64_t failed = 0;     // timed statements that failed or were refused
  uint64_t statements = 0;  // all statements run, timed or not
};

/// Runs statement(i) for i = 0, 1, ... until the deadline has passed and
/// at least `min_statements` ran. statement() returns false on a failed or
/// refused statement.
LoopResult ClosedLoop(double seconds, uint64_t min_statements,
                      const std::function<bool(uint64_t)>& statement);

/// Traced runs execute every salt (or query id) twice, statements 2k and
/// 2k + 1: once untraced and once traced. Which goes first is drawn per pair
/// from a hash — independent of any query shape cycling with k — so the
/// warm second run favours neither half of trace_overhead. True when
/// statement `i` is the traced one.
bool TracedTurn(uint64_t i);

/// Folds per-thread loops that ran concurrently into one.
LoopResult CombineLoops(const std::vector<LoopResult>& loops);

/// In-memory span recorder of the traced run. Spans are appended under a
/// mutex from any thread and written once, at the end, as Chrome
/// trace-event JSON (loadable by Perfetto and chrome://tracing).
class Trace {
 public:
  struct Span {
    const char* name = "";
    uint64_t query = 0;
    int64_t parent = -1;  // index of the causing span, -1 for a root
    double start_us = 0.0;
    double end_us = 0.0;
    uint32_t tid = 0;
    uint64_t count = 0;  // rows, bytes, ...: the span's own work counter
  };

  /// Opens a span now and returns its id.
  int64_t Begin(const char* name, uint64_t query, int64_t parent);
  /// Closes span `id` now, recording its work counter.
  void End(int64_t id, uint64_t count = 0);
  /// Records a span whose interval was measured by the caller.
  int64_t Add(const Span& span);

  /// Snapshot of every span recorded so far.
  std::vector<Span> spans() const;

  bool Write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Small dense id of the calling thread, for the trace's tid column.
uint32_t ThreadIndex();

/// Duration of `parent` not covered by the union of `children` intervals
/// (clipped to the parent): the span's self time, in microseconds.
double SelfMicros(const Trace::Span& parent,
                  const std::vector<Trace::Span>& children);

/// Length of the union of the spans' intervals, in microseconds.
double UnionMicros(std::vector<Trace::Span> spans);

/// Per-layer metrics of the traced pipeline rebuilds (avg_dram and
/// groupby_cached). Expects this span tree per query:
///   query
///     core.pilot      (ungrouped: one span; grouped: one per block, inside
///                      a runtime.phase)            count = rows drawn
///     core.plan
///     runtime.phase   one per ParallelFor; its children are block spans
///       runtime.block (ungrouped: the block body around the two below)
///         core.sample                              count = rows drawn
///         core.iterate                             count = rounds
///     core.merge
///     core.summarize
/// core.* sums each name's durations and counts per query (work, across
/// threads); runtime.block_skew is longest / mean block span per phase and
/// runtime.join_wait_ms is phase wall time minus its longest block span,
/// summed per query. Every value is the median over queries (over phases
/// for block_skew).
std::map<std::string, double> PipelineLayerMetrics(
    const std::vector<Trace::Span>& spans);

/// The rebuilds behind PipelineLayerMetrics copy the engine's pipeline from
/// its public steps. Once the engine changes inside, a rebuild no longer
/// reproduces it bit for bit and its spans no longer describe it: with
/// `diverged` > 0 this drops every core.* and runtime.* value from `layers`
/// (they print as 0) and warns on stderr. The end-to-end run is unaffected.
/// Prints `rebuild_diverged` either way.
void DropDivergedRebuild(uint64_t diverged,
                         std::map<std::string, double>* layers,
                         Report* report);

/// trace_overhead: traced p50 / untraced p50 - 1, for workloads that run
/// each salt twice, once traced and once not; 0 when either half is empty.
double TraceOverhead(const std::vector<double>& traced_ms,
                     const std::vector<double>& untraced_ms);

/// Layer probes on the workload's own data.
/// ns per row of storage::GatherInto over `column`'s blocks with a uniform
/// index stream of `rows` indices (kGatherBatch at a time).
double ProbeGatherNsPerRow(const isla::storage::Column& column, uint64_t rows,
                           uint64_t seed);
/// ns per index of sampling::GenerateUniformIndices over [0, n).
double ProbeIndexNsPerRow(uint64_t n, uint64_t rows, uint64_t seed);

/// Peak resident set of this process, MiB.
double PeakRssMib();

/// One-line JSON machine record: nproc, CPU model, L2/L3 sizes, RAM,
/// active kernel tier, build type.
std::string MachineRecordJson();

/// Metric output and hard-check bookkeeping for one workload process.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void Metric(std::string_view name, double value, std::string_view unit);

  /// Records a hard-check failure (the process will exit 1).
  void Fail(const std::string& what);
  uint64_t failures() const;

  /// Prints the end-to-end metrics shared by every workload. `setup_s` are
  /// the durations of the set-up repetitions (their median is reported).
  void EndToEnd(const std::vector<double>& setup_s, const LoopResult& loop,
                const AccuracyTally& accuracy);

  /// Prints every per-layer metric of the suite, trace_overhead included:
  /// the measured value where the workload's path reaches the layer, 0
  /// where it does not (README lists which workload measures which
  /// metric), and the traced loop's counts.
  void Layers(const std::map<std::string, double>& measured,
              const LoopResult& loop);

  /// Exit status for main(): 1 when any hard check failed.
  int Finish();

 private:
  void Counts(const LoopResult& loop);

  std::string workload_;
  mutable std::mutex mu_;
  uint64_t failures_ = 0;
};

/// A workload entry point: runs prep, set-up, the timed (or traced) phase
/// and the checks, printing through `report`.
using WorkloadFn = void (*)(const SuiteOptions&, Report*);

void RunAvgDram(const SuiteOptions& options, Report* report);
void RunGroupbyCached(const SuiteOptions& options, Report* report);
void RunServerMix(const SuiteOptions& options, Report* report);
void RunDistTcp(const SuiteOptions& options, Report* report);

/// Salt domains: timed statements use Mix(seed, i); warm-ups draw from a
/// disjoint domain so a warm-up can never pre-compute a timed answer.
inline constexpr uint64_t kWarmupDomain = 0x3a2b1c0d9e8f7a6bULL;

/// Set-up repetitions per run; their median is setup_s. Some run after the
/// timed phase so the median spans the run's machine state, not one moment
/// of it.
inline constexpr int kSetupRepsBefore = 3;
inline constexpr int kSetupRepsAfter = 2;

}  // namespace suite

#endif  // ISLA_BENCH_SUITE_SUITE_H_
