#include "suite.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numbers>
#include <sstream>

#include "runtime/kernels/kernels.h"
#include "sampling/samplers.h"
#include "storage/block.h"
#include "util/rng.h"

#ifndef ISLA_SUITE_BUILD_TYPE
#define ISLA_SUITE_BUILD_TYPE "unknown"
#endif

namespace suite {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in the order BENCHMARK.json lists them.
constexpr LayerMetric kLayerMetrics[] = {
    {"storage.gather_ns_per_row", "ns"},
    {"storage.open_ms", "ms"},
    {"sampling.index_ns_per_row", "ns"},
    {"core.pilot_ms", "ms"},
    {"core.pilot_rows", "count"},
    {"core.sample_ms", "ms"},
    {"core.sample_rows", "count"},
    {"core.iterate_us", "us"},
    {"core.iterate_rounds", "count"},
    {"core.plan_us", "us"},
    {"core.merge_us", "us"},
    {"core.summarize_us", "us"},
    {"core.match_ratio", "fraction"},
    {"runtime.block_skew", "ratio"},
    {"runtime.join_wait_ms", "ms"},
    {"engine.parse_us", "us"},
    {"engine.sched.gather_ratio", "ratio"},
    {"engine.sched.result_hit_rate", "fraction"},
    {"engine.sched.pilot_hit_rate", "fraction"},
    {"engine.sched.batched_share", "fraction"},
    {"net.server_ms_p50", "ms"},
    {"net.server_ms_p99", "ms"},
    {"net.overhead_ms_p50", "ms"},
    {"net.round_trip_us", "us"},
    {"distributed.rpcs_per_query", "count"},
    {"distributed.bytes_per_query", "bytes"},
    {"distributed.rpc_us_p50", "us"},
    {"distributed.rpc_us_p99", "us"},
    {"distributed.wire_wait_ms", "ms"},
    {"distributed.coord_self_ms", "ms"},
    {"distributed.codec_us", "us"},
    {"distributed.retries", "count"},
    {"distributed.hedges", "count"},
    {"trace_overhead", "ratio"},
};

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

uint64_t SuiteOptions::Scaled(uint64_t n) const {
  return quick ? std::max<uint64_t>(1, n / 20) : n;
}

double NowMicros() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

uint64_t InputRng::Next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double InputRng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double InputRng::Normal(double mu, double sigma) {
  // Box-Muller, both variates used.
  if (has_spare_) {
    has_spare_ = false;
    return mu + sigma * spare_;
  }
  const double u1 = 1.0 - Uniform();  // (0, 1]: log stays finite
  const double u2 = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  spare_ = r * std::sin(theta);
  has_spare_ = true;
  return mu + sigma * r * std::cos(theta);
}

uint64_t Mix(uint64_t seed, uint64_t counter) {
  InputRng rng(seed ^ (counter * 0xd1b54a32d192ed03ULL));
  return rng.Next();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double WindowedQuantile(const std::vector<double>& v, size_t window,
                        double q) {
  if (v.size() < window) return Quantile(v, q);
  std::vector<double> per_window;
  for (size_t at = 0; at + window <= v.size(); at += window) {
    per_window.push_back(Quantile(
        std::vector<double>(v.begin() + at, v.begin() + at + window), q));
  }
  return Median(std::move(per_window));
}

void ExactSum::Add(double x) {
  const double t = sum_ + x;
  if (std::fabs(sum_) >= std::fabs(x)) {
    comp_ += (sum_ - t) + x;
  } else {
    comp_ += (x - t) + sum_;
  }
  sum_ = t;
}

void AccuracyTally::Add(double answer, double exact, double half_width,
                        double e) {
  const double err = std::fabs(answer - exact);
  if (err > half_width) ++misses_;
  errors_over_e_.push_back(err / e);
}

double AccuracyTally::miss_rate() const {
  return checked() == 0
             ? 0.0
             : static_cast<double>(misses_) / static_cast<double>(checked());
}

GroupedData MakeGroupedData(uint64_t seed, uint64_t blocks,
                            uint64_t rows_per_block, double literal) {
  GroupedData out;
  ExactSum total;
  std::map<double, ExactSum> group_sums;
  std::map<double, uint64_t> group_counts;
  for (uint64_t b = 0; b < blocks; ++b) {
    InputRng rng(Mix(seed, b));
    std::vector<double> values(rows_per_block), pred(rows_per_block),
        keys(rows_per_block);
    for (uint64_t i = 0; i < rows_per_block; ++i) {
      const double key = static_cast<double>(rng.Next() % kGroupKeys);
      keys[i] = key;
      values[i] = rng.Normal(100.0 + 5.0 * key, 20.0);
      pred[i] = rng.Uniform();
      total.Add(values[i]);
      if (pred[i] >= literal) {
        group_sums[key].Add(values[i]);
        ++group_counts[key];
      }
    }
    out.values.push_back(
        std::make_shared<isla::storage::MemoryBlock>(std::move(values)));
    out.predicate.push_back(
        std::make_shared<isla::storage::MemoryBlock>(std::move(pred)));
    out.keys.push_back(
        std::make_shared<isla::storage::MemoryBlock>(std::move(keys)));
  }
  for (const auto& [key, sum] : group_sums) {
    out.exact_group_means[key] =
        sum.Total() / static_cast<double>(group_counts[key]);
  }
  out.exact_mean =
      total.Total() / static_cast<double>(blocks * rows_per_block);
  return out;
}

std::unique_ptr<GroupedColumns> CopyColumns(const GroupedData& data) {
  auto out = std::make_unique<GroupedColumns>();
  auto copy = [](const GroupedData::Blocks& blocks,
                 isla::storage::Column* column) {
    for (const auto& b : blocks) {
      (void)column->AppendBlock(
          std::make_shared<isla::storage::MemoryBlock>(b->values()));
    }
  };
  copy(data.values, &out->values);
  copy(data.predicate, &out->predicate);
  copy(data.keys, &out->keys);
  return out;
}

bool SameGrouped(const isla::core::GroupedAggregateResult& a,
                 const isla::core::GroupedAggregateResult& b) {
  auto same = [](double x, double y) {
    return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
  };
  if (a.groups.size() != b.groups.size() || a.data_size != b.data_size ||
      a.scanned_samples != b.scanned_samples ||
      a.pilot_samples != b.pilot_samples ||
      a.total_groups != b.total_groups) {
    return false;
  }
  for (size_t g = 0; g < a.groups.size(); ++g) {
    const isla::core::GroupResult& x = a.groups[g];
    const isla::core::GroupResult& y = b.groups[g];
    if (!same(x.key, y.key) || !same(x.average, y.average) ||
        !same(x.sum, y.sum) || !same(x.count_estimate, y.count_estimate) ||
        !same(x.ci_half_width, y.ci_half_width) ||
        !same(x.count_ci_half_width, y.count_ci_half_width) ||
        x.samples != y.samples || x.meets_precision != y.meets_precision) {
      return false;
    }
  }
  return true;
}

void CheckGrouped(const isla::core::GroupedAggregateResult& r,
                  const std::map<double, double>& exact, double e,
                  uint64_t query, Report* report, AccuracyTally* accuracy) {
  if (r.groups.size() != kGroupKeys) {
    report->Fail("query " + std::to_string(query) + " returned " +
                 std::to_string(r.groups.size()) + " groups, expected " +
                 std::to_string(kGroupKeys));
    return;
  }
  for (const isla::core::GroupResult& g : r.groups) {
    auto it = exact.find(g.key);
    if (!std::isfinite(g.average) || !std::isfinite(g.ci_half_width) ||
        it == exact.end()) {
      report->Fail("query " + std::to_string(query) +
                   " returned a non-finite answer or an unknown group");
      return;
    }
    if (accuracy != nullptr) {
      accuracy->Add(g.average, it->second, g.ci_half_width, e);
    }
  }
}

LoopResult ClosedLoop(double seconds, uint64_t min_statements,
                      const std::function<bool(uint64_t)>& statement) {
  LoopResult r;
  const double start = NowMicros();
  const double deadline = start + seconds * 1e6;
  double last_timed_end = start;
  for (uint64_t i = 0;; ++i) {
    const double t0 = NowMicros();
    const bool timed = t0 < deadline;
    if (!timed && i >= min_statements) break;
    const bool ok = statement(i);
    const double t1 = NowMicros();
    ++r.statements;
    if (timed) {
      r.latencies_ms.push_back((t1 - t0) / 1000.0);
      ++r.attempted;
      if (!ok) ++r.failed;
      last_timed_end = t1;
    }
  }
  r.timed_wall_s = (last_timed_end - start) / 1e6;
  return r;
}

bool TracedTurn(uint64_t i) {
  const bool traced_first = (Mix(0x0de7, i / 2) & 1) != 0;
  return (i % 2 == 0) == traced_first;
}

LoopResult CombineLoops(const std::vector<LoopResult>& loops) {
  LoopResult out;
  for (const LoopResult& l : loops) {
    out.latencies_ms.insert(out.latencies_ms.end(), l.latencies_ms.begin(),
                            l.latencies_ms.end());
    out.timed_wall_s = std::max(out.timed_wall_s, l.timed_wall_s);
    out.attempted += l.attempted;
    out.failed += l.failed;
    out.statements += l.statements;
  }
  return out;
}

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

int64_t Trace::Begin(const char* name, uint64_t query, int64_t parent) {
  Span s;
  s.name = name;
  s.query = query;
  s.parent = parent;
  s.tid = ThreadIndex();
  s.start_us = NowMicros();
  return Add(s);
}

void Trace::End(int64_t id, uint64_t count) {
  const double now = NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_us = now;
  spans_[static_cast<size_t>(id)].count = count;
}

int64_t Trace::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size() - 1);
}

std::vector<Trace::Span> Trace::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Trace::Write(const std::string& path) const {
  std::vector<Span> spans = this->spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string name = s.name;
    const std::string cat = name.substr(0, name.find('.'));
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"query\": %llu, \"span\": %zu, "
                 "\"parent\": %lld, \"count\": %llu}}%s\n",
                 name.c_str(), cat.c_str(), s.start_us,
                 std::max(0.0, s.end_us - s.start_us), s.tid,
                 static_cast<unsigned long long>(s.query), i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.count),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double UnionMicros(std::vector<Trace::Span> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const Trace::Span& a, const Trace::Span& b) {
              return a.start_us < b.start_us;
            });
  double total = 0.0;
  double cur_start = 0.0, cur_end = -1.0;
  for (const Trace::Span& s : spans) {
    if (s.start_us > cur_end) {
      if (cur_end > cur_start) total += cur_end - cur_start;
      cur_start = s.start_us;
      cur_end = s.end_us;
    } else {
      cur_end = std::max(cur_end, s.end_us);
    }
  }
  if (cur_end > cur_start) total += cur_end - cur_start;
  return total;
}

double SelfMicros(const Trace::Span& parent,
                  const std::vector<Trace::Span>& children) {
  std::vector<Trace::Span> clipped;
  for (Trace::Span c : children) {
    c.start_us = std::max(c.start_us, parent.start_us);
    c.end_us = std::min(c.end_us, parent.end_us);
    if (c.end_us > c.start_us) clipped.push_back(c);
  }
  return (parent.end_us - parent.start_us) - UnionMicros(std::move(clipped));
}

std::map<std::string, double> PipelineLayerMetrics(
    const std::vector<Trace::Span>& spans) {
  struct PerQuery {
    double pilot_us = 0, plan_us = 0, sample_us = 0, iterate_us = 0;
    double merge_us = 0, summarize_us = 0, join_wait_us = 0;
    double pilot_rows = 0, sample_rows = 0, rounds = 0;
  };
  std::map<uint64_t, PerQuery> queries;
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::vector<double> skews;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Trace::Span& s = spans[i];
    if (s.end_us < s.start_us) continue;  // left open by a failed query
    const std::string_view name = s.name;
    const double dur = s.end_us - s.start_us;
    PerQuery& q = queries[s.query];
    if (name == "core.pilot") {
      q.pilot_us += dur;
      q.pilot_rows += static_cast<double>(s.count);
    } else if (name == "core.plan") {
      q.plan_us += dur;
    } else if (name == "core.sample") {
      q.sample_us += dur;
      q.sample_rows += static_cast<double>(s.count);
    } else if (name == "core.iterate") {
      q.iterate_us += dur;
      q.rounds += static_cast<double>(s.count);
    } else if (name == "core.merge") {
      q.merge_us += dur;
    } else if (name == "core.summarize") {
      q.summarize_us += dur;
    } else if (name == "runtime.phase" && !children[i].empty()) {
      double longest = 0.0, total = 0.0;
      for (size_t c : children[i]) {
        const double d = spans[c].end_us - spans[c].start_us;
        longest = std::max(longest, d);
        total += d;
      }
      const double mean = total / static_cast<double>(children[i].size());
      if (mean > 0.0) skews.push_back(longest / mean);
      q.join_wait_us += std::max(0.0, dur - longest);
    }
  }
  std::vector<double> pilot_ms, plan_us, sample_ms, iterate_us, merge_us,
      summarize_us, join_ms, pilot_rows, sample_rows, rounds;
  for (const auto& [id, q] : queries) {
    (void)id;
    pilot_ms.push_back(q.pilot_us / 1000.0);
    plan_us.push_back(q.plan_us);
    sample_ms.push_back(q.sample_us / 1000.0);
    iterate_us.push_back(q.iterate_us);
    merge_us.push_back(q.merge_us);
    summarize_us.push_back(q.summarize_us);
    join_ms.push_back(q.join_wait_us / 1000.0);
    pilot_rows.push_back(q.pilot_rows);
    sample_rows.push_back(q.sample_rows);
    rounds.push_back(q.rounds);
  }
  return {
      {"core.pilot_ms", Median(pilot_ms)},
      {"core.pilot_rows", Median(pilot_rows)},
      {"core.sample_ms", Median(sample_ms)},
      {"core.sample_rows", Median(sample_rows)},
      {"core.iterate_us", Median(iterate_us)},
      {"core.iterate_rounds", Median(rounds)},
      {"core.plan_us", Median(plan_us)},
      {"core.merge_us", Median(merge_us)},
      {"core.summarize_us", Median(summarize_us)},
      {"runtime.block_skew", Median(skews)},
      {"runtime.join_wait_ms", Median(join_ms)},
  };
}

void DropDivergedRebuild(uint64_t diverged,
                         std::map<std::string, double>* layers,
                         Report* report) {
  report->Metric("rebuild_diverged", static_cast<double>(diverged), "count");
  if (diverged == 0) return;
  std::fprintf(stderr,
               "warning: the traced rebuild diverged from the engine on %llu "
               "salt(s); core.* and runtime.* are not reported\n",
               static_cast<unsigned long long>(diverged));
  std::erase_if(*layers, [](const auto& entry) {
    return entry.first.rfind("core.", 0) == 0 ||
           entry.first.rfind("runtime.", 0) == 0;
  });
}

double TraceOverhead(const std::vector<double>& traced_ms,
                     const std::vector<double>& untraced_ms) {
  const double untraced = Median(untraced_ms);
  if (traced_ms.empty() || !(untraced > 0.0)) return 0.0;
  return Median(traced_ms) / untraced - 1.0;
}

double ProbeGatherNsPerRow(const isla::storage::Column& column, uint64_t rows,
                           uint64_t seed) {
  // Index batches are drawn up front so only the gathers are timed.
  const uint64_t batch = isla::sampling::kGatherBatch;
  const size_t n_blocks = column.num_blocks();
  isla::Xoshiro256 rng(seed);
  std::vector<std::vector<uint64_t>> batches(rows / batch);
  for (size_t b = 0; b < batches.size(); ++b) {
    isla::sampling::GenerateUniformIndices(
        column.blocks()[b % n_blocks]->size(), batch, &rng, &batches[b]);
  }
  std::vector<double> out(batch);
  double checksum = 0.0;
  const double t0 = NowMicros();
  for (size_t b = 0; b < batches.size(); ++b) {
    if (!isla::storage::GatherInto(*column.blocks()[b % n_blocks], batches[b],
                                   out.data())
             .ok()) {
      return 0.0;
    }
    checksum += out[b % batch];
  }
  const double elapsed_us = NowMicros() - t0;
  // Keeps the gathers observable to the optimizer.
  if (checksum == 0.123456789) std::fprintf(stderr, " ");
  return elapsed_us * 1000.0 /
         static_cast<double>(batches.size() * batch);
}

double ProbeIndexNsPerRow(uint64_t n, uint64_t rows, uint64_t seed) {
  const uint64_t batch = isla::sampling::kGatherBatch;
  isla::Xoshiro256 rng(seed);
  std::vector<uint64_t> out;
  uint64_t checksum = 0;
  const double t0 = NowMicros();
  for (uint64_t done = 0; done < rows; done += batch) {
    isla::sampling::GenerateUniformIndices(n, batch, &rng, &out);
    checksum += out[done % batch];
  }
  const double elapsed_us = NowMicros() - t0;
  if (checksum == 1) std::fprintf(stderr, " ");
  return elapsed_us * 1000.0 / static_cast<double>(rows);
}

double PeakRssMib() {
  struct rusage usage;
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string MachineRecordJson() {
  std::string cpu_model = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        size_t colon = line.find(':');
        if (colon != std::string::npos) cpu_model = line.substr(colon + 2);
        break;
      }
    }
  }
  std::string l2 = "unknown", l3 = "unknown";
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string level = ReadFirstLine(dir + "/level");
    if (level == "2") l2 = ReadFirstLine(dir + "/size");
    if (level == "3") l3 = ReadFirstLine(dir + "/size");
  }
  const double ram_mib = static_cast<double>(::sysconf(_SC_PHYS_PAGES)) *
                         static_cast<double>(::sysconf(_SC_PAGE_SIZE)) /
                         (1024.0 * 1024.0);
  std::ostringstream os;
  os << "{\"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"cpu\": \"" << JsonEscape(cpu_model) << "\""
     << ", \"l2\": \"" << JsonEscape(l2) << "\""
     << ", \"l3\": \"" << JsonEscape(l3) << "\""
     << ", \"ram_mib\": " << static_cast<uint64_t>(ram_mib)
     << ", \"kernels\": \""
     << isla::runtime::kernels::ActiveLevelName() << "\""
     << ", \"build\": \"" << ISLA_SUITE_BUILD_TYPE << "\"}";
  return os.str();
}

void Report::Metric(std::string_view name, double value,
                    std::string_view unit) {
  std::lock_guard<std::mutex> lock(mu_);
  std::printf("%s %.*s %.10g %.*s\n", workload_.c_str(),
              static_cast<int>(name.size()), name.data(), value,
              static_cast<int>(unit.size()), unit.data());
  std::fflush(stdout);
}

void Report::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failures_;
  std::fprintf(stderr, "%s: HARD CHECK FAILED: %s\n", workload_.c_str(),
               what.c_str());
}

uint64_t Report::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

void Report::EndToEnd(const std::vector<double>& setup_s,
                      const LoopResult& loop, const AccuracyTally& accuracy) {
  const double attempted = static_cast<double>(loop.attempted);
  Metric("setup_s", Median(setup_s), "s");
  Metric("query_ms_p50", Quantile(loop.latencies_ms, 0.50), "ms");
  Metric("query_ms_p99",
         WindowedQuantile(loop.latencies_ms, kP99Window, 0.99), "ms");
  Metric("qps", loop.timed_wall_s > 0.0 ? attempted / loop.timed_wall_s : 0.0,
         "stmt/s");
  Metric("miss_rate", accuracy.miss_rate(), "fraction");
  Metric("coverage", 1.0 - accuracy.miss_rate(), "fraction");
  Metric("err_over_e_p50", accuracy.err_over_e_p50(), "ratio");
  Metric("checked_answers", static_cast<double>(accuracy.checked()), "count");
  Metric("error_rate",
         attempted > 0.0 ? static_cast<double>(loop.failed) / attempted : 0.0,
         "fraction");
  Metric("peak_rss_mb", PeakRssMib(), "MiB");
  Counts(loop);
}

void Report::Counts(const LoopResult& loop) {
  Metric("attempted", static_cast<double>(loop.attempted), "count");
  Metric("failed", static_cast<double>(loop.failed), "count");
}

void Report::Layers(const std::map<std::string, double>& measured,
                    const LoopResult& loop) {
  for (const auto& [name, value] : measured) {
    (void)value;
    bool known = false;
    for (const LayerMetric& m : kLayerMetrics) known |= name == m.name;
    if (!known) Fail("unknown per-layer metric " + name);
  }
  for (const LayerMetric& m : kLayerMetrics) {
    auto it = measured.find(m.name);
    Metric(m.name, it == measured.end() ? 0.0 : it->second, m.unit);
  }
  Counts(loop);
}

int Report::Finish() {
  Metric("hard_check_failures", static_cast<double>(failures()), "count");
  return failures() == 0 ? 0 : 1;
}

}  // namespace suite
