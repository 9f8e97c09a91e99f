#include "engine/session.h"

#include <chrono>
#include <cmath>
#include <sstream>
#include <variant>
#include <vector>

#include "core/online.h"
#include "engine/scan_scheduler.h"
#include "runtime/kernels/kernels.h"
#include "stats/distribution.h"
#include "storage/block.h"
#include "storage/file_block.h"
#include "util/rng.h"

namespace isla {
namespace engine {

namespace {

constexpr char kDefaultColumn[] = "value";
constexpr char kGroupColumn[] = "grp";

/// Decorrelates the group-key generator streams from the value streams.
constexpr uint64_t kGroupSeedSalt = 0x6b5eedULL;

/// One visitor from one lambda per Statement alternative.
template <class... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

}  // namespace

Session::Session(core::IslaOptions options) : options_(options) {}

QueryDefaults Session::query_defaults() const {
  return {.precision = options_.precision,
          .confidence = options_.confidence};
}

Result<std::string> Session::Execute(std::string_view statement) {
  return Execute(statement, PartialSink());
}

Result<std::string> Session::Execute(std::string_view statement,
                                     const PartialSink& sink) {
  ISLA_ASSIGN_OR_RETURN(Statement parsed,
                        ParseStatement(statement, query_defaults()));
  return Execute(parsed, sink);
}

Result<std::string> Session::Execute(const Statement& statement,
                                     const PartialSink& sink) {
  return std::visit(
      Overloaded{
          [&](const QuerySpec& spec) { return Select(spec, sink); },
          [&](const CreateTableStatement& create) {
            return CreateTable(create);
          },
          [&](const DropTableStatement& drop) { return DropTable(drop.table); },
          [&](const DescribeStatement& describe) {
            return Describe(describe.table);
          },
          [&](const ShowStatement& show) { return Show(show.target); },
          [&](const SetStatement& set) { return SetOption(set); },
      },
      statement);
}

Result<std::string> Session::CreateTable(const CreateTableStatement& create) {
  using Source = CreateTableStatement::Source;
  auto table = std::make_shared<storage::Table>(create.table);
  ISLA_RETURN_NOT_OK(table->AddColumn(kDefaultColumn));

  std::ostringstream response;
  if (create.source == Source::kFiles) {
    uint64_t rows = 0;
    for (const std::string& path : create.files) {
      ISLA_ASSIGN_OR_RETURN(auto block, storage::FileBlock::Open(path));
      rows += block->size();
      ISLA_RETURN_NOT_OK(table->AppendBlock(kDefaultColumn, block));
    }
    response << "created table " << create.table << " from "
             << create.files.size() << " shard file(s), " << rows << " rows";
  } else {
    // Distribution-backed virtual table.
    const std::vector<double>& p = create.params;
    std::shared_ptr<const stats::Distribution> dist;
    if (create.source == Source::kNormal) {
      dist = std::make_shared<stats::NormalDistribution>(p[0], p[1]);
    } else if (create.source == Source::kExponential) {
      dist = std::make_shared<stats::ExponentialDistribution>(p[0]);
    } else {
      dist = std::make_shared<stats::UniformDistribution>(p[0], p[1]);
    }
    const uint64_t seed = create.seed.value_or(options_.seed);
    // A GROUPS clause adds a row-aligned "grp" key column: same block
    // layout, independent generator streams.
    std::shared_ptr<const stats::Distribution> key_dist;
    if (create.groups > 0) {
      ISLA_RETURN_NOT_OK(table->AddColumn(kGroupColumn));
      key_dist =
          std::make_shared<stats::DiscreteUniformDistribution>(create.groups);
    }
    uint64_t base = create.rows / create.blocks;
    uint64_t extra = create.rows % create.blocks;
    for (uint64_t j = 0; j < create.blocks; ++j) {
      uint64_t block_rows = base + (j < extra ? 1 : 0);
      ISLA_RETURN_NOT_OK(table->AppendBlock(
          kDefaultColumn,
          std::make_shared<storage::GeneratorBlock>(
              dist, block_rows, SplitMix64::Hash(seed, j))));
      if (key_dist != nullptr) {
        ISLA_RETURN_NOT_OK(table->AppendBlock(
            kGroupColumn,
            std::make_shared<storage::GeneratorBlock>(
                key_dist, block_rows,
                SplitMix64::Hash(seed ^ kGroupSeedSalt, j))));
      }
    }
    response << "created table " << create.table << " from " << dist->Name()
             << ", " << create.rows << " virtual rows in " << create.blocks
             << " blocks";
    if (create.groups > 0) {
      response << " (+ column '" << kGroupColumn << "' with " << create.groups
               << " keys)";
    }
  }
  ISLA_RETURN_NOT_OK(catalog_.AddTable(std::move(table)));
  return response.str();
}

Result<std::string> Session::DropTable(const std::string& name) {
  ISLA_RETURN_NOT_OK(catalog_.DropTable(name));
  return "dropped table " + name;
}

Result<std::string> Session::Show(ShowStatement::Target target) const {
  switch (target) {
    case ShowStatement::Target::kTables:
      return ShowTables();
    case ShowStatement::Target::kSettings:
      return ShowSettings();
    case ShowStatement::Target::kStats:
      return ShowStats();
    case ShowStatement::Target::kServerStats:
      break;
  }
  return Status::InvalidArgument(
      "SHOW SERVER STATS is answered by the query server, not a session");
}

Result<std::string> Session::ShowTables() const {
  std::ostringstream os;
  auto names = catalog_.TableNames();
  if (names.empty()) return std::string("(no tables)");
  for (const auto& n : names) os << n << "\n";
  std::string out = os.str();
  out.pop_back();
  return out;
}

Result<std::string> Session::Describe(const std::string& name) const {
  ISLA_ASSIGN_OR_RETURN(auto table, catalog_.GetTable(name));
  std::ostringstream os;
  os << "table " << table->name() << "\n";
  for (const auto& col_name : table->ColumnNames()) {
    auto col = table->GetColumn(col_name);
    if (!col.ok()) continue;
    os << "  column " << col_name << ": " << (*col)->num_rows() << " rows in "
       << (*col)->num_blocks() << " blocks\n";
    for (const auto& block : (*col)->blocks()) {
      os << "    " << block->DebugString() << "\n";
    }
  }
  std::string out = os.str();
  out.pop_back();
  return out;
}

namespace {

/// The bracketed contract of a sketch-backed answer: the ±ε rank band at
/// β, the value band (quantile) or value range (histogram), and the
/// sample count behind the sketch.
std::string SketchAnnotation(const core::GroupResult& row,
                             AggregateKind kind, double confidence) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(4);
  os << "rank +/- " << row.rank_error << " @" << confidence;
  if (kind == AggregateKind::kHistogram) {
    os << ", range [" << row.histogram_lo << ", " << row.histogram_hi << "]";
  } else {
    os << ", value in [" << row.quantile_lo << ", " << row.quantile_hi
       << "]";
  }
  os << ", count~" << row.count_estimate << ", n=" << row.sketch_samples;
  return os.str();
}

/// One line of estimated per-bin row counts.
std::string HistogramBins(const core::GroupResult& row) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(1);
  os << "bins:";
  for (double b : row.histogram) os << " " << b;
  return os.str();
}

}  // namespace

Result<std::string> Session::SetOption(const SetStatement& set) {
  const std::string& name = set.option;
  const double value = set.value;

  // A double → unsigned cast is UB outside the target range, and SET is
  // reachable from any remote query-server client — range-check before
  // casting, never after. A fraction is an error, not a truncation.
  auto to_unsigned = [&name](double v, double max_exclusive,
                             uint64_t* out) -> Status {
    if (!(v >= 0.0) || !(v < max_exclusive) || v != std::floor(v)) {
      return Status::InvalidArgument(name +
                                     " takes a whole number in range");
    }
    *out = static_cast<uint64_t>(v);
    return Status::OK();
  };

  // `stream` is session state, not an IslaOptions field: IslaOptions is
  // wire-pinned (QueryPlan serialization), so the knob lives beside it.
  if (name == "stream") {
    uint64_t rounds = 0;
    ISLA_RETURN_NOT_OK(to_unsigned(value, 17.0, &rounds));
    stream_rounds_ = static_cast<uint32_t>(rounds);
    std::ostringstream os;
    os << "set stream = " << stream_rounds_;
    return os.str();
  }

  // Mutate a copy and validate the whole option set, so a bad SET leaves
  // the session's previous (valid) settings untouched.
  core::IslaOptions next = options_;
  uint64_t unsigned_value = 0;
  if (name == "precision") {
    next.precision = value;
  } else if (name == "confidence") {
    next.confidence = value;
  } else if (name == "parallelism") {
    ISLA_RETURN_NOT_OK(to_unsigned(value, 4294967296.0, &unsigned_value));
    next.parallelism = static_cast<uint32_t>(unsigned_value);
  } else if (name == "seed") {
    ISLA_RETURN_NOT_OK(to_unsigned(value, 18446744073709551616.0,
                                   &unsigned_value));
    next.seed = unsigned_value;
  } else if (name == "pilot") {
    ISLA_RETURN_NOT_OK(to_unsigned(value, 18446744073709551616.0,
                                   &unsigned_value));
    next.sigma_pilot_size = unsigned_value;
  } else if (name == "rate_scale") {
    next.sampling_rate_scale = value;
  } else {
    return Status::InvalidArgument(
        "unknown option '" + name +
        "' (expected precision, confidence, parallelism, seed, pilot, "
        "rate_scale or stream)");
  }
  ISLA_RETURN_NOT_OK(next.Validate());
  options_ = next;
  std::ostringstream os;
  os << "set " << name << " = " << value;
  return os.str();
}

Result<std::string> Session::ShowSettings() const {
  std::ostringstream os;
  os << "precision = " << options_.precision
     << "\nconfidence = " << options_.confidence
     << "\nparallelism = " << options_.parallelism
     << "\nseed = " << options_.seed
     << "\npilot = " << options_.sigma_pilot_size
     << "\nrate_scale = " << options_.sampling_rate_scale
     << "\nstream = " << stream_rounds_
     << "\nkernels = " << runtime::kernels::ActiveLevelName();
  return os.str();
}

Result<std::string> Session::ShowStats() const {
  std::ostringstream os;
  os << "kernels = " << runtime::kernels::ActiveLevelName();
  if (scheduler_ == nullptr) {
    os << "\nscan_scheduler = off";
    return os.str();
  }
  ScanSchedulerStats s = scheduler_->stats();
  os << "\nscan_scheduler = on"
     << "\nqueries = " << s.queries
     << "\nshared_batches = " << s.shared_batches
     << "\nbatched_queries = " << s.batched_queries
     << "\npilot_cache_hits = " << s.pilot_cache_hits
     << "\npilot_cache_misses = " << s.pilot_cache_misses
     << "\nresult_cache_hits = " << s.result_cache_hits
     << "\nresult_cache_misses = " << s.result_cache_misses
     << "\nrows_gathered = " << s.rows_gathered
     << "\nrows_requested = " << s.rows_requested;
  return os.str();
}

Result<std::string> Session::Select(const QuerySpec& spec,
                                    const PartialSink& sink) const {
  // A nonzero `stream` setting turns ungrouped, unfiltered ISLA AVG and SUM
  // into an online-refinement ladder (partials via the sink); everything
  // else runs single-shot.
  if (stream_rounds_ > 0 && spec.method == Method::kIsla &&
      !spec.where.has_value() && spec.group_by.empty() &&
      (spec.aggregate == AggregateKind::kAvg ||
       spec.aggregate == AggregateKind::kSum)) {
    return SelectStreaming(spec, sink);
  }
  QueryExecutor executor(&catalog_, options_, scheduler_);
  ISLA_ASSIGN_OR_RETURN(QueryResult r, executor.Execute(spec));
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(4);
  if (r.grouped.has_value() && !spec.group_by.empty()) {
    const core::GroupedAggregateResult& g = *r.grouped;
    if (g.total_groups > g.groups.size()) {
      os << "top " << g.groups.size() << " of " << g.total_groups
         << " group(s)";
    } else {
      os << g.groups.size() << " group(s)";
    }
    os << "  [method=" << MethodName(r.method)
       << ", samples=" << r.samples_used << ", " << r.elapsed_millis
       << " ms]";
    for (const core::GroupResult& row : g.groups) {
      os << "\n  " << spec.group_by << "=" << row.key << "  "
         << AggregateName(r.aggregate) << " = "
         << QueryResult::GroupValue(row, r.aggregate) << "  [";
      if (IsSketchAggregate(r.aggregate)) {
        os << SketchAnnotation(row, r.aggregate, g.confidence) << "]";
        if (r.aggregate == AggregateKind::kHistogram) {
          os << "\n    " << HistogramBins(row);
        }
      } else {
        os << "avg +/- " << row.ci_half_width << " @" << g.confidence
           << ", count~" << row.count_estimate << ", n=" << row.samples
           << "]";
      }
    }
    return os.str();
  }
  os << AggregateName(r.aggregate) << " = " << r.value
     << "  [method=" << MethodName(r.method) << ", samples=" << r.samples_used
     << ", " << r.elapsed_millis << " ms]";
  if (r.grouped.has_value() && !r.grouped->groups.empty()) {
    const core::GroupResult& row = r.grouped->groups.front();
    if (IsSketchAggregate(r.aggregate)) {
      os << "\n  "
         << SketchAnnotation(row, r.aggregate, r.grouped->confidence);
      if (r.aggregate == AggregateKind::kHistogram) {
        os << "\n    " << HistogramBins(row);
      }
    } else {
      os << "\n  avg +/- " << row.ci_half_width << " @"
         << r.grouped->confidence << ", count~" << row.count_estimate
         << ", n=" << row.samples;
    }
  }
  if (r.isla_details.has_value()) {
    os << "\n  sketch0=" << r.isla_details->sketch0
       << " sigma=" << r.isla_details->sigma_estimate << " blocks="
       << r.isla_details->blocks.size() << " precision=+/-"
       << r.isla_details->precision << " @" << r.isla_details->confidence
       << " kernels=" << r.isla_details->kernel_dispatch;
  }
  return os.str();
}

Result<std::string> Session::SelectStreaming(const QuerySpec& spec,
                                             const PartialSink& sink) const {
  ISLA_ASSIGN_OR_RETURN(auto table, catalog_.GetTable(spec.table));
  ISLA_ASSIGN_OR_RETURN(const storage::Column* column,
                        table->GetColumn(spec.column));
  const uint32_t rounds = stream_rounds_;

  // Round r runs at precision e·2^(R−r): halving per round, landing exactly
  // on the requested e in the final round. Refine() only tightens, so the
  // ladder is strictly decreasing by construction.
  core::IslaOptions opts = options_;
  opts.precision = spec.precision * std::ldexp(1.0, rounds - 1);
  opts.confidence = spec.confidence;
  ISLA_RETURN_NOT_OK(opts.Validate());

  // The answer is SUM-shaped when the query asked for SUM; the online
  // engine is AVG-shaped internally, so value and half-width scale by M.
  auto emit = [&](const core::AggregateResult& r, uint32_t round) -> Status {
    if (!sink) return Status::OK();
    PartialAnswer pa;
    pa.round = round;
    pa.total_rounds = rounds;
    pa.samples = r.total_samples + r.pilot_samples;
    const double scale = spec.aggregate == AggregateKind::kSum
                             ? static_cast<double>(r.data_size)
                             : 1.0;
    pa.value = r.average * scale;
    pa.ci_half_width = r.precision * scale;
    pa.confidence = r.confidence;
    return sink(pa);
  };

  auto start = std::chrono::steady_clock::now();
  core::OnlineAggregator agg(column, opts);
  ISLA_ASSIGN_OR_RETURN(core::AggregateResult r, agg.Start());
  ISLA_RETURN_NOT_OK(emit(r, 1));
  for (uint32_t round = 2; round <= rounds; ++round) {
    const double target = spec.precision * std::ldexp(1.0, rounds - round);
    ISLA_ASSIGN_OR_RETURN(r, agg.Refine(target));
    ISLA_RETURN_NOT_OK(emit(r, round));
  }
  const double elapsed_millis =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();

  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(4);
  os << AggregateName(spec.aggregate) << " = "
     << (spec.aggregate == AggregateKind::kSum ? r.sum : r.average)
     << "  [method=" << MethodName(spec.method) << ", rounds=" << rounds
     << ", samples=" << r.total_samples + r.pilot_samples << ", "
     << elapsed_millis << " ms]"
     << "\n  sketch0=" << r.sketch0 << " sigma=" << r.sigma_estimate
     << " blocks=" << r.blocks.size() << " precision=+/-" << r.precision
     << " @" << r.confidence << " kernels=" << r.kernel_dispatch;
  return os.str();
}

}  // namespace engine
}  // namespace isla
