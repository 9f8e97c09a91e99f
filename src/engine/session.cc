#include "engine/session.h"

#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <sstream>
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

/// Splits a statement into tokens; parentheses and commas stand alone.
struct DdlToken {
  std::string lower;
  std::string raw;
};

std::vector<DdlToken> Lex(std::string_view s) {
  std::vector<DdlToken> out;
  size_t i = 0;
  while (i < s.size()) {
    char c = s[i];
    if (std::isspace(static_cast<unsigned char>(c)) || c == ';') {
      ++i;
      continue;
    }
    if (c == '(' || c == ')' || c == ',') {
      out.push_back({std::string(1, c), std::string(1, c)});
      ++i;
      continue;
    }
    if (c == '\'' || c == '"') {
      // Quoted path literal.
      char quote = c;
      size_t end = s.find(quote, i + 1);
      if (end == std::string_view::npos) end = s.size();
      std::string body(s.substr(i + 1, end - i - 1));
      out.push_back({body, body});
      i = end + 1;
      continue;
    }
    size_t start = i;
    while (i < s.size()) {
      char d = s[i];
      if (std::isspace(static_cast<unsigned char>(d)) || d == '(' ||
          d == ')' || d == ',' || d == ';') {
        break;
      }
      ++i;
    }
    std::string raw(s.substr(start, i - start));
    std::string lower = raw;
    for (char& ch : lower) {
      ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    }
    out.push_back({std::move(lower), std::move(raw)});
  }
  return out;
}

class DdlParser {
 public:
  explicit DdlParser(std::vector<DdlToken> tokens)
      : tokens_(std::move(tokens)) {}

  bool AtEnd() const { return index_ >= tokens_.size(); }

  const DdlToken* Peek() const {
    return AtEnd() ? nullptr : &tokens_[index_];
  }

  bool Accept(std::string_view keyword) {
    if (!AtEnd() && tokens_[index_].lower == keyword) {
      ++index_;
      return true;
    }
    return false;
  }

  Status Expect(std::string_view keyword) {
    if (Accept(keyword)) return Status::OK();
    return Status::InvalidArgument(
        "expected '" + std::string(keyword) + "'" +
        (AtEnd() ? " at end of statement"
                 : ", got '" + tokens_[index_].raw + "'"));
  }

  Result<std::string> Identifier(std::string_view what) {
    if (AtEnd()) {
      return Status::InvalidArgument("expected " + std::string(what));
    }
    std::string out = tokens_[index_].raw;
    ++index_;
    return out;
  }

  Result<double> Number(std::string_view what) {
    if (AtEnd()) {
      return Status::InvalidArgument("expected " + std::string(what));
    }
    const std::string& raw = tokens_[index_].raw;
    // std::from_chars handles scientific notation for double.
    double v = 0.0;
    auto [ptr, ec] = std::from_chars(raw.data(), raw.data() + raw.size(), v);
    if (ec != std::errc() || ptr != raw.data() + raw.size()) {
      return Status::InvalidArgument("expected a number for " +
                                     std::string(what) + ", got '" + raw +
                                     "'");
    }
    ++index_;
    return v;
  }

 private:
  std::vector<DdlToken> tokens_;
  size_t index_ = 0;
};

}  // namespace

Session::Session(core::IslaOptions options) : options_(options) {}

Result<std::string> Session::Execute(std::string_view statement) {
  return Execute(statement, PartialSink());
}

Result<std::string> Session::Execute(std::string_view statement,
                                     const PartialSink& sink) {
  std::vector<DdlToken> tokens = Lex(statement);
  if (tokens.empty()) {
    return Status::InvalidArgument("empty statement");
  }
  const std::string& head = tokens.front().lower;
  if (head == "create") return CreateTable(statement);
  if (head == "drop") return DropTable(statement);
  if (head == "show") {
    const std::string target = tokens.size() == 2 ? tokens[1].lower : "";
    if (target == "tables") return ShowTables();
    if (target == "settings") return ShowSettings();
    if (target == "stats") return ShowStats();
    std::string named;
    for (size_t i = 1; i < tokens.size(); ++i) {
      named += (i > 1 ? " " : "") + tokens[i].raw;
    }
    return Status::InvalidArgument(
        "SHOW expects TABLES, SETTINGS or STATS, got '" + named + "'");
  }
  if (head == "describe" || head == "desc") return Describe(statement);
  if (head == "select") return Select(statement, sink);
  if (head == "set") return SetOption(statement);
  return Status::InvalidArgument("unknown statement: '" + tokens.front().raw +
                                 "'");
}

Result<std::string> Session::CreateTable(std::string_view statement) {
  DdlParser p(Lex(statement));
  ISLA_RETURN_NOT_OK(p.Expect("create"));
  ISLA_RETURN_NOT_OK(p.Expect("table"));
  ISLA_ASSIGN_OR_RETURN(std::string name, p.Identifier("table name"));
  ISLA_RETURN_NOT_OK(p.Expect("from"));

  auto table = std::make_shared<storage::Table>(name);
  ISLA_RETURN_NOT_OK(table->AddColumn(kDefaultColumn));

  std::ostringstream response;
  if (p.Accept("files")) {
    ISLA_RETURN_NOT_OK(p.Expect("("));
    uint64_t rows = 0;
    size_t shards = 0;
    while (true) {
      ISLA_ASSIGN_OR_RETURN(std::string path, p.Identifier("file path"));
      ISLA_ASSIGN_OR_RETURN(auto block, storage::FileBlock::Open(path));
      rows += block->size();
      ++shards;
      ISLA_RETURN_NOT_OK(table->AppendBlock(kDefaultColumn, block));
      if (p.Accept(")")) break;
      ISLA_RETURN_NOT_OK(p.Expect(","));
    }
    response << "created table " << name << " from " << shards
             << " shard file(s), " << rows << " rows";
  } else {
    // Distribution-backed virtual table.
    std::shared_ptr<const stats::Distribution> dist;
    if (p.Accept("normal")) {
      ISLA_RETURN_NOT_OK(p.Expect("("));
      ISLA_ASSIGN_OR_RETURN(double mu, p.Number("mu"));
      ISLA_RETURN_NOT_OK(p.Expect(","));
      ISLA_ASSIGN_OR_RETURN(double sigma, p.Number("sigma"));
      ISLA_RETURN_NOT_OK(p.Expect(")"));
      if (!(sigma > 0.0)) {
        return Status::InvalidArgument("sigma must be > 0");
      }
      dist = std::make_shared<stats::NormalDistribution>(mu, sigma);
    } else if (p.Accept("exponential")) {
      ISLA_RETURN_NOT_OK(p.Expect("("));
      ISLA_ASSIGN_OR_RETURN(double gamma, p.Number("gamma"));
      ISLA_RETURN_NOT_OK(p.Expect(")"));
      if (!(gamma > 0.0)) {
        return Status::InvalidArgument("gamma must be > 0");
      }
      dist = std::make_shared<stats::ExponentialDistribution>(gamma);
    } else if (p.Accept("uniform")) {
      ISLA_RETURN_NOT_OK(p.Expect("("));
      ISLA_ASSIGN_OR_RETURN(double lo, p.Number("lo"));
      ISLA_RETURN_NOT_OK(p.Expect(","));
      ISLA_ASSIGN_OR_RETURN(double hi, p.Number("hi"));
      ISLA_RETURN_NOT_OK(p.Expect(")"));
      if (!(lo < hi)) return Status::InvalidArgument("need lo < hi");
      dist = std::make_shared<stats::UniformDistribution>(lo, hi);
    } else {
      return Status::InvalidArgument(
          "expected NORMAL/EXPONENTIAL/UNIFORM/FILES source");
    }

    ISLA_RETURN_NOT_OK(p.Expect("rows"));
    ISLA_ASSIGN_OR_RETURN(double rows_d, p.Number("row count"));
    ISLA_RETURN_NOT_OK(p.Expect("blocks"));
    ISLA_ASSIGN_OR_RETURN(double blocks_d, p.Number("block count"));
    uint64_t seed = options_.seed;
    uint64_t group_keys = 0;
    bool seen_seed = false, seen_groups = false;
    while (!p.AtEnd()) {
      if (p.Accept("seed")) {
        if (seen_seed) {
          return Status::InvalidArgument("duplicate SEED clause");
        }
        seen_seed = true;
        ISLA_ASSIGN_OR_RETURN(double seed_d, p.Number("seed"));
        // Range-checked: the double → uint64_t cast is UB out of range,
        // and sessions are reachable from remote query-server clients.
        if (!(seed_d >= 0.0) || !(seed_d < 18446744073709551616.0)) {
          return Status::InvalidArgument("SEED out of uint64 range");
        }
        seed = static_cast<uint64_t>(seed_d);
        continue;
      }
      if (p.Accept("groups")) {
        if (seen_groups) {
          return Status::InvalidArgument("duplicate GROUPS clause");
        }
        seen_groups = true;
        ISLA_ASSIGN_OR_RETURN(double groups_d, p.Number("group cardinality"));
        if (!(groups_d >= 1.0 && groups_d <= 4096.0)) {
          return Status::InvalidArgument("need 1 <= GROUPS <= 4096");
        }
        group_keys = static_cast<uint64_t>(groups_d);
        continue;
      }
      break;
    }
    if (!(rows_d >= 1.0) || !(blocks_d >= 1.0) || blocks_d > rows_d) {
      return Status::InvalidArgument("need rows >= blocks >= 1");
    }
    if (!(rows_d < 18446744073709551616.0)) {
      return Status::InvalidArgument("ROWS out of uint64 range");
    }
    uint64_t rows = static_cast<uint64_t>(rows_d);
    uint64_t blocks = static_cast<uint64_t>(blocks_d);
    // A GROUPS clause adds a row-aligned "grp" key column: same block
    // layout, independent generator streams.
    std::shared_ptr<const stats::Distribution> key_dist;
    if (group_keys > 0) {
      ISLA_RETURN_NOT_OK(table->AddColumn(kGroupColumn));
      key_dist =
          std::make_shared<stats::DiscreteUniformDistribution>(group_keys);
    }
    uint64_t base = rows / blocks;
    uint64_t extra = rows % blocks;
    for (uint64_t j = 0; j < blocks; ++j) {
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
    response << "created table " << name << " from " << dist->Name() << ", "
             << rows << " virtual rows in " << blocks << " blocks";
    if (group_keys > 0) {
      response << " (+ column '" << kGroupColumn << "' with " << group_keys
               << " keys)";
    }
  }
  if (!p.AtEnd()) {
    return Status::InvalidArgument("trailing tokens after CREATE TABLE");
  }
  ISLA_RETURN_NOT_OK(catalog_.AddTable(std::move(table)));
  return response.str();
}

Result<std::string> Session::DropTable(std::string_view statement) {
  DdlParser p(Lex(statement));
  ISLA_RETURN_NOT_OK(p.Expect("drop"));
  ISLA_RETURN_NOT_OK(p.Expect("table"));
  ISLA_ASSIGN_OR_RETURN(std::string name, p.Identifier("table name"));
  if (!p.AtEnd()) {
    return Status::InvalidArgument("trailing tokens after DROP TABLE");
  }
  ISLA_RETURN_NOT_OK(catalog_.DropTable(name));
  return "dropped table " + name;
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

Result<std::string> Session::Describe(std::string_view statement) const {
  DdlParser p(Lex(statement));
  if (!p.Accept("describe")) ISLA_RETURN_NOT_OK(p.Expect("desc"));
  ISLA_ASSIGN_OR_RETURN(std::string name, p.Identifier("table name"));
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

std::string_view AggregateName(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kAvg:
      return "AVG";
    case AggregateKind::kSum:
      return "SUM";
    case AggregateKind::kCount:
      return "COUNT";
    case AggregateKind::kMedian:
      return "MEDIAN";
    case AggregateKind::kQuantile:
      return "QUANTILE";
    case AggregateKind::kHistogram:
      return "HISTOGRAM";
  }
  return "?";
}

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

Result<std::string> Session::SetOption(std::string_view statement) {
  DdlParser p(Lex(statement));
  ISLA_RETURN_NOT_OK(p.Expect("set"));
  ISLA_ASSIGN_OR_RETURN(std::string name, p.Identifier("option name"));
  for (char& ch : name) {
    ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  }
  ISLA_ASSIGN_OR_RETURN(double value, p.Number("option value"));
  if (!p.AtEnd()) {
    return Status::InvalidArgument("trailing tokens after SET");
  }

  // A double → unsigned cast is UB outside the target range, and SET is
  // reachable from any remote query-server client — range-check before
  // casting, never after.
  auto to_unsigned = [](double v, double max_exclusive,
                        uint64_t* out) -> Status {
    if (!(v >= 0.0) || !(v < max_exclusive)) {
      return Status::InvalidArgument(
          "value out of range for an unsigned option");
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

Result<std::string> Session::Select(std::string_view statement,
                                    const PartialSink& sink) const {
  QueryExecutor executor(&catalog_, options_, scheduler_);
  QueryDefaults defaults;
  defaults.precision = options_.precision;
  defaults.confidence = options_.confidence;
  ISLA_ASSIGN_OR_RETURN(QuerySpec spec, ParseQuery(statement, defaults));
  // A nonzero `stream` setting turns eligible single-answer ISLA queries
  // into an online-refinement ladder (partials via the sink); everything
  // else runs single-shot exactly as before.
  if (stream_rounds_ > 0 && spec.method == Method::kIsla &&
      !spec.where.has_value() && spec.group_by.empty() &&
      spec.aggregate != AggregateKind::kCount) {
    return SelectStreaming(spec, sink);
  }
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
