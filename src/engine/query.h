#ifndef ISLA_ENGINE_QUERY_H_
#define ISLA_ENGINE_QUERY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/group_by.h"

namespace isla {
namespace engine {

/// Aggregate function of a query. COUNT estimates the cardinality of the
/// matching rows (exactly M when there is no predicate). MEDIAN, QUANTILE
/// and HISTOGRAM are sketch-backed with a reported rank-error band.
enum class AggregateKind {
  kAvg,
  kSum,
  kCount,
  kMedian,     // QUANTILE at q = 0.5
  kQuantile,   // QUANTILE(col, q), q in [0, 1]
  kHistogram,  // HISTOGRAM(col, bins), equal-width over the sampled range
};

/// Estimation method requested via `USING <method>`.
enum class Method {
  kIsla,        // the paper's engine (default)
  kIslaNonIid,  // ISLA with per-block boundaries and variance-driven rates
  kUniform,     // US baseline
  kStratified,  // STS baseline
  kMv,          // measure-biased on values
  kMvb,         // measure-biased on values and boundaries
  kExact,       // full scan (ground truth; memory/file blocks only)
};

std::string_view MethodName(Method m);

/// The SQL spelling of an aggregate: "AVG", "SUM", ..., "HISTOGRAM".
std::string_view AggregateName(AggregateKind kind);

/// A parsed `WHERE <col> <op> <literal>` clause. The column must be
/// row-aligned with the aggregated column; literals are numeric.
struct PredicateClause {
  std::string column;
  core::PredicateOp op = core::PredicateOp::kGe;
  double literal = 0.0;
};

/// A parsed approximate-aggregation query. The surface syntax follows the
/// paper's §II-C query form, extended with explicit keywords:
///
///   SELECT AVG(col)|SUM(col)|COUNT(col)|MEDIAN(col)
///          |QUANTILE(col, q)|HISTOGRAM(col, bins) FROM table
///     [WHERE col (=|!=|<>|<|<=|>|>=) literal]
///     [GROUP BY col [TOP k]]
///     [WITHIN e] [CONFIDENCE b] [USING method]
///
/// Keywords are case-insensitive; `WITHIN` is the desired precision e and
/// `CONFIDENCE` the level β — with GROUP BY, the (e, β) contract holds per
/// group. For the sketch-backed aggregates (MEDIAN/QUANTILE/HISTOGRAM) the
/// precision is read in rank space: the answer carries a ±ε·n rank band at
/// confidence β. `TOP k` keeps only the k groups with the largest
/// estimated cardinality. Defaults: e = 0.1, β = 0.95, method = isla.
/// Each optional clause may appear at most once.
struct QuerySpec {
  AggregateKind aggregate = AggregateKind::kAvg;
  std::string column;
  std::string table;
  std::optional<PredicateClause> where;
  std::string group_by;       // empty = no GROUP BY
  uint64_t top_k = 0;         // GROUP BY ... TOP k; 0 = keep all groups
  double quantile_q = 0.5;    // q of QUANTILE (MEDIAN pins 0.5)
  uint64_t histogram_bins = 0;  // bins of HISTOGRAM
  double precision = 0.1;
  double confidence = 0.95;
  Method method = Method::kIsla;
};

/// Session-level defaults applied when a query omits the corresponding
/// clause. The query server's SET statement retunes these per session;
/// explicit WITHIN/CONFIDENCE/USING clauses always win.
struct QueryDefaults {
  double precision = 0.1;
  double confidence = 0.95;
  Method method = Method::kIsla;
};

/// `CREATE TABLE t FROM NORMAL(mu, sigma) | EXPONENTIAL(gamma)
/// | UNIFORM(lo, hi) ROWS n BLOCKS b [SEED s] [GROUPS g]` builds virtual
/// generator blocks; `CREATE TABLE t FROM FILES(path, ...)` opens .islb
/// shards (a path holding spaces, `,`, `(`, `)`, `;`, `=`, `<`, `>` or `!`
/// must be quoted). The parser guarantees sigma > 0, gamma > 0, lo < hi and
/// 1 <= b <= n.
struct CreateTableStatement {
  enum class Source { kNormal, kExponential, kUniform, kFiles };
  std::string table;
  Source source = Source::kNormal;
  std::vector<double> params;      // the distribution's arguments, in order
  std::vector<std::string> files;  // kFiles only
  uint64_t rows = 0;
  uint64_t blocks = 0;
  std::optional<uint64_t> seed;  // absent: the session's seed
  uint64_t groups = 0;           // GROUPS g, 1..4096; 0 = no "grp" column
};

/// `DROP TABLE t`.
struct DropTableStatement {
  std::string table;
};

/// `DESCRIBE t` or `DESC t`.
struct DescribeStatement {
  std::string table;
};

/// `SHOW TABLES | SETTINGS | STATS | SERVER STATS`. SERVER STATS is about
/// the process, so the query server answers it and a Session refuses it.
struct ShowStatement {
  enum class Target { kTables, kSettings, kStats, kServerStats };
  Target target = Target::kTables;
};

/// `SET option value`. The session checks the name and the value.
struct SetStatement {
  std::string option;  // lower-cased
  double value = 0.0;
};

/// One statement of the session language.
using Statement = std::variant<QuerySpec, CreateTableStatement,
                               DropTableStatement, DescribeStatement,
                               ShowStatement, SetStatement>;

/// Parses the mini-SQL dialect above. Returns InvalidArgument with a
/// position-annotated message on malformed input (including unterminated
/// string literals, duplicate clauses, and unknown operators).
Result<QuerySpec> ParseQuery(std::string_view sql);

/// Same, with omitted optional clauses defaulting from `defaults` instead
/// of the global constants.
Result<QuerySpec> ParseQuery(std::string_view sql,
                             const QueryDefaults& defaults);

/// Parses any statement: a SELECT exactly as ParseQuery(sql, defaults)
/// does, or one of the statements above. Every error is InvalidArgument
/// with an offset. Integer literals (ROWS, BLOCKS, SEED, GROUPS, TOP,
/// histogram bins) must be whole numbers; `1e6` is one. Outside SELECT, `;`
/// may only end the statement.
Result<Statement> ParseStatement(std::string_view sql,
                                 const QueryDefaults& defaults = {});

/// Canonical single-line rendering of a spec. Every optional clause is
/// printed explicitly and numbers round-trip exactly, so
/// ParseQuery(PrintQuery(s)) reproduces s and printing is a fixed point:
/// PrintQuery(ParseQuery(q)) == PrintQuery(ParseQuery(PrintQuery(ParseQuery(q)))).
std::string PrintQuery(const QuerySpec& spec);

}  // namespace engine
}  // namespace isla

#endif  // ISLA_ENGINE_QUERY_H_
