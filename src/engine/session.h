#ifndef ISLA_ENGINE_SESSION_H_
#define ISLA_ENGINE_SESSION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "core/options.h"
#include "engine/executor.h"
#include "engine/query.h"
#include "storage/table.h"

namespace isla {
namespace engine {

class ScanScheduler;

/// One progressive answer of a streaming SELECT: emitted once per
/// online-refinement round before the final response. The engine-level
/// mirror of net::PartialFrame (the session layer does not depend on the
/// wire codec).
struct PartialAnswer {
  uint32_t round = 0;          // 1-based refinement round
  uint32_t total_rounds = 0;   // the session's `stream` setting
  uint64_t samples = 0;        // cumulative samples (pilot + main)
  double value = 0.0;          // aggregate-shaped answer after this round
  double ci_half_width = 0.0;  // guaranteed CI half-width of this round
  double confidence = 0.0;     // the CI's confidence level
};

/// Receives each PartialAnswer of a streaming statement. Returning an
/// error aborts the statement (e.g. the client hung up mid-stream).
using PartialSink = std::function<Status(const PartialAnswer&)>;

/// An interactive session: owns a catalog and understands a small DDL on
/// top of the approximate-query dialect (engine::ParseStatement parses
/// both). Statements:
///
///   CREATE TABLE t FROM NORMAL(mu, sigma) ROWS n BLOCKS b [SEED s] [GROUPS g]
///   CREATE TABLE t FROM EXPONENTIAL(gamma) ROWS n BLOCKS b [SEED s] [GROUPS g]
///   CREATE TABLE t FROM UNIFORM(lo, hi) ROWS n BLOCKS b [SEED s] [GROUPS g]
///   CREATE TABLE t FROM FILES(path1, path2, ...)      -- .islb shards
///   DROP TABLE t
///   SHOW TABLES
///   DESCRIBE t
///   SELECT AVG(c)|SUM(c)|COUNT(c)|MEDIAN(c)|QUANTILE(c, q)|HISTOGRAM(c, k)
///          FROM t [WHERE c op lit] [GROUP BY c [TOP k]]
///          [WITHIN e] [CONFIDENCE b] [USING method]
///   SET precision|confidence|parallelism|seed|pilot|rate_scale|stream <value>
///   SHOW SETTINGS
///   SHOW STATS
///
/// Distribution-backed tables create generator (virtual) blocks under a
/// single column named "value"; n, b, s and g are whole numbers and may use
/// scientific notation (1e9). A GROUPS g clause adds a row-aligned "grp"
/// column with keys {0..g-1} so grouped queries have something to group
/// on. Execute() returns a human-readable response string for the REPL.
///
/// SET retunes this session's engine options (the per-session IslaOptions
/// the query server hands each connection); values are validated as a
/// whole, so a SET that would make the options inconsistent is rejected
/// and the previous settings stay in force. parallelism, seed, pilot and
/// stream take whole numbers. Queries without an explicit WITHIN/CONFIDENCE
/// clause default to the session's current values.
///
/// `SET stream R` (R in 0..16, default 0) turns plain `SELECT AVG|SUM
/// ... USING isla` statements into R-round online aggregations: round r
/// runs at precision e·2^(R−r) and is reported through the PartialSink
/// before the final answer at the requested e. Answers are deterministic
/// regardless of whether anyone listens to the partials.
class Session {
 public:
  explicit Session(core::IslaOptions options = {});

  /// Parses and runs one statement.
  Result<std::string> Execute(std::string_view statement);

  /// As above, additionally reporting streaming rounds to `sink` (nullable;
  /// only streaming SELECTs emit anything). A sink error aborts the
  /// statement and is returned.
  Result<std::string> Execute(std::string_view statement,
                              const PartialSink& sink);

  /// Runs a parsed statement. Its fields must hold what ParseStatement
  /// guarantees (engine/query.h): the session does not re-check them.
  Result<std::string> Execute(const Statement& statement,
                              const PartialSink& sink);

  /// The WITHIN/CONFIDENCE defaults this session's statements parse with.
  QueryDefaults query_defaults() const;

  /// Routes this session's sampled grouped queries through a shared scan
  /// scheduler (nullable, unowned, must outlive the session). The query
  /// server installs its process-wide scheduler here so sessions share
  /// the pilot/result caches and identical in-flight statements run once.
  void set_scheduler(ScanScheduler* scheduler) { scheduler_ = scheduler; }

  /// Direct access for embedding (tests, tools).
  storage::Catalog* catalog() { return &catalog_; }
  const core::IslaOptions& options() const { return options_; }
  uint32_t stream_rounds() const { return stream_rounds_; }

 private:
  Result<std::string> CreateTable(const CreateTableStatement& create);
  Result<std::string> DropTable(const std::string& name);
  Result<std::string> Show(ShowStatement::Target target) const;
  Result<std::string> ShowTables() const;
  Result<std::string> Describe(const std::string& name) const;
  Result<std::string> Select(const QuerySpec& spec,
                             const PartialSink& sink) const;
  Result<std::string> SelectStreaming(const QuerySpec& spec,
                                      const PartialSink& sink) const;
  Result<std::string> SetOption(const SetStatement& set);
  Result<std::string> ShowSettings() const;
  Result<std::string> ShowStats() const;

  storage::Catalog catalog_;
  core::IslaOptions options_;
  uint32_t stream_rounds_ = 0;
  ScanScheduler* scheduler_ = nullptr;
};

}  // namespace engine
}  // namespace isla

#endif  // ISLA_ENGINE_SESSION_H_
