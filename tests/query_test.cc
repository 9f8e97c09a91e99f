// Unit tests for engine/query.h — the mini-SQL parser.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "engine/query.h"

namespace isla {
namespace engine {
namespace {

TEST(ParseQuery, MinimalAvg) {
  auto q = ParseQuery("SELECT AVG(price) FROM sales");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->aggregate, AggregateKind::kAvg);
  EXPECT_EQ(q->column, "price");
  EXPECT_EQ(q->table, "sales");
  EXPECT_DOUBLE_EQ(q->precision, 0.1);
  EXPECT_DOUBLE_EQ(q->confidence, 0.95);
  EXPECT_EQ(q->method, Method::kIsla);
}

TEST(ParseQuery, SumAggregate) {
  auto q = ParseQuery("SELECT SUM(qty) FROM inventory");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->aggregate, AggregateKind::kSum);
}

TEST(ParseQuery, FullClauseSet) {
  auto q = ParseQuery(
      "SELECT AVG(v) FROM t WITHIN 0.25 CONFIDENCE 0.99 USING uniform");
  ASSERT_TRUE(q.ok());
  EXPECT_DOUBLE_EQ(q->precision, 0.25);
  EXPECT_DOUBLE_EQ(q->confidence, 0.99);
  EXPECT_EQ(q->method, Method::kUniform);
}

TEST(ParseQuery, ClausesInAnyOrder) {
  auto q = ParseQuery(
      "SELECT AVG(v) FROM t USING mvb WITHIN 0.5 CONFIDENCE 0.9");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->method, Method::kMvb);
  EXPECT_DOUBLE_EQ(q->precision, 0.5);
}

TEST(ParseQuery, KeywordsAreCaseInsensitive) {
  auto q = ParseQuery("select avg(V) from T within 0.2 confidence 0.8");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->column, "V");  // Identifiers keep their case.
  EXPECT_EQ(q->table, "T");
}

TEST(ParseQuery, TrailingSemicolonAllowed) {
  EXPECT_TRUE(ParseQuery("SELECT AVG(v) FROM t;").ok());
}

TEST(ParseQuery, ExtraWhitespaceTolerated) {
  EXPECT_TRUE(ParseQuery("  SELECT   AVG( v )  FROM   t  ").ok());
}

TEST(ParseQuery, AllMethodNames) {
  EXPECT_EQ(ParseQuery("SELECT AVG(v) FROM t USING isla")->method,
            Method::kIsla);
  EXPECT_EQ(ParseQuery("SELECT AVG(v) FROM t USING isla_noniid")->method,
            Method::kIslaNonIid);
  EXPECT_EQ(ParseQuery("SELECT AVG(v) FROM t USING noniid")->method,
            Method::kIslaNonIid);
  EXPECT_EQ(ParseQuery("SELECT AVG(v) FROM t USING us")->method,
            Method::kUniform);
  EXPECT_EQ(ParseQuery("SELECT AVG(v) FROM t USING sts")->method,
            Method::kStratified);
  EXPECT_EQ(ParseQuery("SELECT AVG(v) FROM t USING mv")->method, Method::kMv);
  EXPECT_EQ(ParseQuery("SELECT AVG(v) FROM t USING exact")->method,
            Method::kExact);
}

TEST(ParseQuery, UnknownMethodFails) {
  auto q = ParseQuery("SELECT AVG(v) FROM t USING magic");
  EXPECT_TRUE(q.status().IsInvalidArgument());
  EXPECT_NE(q.status().message().find("magic"), std::string::npos);
}

TEST(ParseQuery, RejectsUnknownAggregate) {
  auto q = ParseQuery("SELECT MAX(v) FROM t");
  EXPECT_TRUE(q.status().IsInvalidArgument());
}

TEST(ParseQuery, RejectsMissingParens) {
  EXPECT_FALSE(ParseQuery("SELECT AVG v FROM t").ok());
  EXPECT_FALSE(ParseQuery("SELECT AVG(v FROM t").ok());
}

TEST(ParseQuery, RejectsMissingFrom) {
  EXPECT_FALSE(ParseQuery("SELECT AVG(v)").ok());
  EXPECT_FALSE(ParseQuery("SELECT AVG(v) t").ok());
}

TEST(ParseQuery, RejectsBadNumbers) {
  EXPECT_FALSE(ParseQuery("SELECT AVG(v) FROM t WITHIN abc").ok());
  EXPECT_FALSE(ParseQuery("SELECT AVG(v) FROM t WITHIN").ok());
  EXPECT_FALSE(ParseQuery("SELECT AVG(v) FROM t CONFIDENCE 0.25abc").ok());
}

TEST(ParseQuery, RejectsOutOfRangeValues) {
  EXPECT_FALSE(ParseQuery("SELECT AVG(v) FROM t WITHIN 0").ok());
  EXPECT_FALSE(ParseQuery("SELECT AVG(v) FROM t WITHIN -0.1").ok());
  EXPECT_FALSE(ParseQuery("SELECT AVG(v) FROM t CONFIDENCE 1.0").ok());
  EXPECT_FALSE(ParseQuery("SELECT AVG(v) FROM t CONFIDENCE 0").ok());
}

TEST(ParseQuery, RejectsTrailingGarbage) {
  auto q = ParseQuery("SELECT AVG(v) FROM t EXTRA");
  EXPECT_TRUE(q.status().IsInvalidArgument());
  EXPECT_NE(q.status().message().find("EXTRA"), std::string::npos);
}

TEST(ParseQuery, ErrorsCarryOffsets) {
  auto q = ParseQuery("SELECT AVG(v) FROM t WITHIN zero");
  EXPECT_TRUE(q.status().IsInvalidArgument());
  EXPECT_NE(q.status().message().find("offset"), std::string::npos);
}

TEST(ParseQuery, EmptyInputFails) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("   ").ok());
}

TEST(ParseQuery, CountAggregate) {
  auto q = ParseQuery("SELECT COUNT(v) FROM t WHERE v >= 10");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->aggregate, AggregateKind::kCount);
  ASSERT_TRUE(q->where.has_value());
  EXPECT_EQ(q->where->column, "v");
  EXPECT_EQ(q->where->op, core::PredicateOp::kGe);
  EXPECT_DOUBLE_EQ(q->where->literal, 10.0);
}

TEST(ParseQuery, WhereClauseAllOperators) {
  const struct {
    const char* op;
    core::PredicateOp want;
  } cases[] = {
      {"=", core::PredicateOp::kEq},   {"==", core::PredicateOp::kEq},
      {"!=", core::PredicateOp::kNe},  {"<>", core::PredicateOp::kNe},
      {"<", core::PredicateOp::kLt},   {"<=", core::PredicateOp::kLe},
      {">", core::PredicateOp::kGt},   {">=", core::PredicateOp::kGe},
  };
  for (const auto& c : cases) {
    std::string sql =
        std::string("SELECT AVG(v) FROM t WHERE k ") + c.op + " 3.5";
    auto q = ParseQuery(sql);
    ASSERT_TRUE(q.ok()) << sql << ": " << q.status();
    EXPECT_EQ(q->where->op, c.want) << sql;
    EXPECT_DOUBLE_EQ(q->where->literal, 3.5);
  }
}

TEST(ParseQuery, OperatorsNeedNoWhitespace) {
  auto q = ParseQuery("SELECT AVG(v) FROM t WHERE k<=-2.5 GROUP BY g");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->where->op, core::PredicateOp::kLe);
  EXPECT_DOUBLE_EQ(q->where->literal, -2.5);
  EXPECT_EQ(q->group_by, "g");
}

TEST(ParseQuery, GroupByClause) {
  auto q = ParseQuery(
      "SELECT AVG(fare) FROM trips WHERE borough = 3 GROUP BY hour "
      "WITHIN 0.25 CONFIDENCE 0.9");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->group_by, "hour");
  EXPECT_EQ(q->where->column, "borough");
  EXPECT_EQ(q->where->op, core::PredicateOp::kEq);
}

TEST(ParseQuery, ClausesInterleaveFreely) {
  auto q = ParseQuery(
      "SELECT SUM(v) FROM t WITHIN 0.5 GROUP BY g USING uniform WHERE "
      "k > 1 CONFIDENCE 0.8");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->group_by, "g");
  EXPECT_TRUE(q->where.has_value());
  EXPECT_EQ(q->method, Method::kUniform);
}

TEST(ParseQuery, SketchAggregates) {
  auto med = ParseQuery("SELECT MEDIAN(v) FROM t");
  ASSERT_TRUE(med.ok()) << med.status();
  EXPECT_EQ(med->aggregate, AggregateKind::kMedian);
  EXPECT_DOUBLE_EQ(med->quantile_q, 0.5);

  auto q = ParseQuery("SELECT QUANTILE(v, 0.99) FROM t");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->aggregate, AggregateKind::kQuantile);
  EXPECT_DOUBLE_EQ(q->quantile_q, 0.99);

  auto h = ParseQuery("SELECT HISTOGRAM(v, 16) FROM t");
  ASSERT_TRUE(h.ok()) << h.status();
  EXPECT_EQ(h->aggregate, AggregateKind::kHistogram);
  EXPECT_EQ(h->histogram_bins, 16u);
}

TEST(ParseQuery, TopKGroups) {
  auto q = ParseQuery("SELECT COUNT(v) FROM t GROUP BY g TOP 5");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->group_by, "g");
  EXPECT_EQ(q->top_k, 5u);
  // No TOP → keep all groups.
  EXPECT_EQ(ParseQuery("SELECT COUNT(v) FROM t GROUP BY g")->top_k, 0u);
}

TEST(ParseQuery, SketchAggregateBoundsEnforced) {
  // q outside [0, 1].
  EXPECT_FALSE(ParseQuery("SELECT QUANTILE(v, 1.5) FROM t").ok());
  EXPECT_FALSE(ParseQuery("SELECT QUANTILE(v, -0.1) FROM t").ok());
  // Quantile endpoints are legal.
  EXPECT_TRUE(ParseQuery("SELECT QUANTILE(v, 0) FROM t").ok());
  EXPECT_TRUE(ParseQuery("SELECT QUANTILE(v, 1) FROM t").ok());
  // Histogram bins: whole number in [1, 1024].
  EXPECT_FALSE(ParseQuery("SELECT HISTOGRAM(v, 0) FROM t").ok());
  EXPECT_FALSE(ParseQuery("SELECT HISTOGRAM(v, 1025) FROM t").ok());
  EXPECT_FALSE(ParseQuery("SELECT HISTOGRAM(v, 2.5) FROM t").ok());
  EXPECT_FALSE(ParseQuery("SELECT HISTOGRAM(v) FROM t").ok());
  // TOP: whole positive number only.
  EXPECT_FALSE(ParseQuery("SELECT COUNT(v) FROM t GROUP BY g TOP 0").ok());
  EXPECT_FALSE(ParseQuery("SELECT COUNT(v) FROM t GROUP BY g TOP 2.5").ok());
  EXPECT_FALSE(ParseQuery("SELECT COUNT(v) FROM t GROUP BY g TOP").ok());
  // TOP requires GROUP BY (it binds to the GROUP BY clause).
  EXPECT_FALSE(ParseQuery("SELECT COUNT(v) FROM t TOP 3").ok());
}

TEST(ParseQuery, PrintParseRoundTripIsAFixedPoint) {
  // Property: Print(Parse(q)) == Print(Parse(Print(Parse(q)))) for every
  // accepted query — printing is a canonicalization, so one round settles
  // it.
  const char* corpus[] = {
      "SELECT AVG(price) FROM sales",
      "select sum(QTY) from Inventory within 0.25",
      "SELECT COUNT(v) FROM t",
      "SELECT AVG(v) FROM t WHERE k >= 3 GROUP BY g",
      "SELECT AVG(v) FROM t WHERE k<>-17.25 USING noniid",
      "SELECT AVG(v) FROM t GROUP BY g WITHIN 0.125 CONFIDENCE 0.975",
      "SELECT SUM(v) FROM t WHERE k = 1e-3 USING exact;",
      "SELECT AVG(v) FROM t WITHIN 0.1 CONFIDENCE 0.95 USING mvb",
      "SELECT COUNT(x) FROM t WHERE x < 0.333333333333333314829616256247;",
      "  SELECT   AVG( v )  FROM   t  USING   sts  ",
      "SELECT MEDIAN(v) FROM t",
      "select quantile(v, 0.9) from t group by g top 5",
      "SELECT QUANTILE(v, 0.25) FROM t WHERE k > 2 WITHIN 0.05",
      "SELECT HISTOGRAM(v, 16) FROM t WHERE k <= 0.5",
      "SELECT HISTOGRAM(v, 1) FROM t GROUP BY g",
      "SELECT COUNT(v) FROM t GROUP BY g TOP 1 CONFIDENCE 0.99",
      "SELECT MEDIAN(lat) FROM trips GROUP BY city TOP 3 USING noniid",
  };
  for (const char* sql : corpus) {
    auto first = ParseQuery(sql);
    ASSERT_TRUE(first.ok()) << sql << ": " << first.status();
    std::string printed = PrintQuery(*first);
    auto second = ParseQuery(printed);
    ASSERT_TRUE(second.ok()) << printed << ": " << second.status();
    EXPECT_EQ(printed, PrintQuery(*second)) << sql;
    // The canonical form preserves the parse, field by field.
    EXPECT_EQ(first->aggregate, second->aggregate) << sql;
    EXPECT_EQ(first->column, second->column) << sql;
    EXPECT_EQ(first->table, second->table) << sql;
    EXPECT_EQ(first->where.has_value(), second->where.has_value()) << sql;
    if (first->where.has_value()) {
      EXPECT_EQ(first->where->op, second->where->op) << sql;
      EXPECT_EQ(first->where->literal, second->where->literal) << sql;
    }
    EXPECT_EQ(first->group_by, second->group_by) << sql;
    EXPECT_EQ(first->precision, second->precision) << sql;
    EXPECT_EQ(first->confidence, second->confidence) << sql;
    EXPECT_EQ(first->method, second->method) << sql;
    EXPECT_EQ(first->top_k, second->top_k) << sql;
    EXPECT_EQ(first->quantile_q, second->quantile_q) << sql;
    EXPECT_EQ(first->histogram_bins, second->histogram_bins) << sql;
  }
}

TEST(ParseQuery, MalformedCorpusFailsCleanlyWithOffsets) {
  // Every entry must produce a position-annotated InvalidArgument — never a
  // crash, never an accept.
  const char* corpus[] = {
      // Unterminated literals.
      "SELECT AVG(v) FROM t WHERE name = 'unterminated",
      "SELECT AVG(v) FROM t WHERE name = \"also bad",
      "SELECT AVG(v) FROM 'oops",
      // String literals where numbers/identifiers belong.
      "SELECT AVG(v) FROM t WHERE name = 'str'",
      "SELECT AVG('v') FROM t",
      "SELECT AVG(v) FROM t WITHIN '0.5'",
      // Duplicate clauses.
      "SELECT AVG(v) FROM t WHERE k > 1 WHERE k < 2",
      "SELECT AVG(v) FROM t GROUP BY g GROUP BY h",
      "SELECT AVG(v) FROM t WITHIN 0.5 WITHIN 0.25",
      "SELECT AVG(v) FROM t CONFIDENCE 0.9 CONFIDENCE 0.95",
      "SELECT AVG(v) FROM t USING isla USING uniform",
      // Bad operators.
      "SELECT AVG(v) FROM t WHERE k => 3",
      "SELECT AVG(v) FROM t WHERE k !! 3",
      "SELECT AVG(v) FROM t WHERE k 3",
      "SELECT AVG(v) FROM t WHERE k >",
      "SELECT AVG(v) FROM t WHERE > 3",
      // Structural damage.
      "SELECT AVG(v) FROM t GROUP g",
      "SELECT AVG(v) FROM t GROUP BY",
      "SELECT AVG(v) FROM t WHERE",
      "SELECT AVG() FROM t",
      "SELECT (v) FROM t",
      "WHERE k > 3",
      "SELECT AVG(v) FROM t WITHIN 0.5 garbage",
      // Sketch-aggregate argument damage.
      "SELECT QUANTILE(v) FROM t",
      "SELECT QUANTILE(v, 1.5) FROM t",
      "SELECT QUANTILE(v, 'half') FROM t",
      "SELECT MEDIAN(v, 0.5) FROM t",
      "SELECT HISTOGRAM(v) FROM t",
      "SELECT HISTOGRAM(v, 0) FROM t",
      "SELECT HISTOGRAM(v, 2.5) FROM t",
      // TOP damage.
      "SELECT COUNT(v) FROM t GROUP BY g TOP 0",
      "SELECT COUNT(v) FROM t GROUP BY g TOP",
      "SELECT COUNT(v) FROM t GROUP BY g TOP k",
      "SELECT COUNT(v) FROM t TOP 3",
  };
  for (const char* sql : corpus) {
    auto q = ParseQuery(sql);
    ASSERT_FALSE(q.ok()) << "accepted: " << sql;
    EXPECT_TRUE(q.status().IsInvalidArgument()) << sql << ": " << q.status();
    EXPECT_NE(q.status().message().find("offset"), std::string::npos)
        << sql << ": " << q.status();
  }
}

TEST(ParseStatement, MalformedDdlCorpusFailsCleanlyWithOffsets) {
  // The DDL, SHOW and SET statements share the SELECT grammar's tokenizer
  // and helpers, so every rejection is a position-annotated
  // InvalidArgument too.
  const char* corpus[] = {
      // Fractions where whole numbers belong.
      "CREATE TABLE t FROM NORMAL(0, 1) ROWS 10.9 BLOCKS 2",
      "CREATE TABLE t FROM NORMAL(0, 1) ROWS 10 BLOCKS 2.5",
      "CREATE TABLE t FROM NORMAL(0, 1) ROWS 10 BLOCKS 2 GROUPS 2.5",
      "CREATE TABLE t FROM NORMAL(0, 1) ROWS 10 BLOCKS 2 SEED 1.5",
      // 2^64: static_cast<double>(UINT64_MAX) rounds up to it.
      "CREATE TABLE t FROM NORMAL(0, 1) ROWS 10 BLOCKS 2 "
      "SEED 18446744073709551616",
      "CREATE TABLE t FROM NORMAL(0, 1) ROWS 18446744073709551616 BLOCKS 2",
      // Other out-of-range integers.
      "CREATE TABLE t FROM NORMAL(0, 1) ROWS 1e300 BLOCKS 2",
      "CREATE TABLE t FROM NORMAL(0, 1) ROWS 0 BLOCKS 0",
      "CREATE TABLE t FROM NORMAL(0, 1) ROWS 1 BLOCKS 5",
      "CREATE TABLE t FROM NORMAL(0, 1) ROWS 10 BLOCKS 2 SEED -5",
      "CREATE TABLE t FROM NORMAL(0, 1) ROWS 10 BLOCKS 2 GROUPS 0",
      "CREATE TABLE t FROM NORMAL(0, 1) ROWS 10 BLOCKS 2 GROUPS 4097",
      // Bad distributions.
      "CREATE TABLE t FROM GAUSSIAN(1, 2) ROWS 10 BLOCKS 2",
      "CREATE TABLE t FROM NORMAL(1) ROWS 10 BLOCKS 2",
      "CREATE TABLE t FROM NORMAL(1, 2, 3) ROWS 10 BLOCKS 2",
      "CREATE TABLE t FROM NORMAL(0, -1) ROWS 10 BLOCKS 2",
      "CREATE TABLE t FROM EXPONENTIAL(0) ROWS 10 BLOCKS 2",
      "CREATE TABLE t FROM UNIFORM(5, 5) ROWS 10 BLOCKS 2",
      "CREATE TABLE t FROM NORMAL('0', 1) ROWS 10 BLOCKS 2",
      // Clause damage.
      "CREATE TABLE t FROM NORMAL(0, 1) ROWS 10 BLOCKS 2 SEED 1 SEED 2",
      "CREATE TABLE t FROM NORMAL(0, 1) ROWS 10 BLOCKS 2 GROUPS 3 GROUPS 5",
      "CREATE TABLE t FROM NORMAL(0, 1) ROWS 10 BLOCKS 2 junk",
      "CREATE TABLE t FROM NORMAL(0, 1) BLOCKS 2 ROWS 10",
      "CREATE TABLE t FROM NORMAL(0, 1) ROWS 10",
      "CREATE TABLE t FROM NORMAL(0, 1) ROWS 10 BLOCKS 2; SEED 1",
      "CREATE TABLE 't' FROM NORMAL(0, 1) ROWS 10 BLOCKS 2",
      "CREATE TABLE a=b FROM NORMAL(0, 1) ROWS 10 BLOCKS 2",
      "CREATE TABLE",
      "CREATE t",
      // FILES damage.
      "CREATE TABLE t FROM FILES('/tmp/x.islb)",
      "CREATE TABLE t FROM FILES()",
      "CREATE TABLE t FROM FILES('a.islb' 'b.islb')",
      "CREATE TABLE t FROM FILES('a.islb',)",
      "CREATE TABLE t FROM FILES(a=b.islb)",
      "CREATE TABLE t FROM FILES('a.islb') ROWS 10",
      // DROP / DESCRIBE.
      "DESCRIBE t junk",
      "DESCRIBE 't'",
      "DESCRIBE",
      "DROP TABLE t junk",
      "DROP TABLE",
      "DROP t",
      // SHOW.
      "SHOW",
      "SHOW BOGUS",
      "SHOW TABLES junk",
      "SHOW; TABLES",
      "SHOW SERVER",
      "SHOW SERVER STATS junk",
      // SET.
      "SET",
      "SET precision",
      "SET precision abc",
      "SET precision 0.2 junk",
      "SET 'precision' 0.5",
      // Not a statement.
      "",
      "   ",
      ";",
      "FROB TABLE t",
      "'select' AVG(v) FROM t",
  };
  for (const char* sql : corpus) {
    auto statement = ParseStatement(sql);
    ASSERT_FALSE(statement.ok()) << "accepted: " << sql;
    EXPECT_TRUE(statement.status().IsInvalidArgument())
        << sql << ": " << statement.status();
    EXPECT_NE(statement.status().message().find("offset"), std::string::npos)
        << sql << ": " << statement.status();
  }
}

TEST(ParseStatement, SelectIsTheSpecParseQueryReturns) {
  QueryDefaults defaults;
  defaults.precision = 0.3;
  defaults.confidence = 0.9;
  const char* sql = "SELECT MEDIAN(v) FROM t WHERE k > 2 GROUP BY g TOP 3;";
  auto statement = ParseStatement(sql, defaults);
  ASSERT_TRUE(statement.ok()) << statement.status();
  const auto* spec = std::get_if<QuerySpec>(&*statement);
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(PrintQuery(*spec), PrintQuery(*ParseQuery(sql, defaults)));
  EXPECT_EQ(spec->precision, 0.3);
  EXPECT_EQ(spec->confidence, 0.9);
}

TEST(ParseStatement, CreateTableFromADistribution) {
  using Source = CreateTableStatement::Source;
  // SEED and GROUPS come in either order.
  auto statement = ParseStatement(
      "create table Sales from Normal(100, 2e1) rows 1e6 blocks 8 "
      "groups 16 seed 18446744073709549568;");
  ASSERT_TRUE(statement.ok()) << statement.status();
  const auto* create = std::get_if<CreateTableStatement>(&*statement);
  ASSERT_NE(create, nullptr);
  EXPECT_EQ(create->table, "Sales");  // Identifiers keep their case.
  EXPECT_EQ(create->source, Source::kNormal);
  EXPECT_EQ(create->params, (std::vector<double>{100.0, 20.0}));
  EXPECT_TRUE(create->files.empty());
  EXPECT_EQ(create->rows, 1'000'000u);
  EXPECT_EQ(create->blocks, 8u);
  EXPECT_EQ(create->groups, 16u);
  // The largest double below 2^64 is a valid seed.
  EXPECT_EQ(create->seed, std::optional<uint64_t>(18446744073709549568ULL));

  statement =
      ParseStatement("CREATE TABLE e FROM EXPONENTIAL(0.1) ROWS 10 BLOCKS 10");
  ASSERT_TRUE(statement.ok()) << statement.status();
  create = std::get_if<CreateTableStatement>(&*statement);
  ASSERT_NE(create, nullptr);
  EXPECT_EQ(create->source, Source::kExponential);
  EXPECT_EQ(create->params, std::vector<double>{0.1});
  EXPECT_EQ(create->rows, 10u);
  EXPECT_EQ(create->blocks, 10u);
  EXPECT_FALSE(create->seed.has_value());
  EXPECT_EQ(create->groups, 0u);

  statement =
      ParseStatement("CREATE TABLE u FROM UNIFORM(1, 199) ROWS 5 BLOCKS 1");
  ASSERT_TRUE(statement.ok()) << statement.status();
  create = std::get_if<CreateTableStatement>(&*statement);
  ASSERT_NE(create, nullptr);
  EXPECT_EQ(create->source, Source::kUniform);
  EXPECT_EQ(create->params, (std::vector<double>{1.0, 199.0}));
}

TEST(ParseStatement, CreateTableFromFiles) {
  auto statement = ParseStatement(
      "CREATE TABLE f FROM FILES('/tmp/a b.islb', rel/b.islb, \"c=d.islb\")");
  ASSERT_TRUE(statement.ok()) << statement.status();
  const auto* create = std::get_if<CreateTableStatement>(&*statement);
  ASSERT_NE(create, nullptr);
  EXPECT_EQ(create->table, "f");
  EXPECT_EQ(create->source, CreateTableStatement::Source::kFiles);
  EXPECT_EQ(create->files, (std::vector<std::string>{
                               "/tmp/a b.islb", "rel/b.islb", "c=d.islb"}));
  EXPECT_TRUE(create->params.empty());
}

TEST(ParseStatement, DropTable) {
  auto statement = ParseStatement("drop table BigT ;");
  ASSERT_TRUE(statement.ok()) << statement.status();
  const auto* drop = std::get_if<DropTableStatement>(&*statement);
  ASSERT_NE(drop, nullptr);
  EXPECT_EQ(drop->table, "BigT");
}

TEST(ParseStatement, DescribeAndItsShortForm) {
  for (const char* sql : {"DESCRIBE T", "desc T;"}) {
    auto statement = ParseStatement(sql);
    ASSERT_TRUE(statement.ok()) << sql << ": " << statement.status();
    const auto* describe = std::get_if<DescribeStatement>(&*statement);
    ASSERT_NE(describe, nullptr) << sql;
    EXPECT_EQ(describe->table, "T");
  }
}

TEST(ParseStatement, ShowTargets) {
  using Target = ShowStatement::Target;
  const std::pair<const char*, Target> cases[] = {
      {"SHOW TABLES", Target::kTables},
      {"show settings;", Target::kSettings},
      {"Show Stats", Target::kStats},
      {"SHOW SERVER STATS", Target::kServerStats},
      {"show server stats ;", Target::kServerStats},
  };
  for (const auto& [sql, target] : cases) {
    auto statement = ParseStatement(sql);
    ASSERT_TRUE(statement.ok()) << sql << ": " << statement.status();
    const auto* show = std::get_if<ShowStatement>(&*statement);
    ASSERT_NE(show, nullptr) << sql;
    EXPECT_EQ(show->target, target) << sql;
  }
}

TEST(ParseStatement, SetLowerCasesTheOptionAndKeepsTheValue) {
  // The grammar reads every value as a number; whether an option takes a
  // fraction is the session's call.
  auto statement = ParseStatement("SET Parallelism 2.7;");
  ASSERT_TRUE(statement.ok()) << statement.status();
  const auto* set = std::get_if<SetStatement>(&*statement);
  ASSERT_NE(set, nullptr);
  EXPECT_EQ(set->option, "parallelism");
  EXPECT_EQ(set->value, 2.7);
}

TEST(PrintQuery, LiteralsRoundTripExactly) {
  QuerySpec spec;
  spec.column = "v";
  spec.table = "t";
  PredicateClause where;
  where.column = "k";
  where.op = core::PredicateOp::kLt;
  where.literal = 0.1 + 0.2;  // 0.30000000000000004 — needs 17 digits
  spec.where = where;
  spec.precision = 1.0 / 3.0;
  auto reparsed = ParseQuery(PrintQuery(spec));
  ASSERT_TRUE(reparsed.ok()) << PrintQuery(spec);
  EXPECT_EQ(reparsed->where->literal, 0.1 + 0.2);
  EXPECT_EQ(reparsed->precision, 1.0 / 3.0);
}

TEST(AggregateName, SpellsEachAggregate) {
  EXPECT_EQ(AggregateName(AggregateKind::kAvg), "AVG");
  EXPECT_EQ(AggregateName(AggregateKind::kSum), "SUM");
  EXPECT_EQ(AggregateName(AggregateKind::kCount), "COUNT");
  EXPECT_EQ(AggregateName(AggregateKind::kMedian), "MEDIAN");
  EXPECT_EQ(AggregateName(AggregateKind::kQuantile), "QUANTILE");
  EXPECT_EQ(AggregateName(AggregateKind::kHistogram), "HISTOGRAM");
}

TEST(MethodName, RoundTripNames) {
  EXPECT_EQ(MethodName(Method::kIsla), "isla");
  EXPECT_EQ(MethodName(Method::kIslaNonIid), "isla_noniid");
  EXPECT_EQ(MethodName(Method::kUniform), "uniform");
  EXPECT_EQ(MethodName(Method::kStratified), "stratified");
  EXPECT_EQ(MethodName(Method::kMv), "mv");
  EXPECT_EQ(MethodName(Method::kMvb), "mvb");
  EXPECT_EQ(MethodName(Method::kExact), "exact");
}

}  // namespace
}  // namespace engine
}  // namespace isla
