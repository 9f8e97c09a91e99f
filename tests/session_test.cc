// Unit tests for engine/session.h — the DDL + query session layer.

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "engine/session.h"
#include "storage/file_block.h"

namespace isla {
namespace engine {
namespace {

TEST(Session, CreateNormalTableAndQuery) {
  Session s;
  auto created = s.Execute(
      "CREATE TABLE sensors FROM NORMAL(100, 20) ROWS 1e7 BLOCKS 10 SEED 1");
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_NE(created->find("sensors"), std::string::npos);
  EXPECT_NE(created->find("10000000"), std::string::npos);

  auto answer =
      s.Execute("SELECT AVG(value) FROM sensors WITHIN 0.5");
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_NE(answer->find("AVG = "), std::string::npos);
  EXPECT_NE(answer->find("100."), std::string::npos);
}

TEST(Session, CreateExponentialAndUniform) {
  Session s;
  ASSERT_TRUE(
      s.Execute("CREATE TABLE e FROM EXPONENTIAL(0.1) ROWS 1e6 BLOCKS 4")
          .ok());
  ASSERT_TRUE(
      s.Execute("CREATE TABLE u FROM UNIFORM(1, 199) ROWS 1e6 BLOCKS 4")
          .ok());
  auto show = s.Execute("SHOW TABLES");
  ASSERT_TRUE(show.ok());
  EXPECT_NE(show->find("e"), std::string::npos);
  EXPECT_NE(show->find("u"), std::string::npos);
}

TEST(Session, SeedControlsData) {
  Session s;
  ASSERT_TRUE(
      s.Execute(
           "CREATE TABLE a FROM NORMAL(100, 20) ROWS 1e6 BLOCKS 2 SEED 7")
          .ok());
  auto table = s.catalog()->GetTable("a");
  ASSERT_TRUE(table.ok());
  auto col = (*table)->GetColumn("value");
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->num_rows(), 1'000'000u);
}

TEST(Session, DuplicateCreateFails) {
  Session s;
  ASSERT_TRUE(
      s.Execute("CREATE TABLE t FROM NORMAL(0, 1) ROWS 100 BLOCKS 2").ok());
  auto dup =
      s.Execute("CREATE TABLE t FROM NORMAL(0, 1) ROWS 100 BLOCKS 2");
  EXPECT_FALSE(dup.ok());
}

TEST(Session, DropTable) {
  Session s;
  ASSERT_TRUE(
      s.Execute("CREATE TABLE t FROM NORMAL(0, 1) ROWS 100 BLOCKS 2").ok());
  auto dropped = s.Execute("DROP TABLE t");
  ASSERT_TRUE(dropped.ok());
  EXPECT_TRUE(s.Execute("DROP TABLE t").status().IsNotFound());
  auto show = s.Execute("SHOW TABLES");
  ASSERT_TRUE(show.ok());
  EXPECT_EQ(*show, "(no tables)");
}

TEST(Session, DescribeListsBlocks) {
  Session s;
  ASSERT_TRUE(
      s.Execute("CREATE TABLE t FROM NORMAL(5, 1) ROWS 1000 BLOCKS 3").ok());
  auto desc = s.Execute("DESCRIBE t");
  ASSERT_TRUE(desc.ok());
  EXPECT_NE(desc->find("1000 rows in 3 blocks"), std::string::npos);
  EXPECT_NE(desc->find("gen["), std::string::npos);
}

TEST(Session, CreateFromFiles) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "isla_session_test";
  fs::create_directories(dir);
  std::vector<double> a = {1.0, 2.0, 3.0};
  std::vector<double> b = {4.0, 5.0};
  std::string pa = (dir / "a.islb").string();
  std::string pb = (dir / "b.islb").string();
  ASSERT_TRUE(storage::WriteBlockFile(pa, a).ok());
  ASSERT_TRUE(storage::WriteBlockFile(pb, b).ok());

  Session s;
  auto created = s.Execute("CREATE TABLE f FROM FILES('" + pa + "', '" + pb +
                           "')");
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_NE(created->find("5 rows"), std::string::npos);

  auto exact = s.Execute("SELECT AVG(value) FROM f USING exact");
  ASSERT_TRUE(exact.ok());
  EXPECT_NE(exact->find("3.0000"), std::string::npos);
  fs::remove_all(dir);
}

TEST(Session, CreateFromMissingFileFails) {
  Session s;
  EXPECT_FALSE(
      s.Execute("CREATE TABLE f FROM FILES('/nope/missing.islb')").ok());
}

TEST(Session, RejectsMalformedStatements) {
  Session s;
  EXPECT_FALSE(s.Execute("").ok());
  EXPECT_FALSE(s.Execute("FROB TABLE t").ok());
  EXPECT_FALSE(s.Execute("CREATE TABLE").ok());
  EXPECT_FALSE(s.Execute("CREATE TABLE t FROM GAUSSIAN(1,2) ROWS 10 "
                         "BLOCKS 2")
                   .ok());
  EXPECT_FALSE(
      s.Execute("CREATE TABLE t FROM NORMAL(1) ROWS 10 BLOCKS 2").ok());
  EXPECT_FALSE(
      s.Execute("CREATE TABLE t FROM NORMAL(1, 2) ROWS 1 BLOCKS 5").ok());
  EXPECT_FALSE(
      s.Execute("CREATE TABLE t FROM NORMAL(1, 2) ROWS 10 BLOCKS 2 junk")
          .ok());
}

TEST(Session, ShowRejectsUnknownTargets) {
  // SHOW answers only TABLES, SETTINGS and STATS; anything else is an
  // error naming the target, not a silent table list. SHOW SERVER STATS
  // belongs to the query server, which answers it before a session sees it.
  Session s;
  EXPECT_TRUE(s.Execute("show tables;").ok());
  for (const char* statement : {"SHOW BOGUS", "SHOW SERVER STATS"}) {
    auto shown = s.Execute(statement);
    ASSERT_FALSE(shown.ok()) << statement;
    EXPECT_TRUE(shown.status().IsInvalidArgument()) << shown.status();
    EXPECT_NE(shown.status().message().find(std::string(statement).substr(5)),
              std::string::npos)
        << shown.status();
  }
}

TEST(Session, RejectsBadDistributionParams) {
  Session s;
  EXPECT_FALSE(
      s.Execute("CREATE TABLE t FROM NORMAL(0, -1) ROWS 10 BLOCKS 2").ok());
  EXPECT_FALSE(
      s.Execute("CREATE TABLE t FROM EXPONENTIAL(0) ROWS 10 BLOCKS 2").ok());
  EXPECT_FALSE(
      s.Execute("CREATE TABLE t FROM UNIFORM(5, 5) ROWS 10 BLOCKS 2").ok());
}

TEST(Session, SelectWithMethodAndSum) {
  Session s;
  ASSERT_TRUE(
      s.Execute("CREATE TABLE t FROM NORMAL(50, 5) ROWS 1e6 BLOCKS 4").ok());
  auto sum = s.Execute("SELECT SUM(value) FROM t WITHIN 0.5");
  ASSERT_TRUE(sum.ok());
  EXPECT_NE(sum->find("SUM = "), std::string::npos);
  auto us = s.Execute("SELECT AVG(value) FROM t WITHIN 0.5 USING uniform");
  ASSERT_TRUE(us.ok());
  EXPECT_NE(us->find("method=uniform"), std::string::npos);
}

TEST(Session, GroupsClauseAddsAlignedKeyColumn) {
  Session s;
  ASSERT_TRUE(
      s.Execute("CREATE TABLE t FROM NORMAL(50, 5) ROWS 1e5 BLOCKS 4 "
                "SEED 3 GROUPS 3")
          .ok());
  auto desc = s.Execute("DESCRIBE t");
  ASSERT_TRUE(desc.ok());
  EXPECT_NE(desc->find("grp"), std::string::npos) << *desc;

  auto grouped = s.Execute(
      "SELECT AVG(value) FROM t WHERE value >= 50 GROUP BY grp WITHIN 0.5");
  ASSERT_TRUE(grouped.ok()) << grouped.status();
  EXPECT_NE(grouped->find("3 group(s)"), std::string::npos) << *grouped;
  EXPECT_NE(grouped->find("grp=0"), std::string::npos) << *grouped;
  EXPECT_NE(grouped->find("count~"), std::string::npos) << *grouped;

  auto count = s.Execute("SELECT COUNT(value) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_NE(count->find("COUNT = 100000"), std::string::npos) << *count;
}

TEST(Session, SketchAggregatesRenderRankBands) {
  Session s;
  ASSERT_TRUE(
      s.Execute("CREATE TABLE t FROM NORMAL(100, 10) ROWS 1e5 BLOCKS 4 "
                "SEED 5 GROUPS 3")
          .ok());

  auto median = s.Execute("SELECT MEDIAN(value) FROM t");
  ASSERT_TRUE(median.ok()) << median.status();
  EXPECT_NE(median->find("MEDIAN = "), std::string::npos) << *median;
  EXPECT_NE(median->find("rank +/- "), std::string::npos) << *median;
  EXPECT_NE(median->find("value in ["), std::string::npos) << *median;

  auto quant = s.Execute("SELECT QUANTILE(value, 0.9) FROM t GROUP BY grp");
  ASSERT_TRUE(quant.ok()) << quant.status();
  EXPECT_NE(quant->find("3 group(s)"), std::string::npos) << *quant;
  EXPECT_NE(quant->find("rank +/- "), std::string::npos) << *quant;

  auto hist = s.Execute("SELECT HISTOGRAM(value, 8) FROM t");
  ASSERT_TRUE(hist.ok()) << hist.status();
  EXPECT_NE(hist->find("bins:"), std::string::npos) << *hist;
  EXPECT_NE(hist->find("range ["), std::string::npos) << *hist;
}

TEST(Session, TopKGroupsReportPreCutTotal) {
  Session s;
  ASSERT_TRUE(
      s.Execute("CREATE TABLE t FROM NORMAL(100, 10) ROWS 1e5 BLOCKS 4 "
                "SEED 5 GROUPS 4")
          .ok());
  auto top = s.Execute("SELECT AVG(value) FROM t GROUP BY grp TOP 2");
  ASSERT_TRUE(top.ok()) << top.status();
  EXPECT_NE(top->find("top 2 of 4 group(s)"), std::string::npos) << *top;
}

TEST(Session, GroupsClauseValidatesCardinality) {
  Session s;
  EXPECT_FALSE(
      s.Execute("CREATE TABLE t FROM NORMAL(1, 1) ROWS 100 BLOCKS 2 GROUPS 0")
          .ok());
  EXPECT_FALSE(
      s.Execute(
           "CREATE TABLE t FROM NORMAL(1, 1) ROWS 100 BLOCKS 2 GROUPS 9999")
          .ok());
}

TEST(Session, DuplicateSeedOrGroupsClausesAreRejected) {
  Session s;
  EXPECT_FALSE(
      s.Execute(
           "CREATE TABLE t FROM NORMAL(1, 1) ROWS 100 BLOCKS 2 SEED 1 SEED 2")
          .ok());
  EXPECT_FALSE(s.Execute("CREATE TABLE t FROM NORMAL(1, 1) ROWS 100 BLOCKS "
                         "2 GROUPS 3 GROUPS 5")
                   .ok());
}

TEST(Session, SelectMissingTableFails) {
  Session s;
  EXPECT_TRUE(
      s.Execute("SELECT AVG(value) FROM ghost").status().IsNotFound());
}

TEST(Session, DescribeMissingTableFails) {
  Session s;
  EXPECT_TRUE(s.Execute("DESCRIBE ghost").status().IsNotFound());
}

TEST(Session, SetRetunesOptionsAndValidatesAsAWhole) {
  Session s;
  EXPECT_EQ(s.options().precision, 0.1);
  ASSERT_TRUE(s.Execute("SET precision 0.5").ok());
  EXPECT_EQ(s.options().precision, 0.5);
  ASSERT_TRUE(s.Execute("SET parallelism 2").ok());
  EXPECT_EQ(s.options().parallelism, 2u);

  // Invalid values are rejected and leave the previous settings intact.
  EXPECT_TRUE(s.Execute("SET confidence 7").status().IsInvalidArgument());
  EXPECT_EQ(s.options().confidence, 0.95);
  EXPECT_TRUE(s.Execute("SET nonsense 1").status().IsInvalidArgument());
  EXPECT_TRUE(s.Execute("SET precision 0.2 junk")
                  .status()
                  .IsInvalidArgument());
  EXPECT_EQ(s.options().precision, 0.5);

  auto settings = s.Execute("SHOW SETTINGS");
  ASSERT_TRUE(settings.ok());
  EXPECT_NE(settings->find("precision = 0.5"), std::string::npos);
  EXPECT_NE(settings->find("parallelism = 2"), std::string::npos);
}

TEST(Session, SetRejectsOutOfRangeUnsignedValues) {
  // Remote clients reach SET through the query server, and a double →
  // unsigned cast is UB out of range — these must be rejected before the
  // cast, not crash the sanitized build.
  Session s;
  EXPECT_TRUE(
      s.Execute("SET parallelism -1").status().IsInvalidArgument());
  EXPECT_TRUE(
      s.Execute("SET parallelism 1e10").status().IsInvalidArgument());
  EXPECT_TRUE(s.Execute("SET seed -3").status().IsInvalidArgument());
  EXPECT_TRUE(s.Execute("SET seed 1e30").status().IsInvalidArgument());
  EXPECT_TRUE(s.Execute("SET pilot -1").status().IsInvalidArgument());
  EXPECT_TRUE(
      s.Execute("CREATE TABLE t FROM NORMAL(1, 1) ROWS 100 BLOCKS 2 "
                "SEED -5")
          .status()
          .IsInvalidArgument());
  EXPECT_TRUE(
      s.Execute("CREATE TABLE t FROM NORMAL(1, 1) ROWS 1e300 BLOCKS 2")
          .status()
          .IsInvalidArgument());
  // Still healthy afterwards.
  EXPECT_TRUE(s.Execute("SET seed 12345").ok());
}

TEST(Session, SetPrecisionBecomesTheSelectDefault) {
  Session s;
  ASSERT_TRUE(
      s.Execute("CREATE TABLE t FROM NORMAL(100, 20) ROWS 1e5 BLOCKS 2")
          .ok());
  ASSERT_TRUE(s.Execute("SET precision 0.7").ok());
  // No WITHIN clause: the session default applies and is echoed in the
  // engine diagnostics line.
  auto r = s.Execute("SELECT AVG(value) FROM t");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NE(r->find("precision=+/-0.7"), std::string::npos) << *r;
  // An explicit WITHIN still wins.
  r = s.Execute("SELECT AVG(value) FROM t WITHIN 0.9");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->find("precision=+/-0.9"), std::string::npos) << *r;
}

TEST(Session, SetRejectsFractionsForWholeNumberOptions) {
  // The grammar reads SET values as numbers; parallelism, stream and pilot
  // are counts, so a fraction is an error and not a silent truncation.
  Session s;
  auto before = s.Execute("SHOW SETTINGS");
  ASSERT_TRUE(before.ok()) << before.status();
  for (const char* statement :
       {"SET parallelism 2.7", "SET stream 1.9", "SET pilot 10.5"}) {
    EXPECT_TRUE(s.Execute(statement).status().IsInvalidArgument())
        << statement;
  }
  auto after = s.Execute("SHOW SETTINGS");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(*after, *before);
}

TEST(Session, StreamingAppliesOnlyToAvgAndSum) {
  // The online ladder refines an AVG-shaped estimate. The sketch aggregates
  // keep their own single-shot answer and rank band under SET stream
  // instead of printing the streamed AVG under their name.
  Session s;
  ASSERT_TRUE(
      s.Execute("CREATE TABLE t FROM EXPONENTIAL(0.1) ROWS 1e6 BLOCKS 4 "
                "SEED 3")
          .ok());
  ASSERT_TRUE(s.Execute("SET stream 3").ok());
  for (const char* statement :
       {"SELECT MEDIAN(value) FROM t WITHIN 0.05",
        "SELECT QUANTILE(value, 0.9) FROM t WITHIN 0.05",
        "SELECT HISTOGRAM(value, 4) FROM t WITHIN 0.05"}) {
    auto r = s.Execute(statement);
    ASSERT_TRUE(r.ok()) << statement << ": " << r.status();
    EXPECT_NE(r->find("rank +/- "), std::string::npos) << *r;
    EXPECT_EQ(r->find("rounds="), std::string::npos) << *r;
  }
  auto avg = s.Execute("SELECT AVG(value) FROM t WITHIN 0.05");
  ASSERT_TRUE(avg.ok()) << avg.status();
  EXPECT_NE(avg->find("rounds=3"), std::string::npos) << *avg;
}

}  // namespace
}  // namespace engine
}  // namespace isla
