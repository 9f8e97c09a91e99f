// isla_shell — an interactive REPL over the ISLA engine.
//
//   $ ./isla_shell
//   isla> CREATE TABLE sensors FROM NORMAL(100, 20) ROWS 1e9 BLOCKS 10 GROUPS 4
//   isla> SELECT AVG(value) FROM sensors WITHIN 0.1 CONFIDENCE 0.95
//   isla> SELECT AVG(value) FROM sensors WHERE value >= 100 GROUP BY grp WITHIN 0.5
//   isla> SELECT COUNT(value) FROM sensors WHERE value < 80
//   isla> DESCRIBE sensors
//   isla> help
//
// Reads statements line by line from stdin; also usable non-interactively:
//   $ echo "SHOW TABLES" | ./isla_shell

#include <cstdio>
#include <iostream>
#include <string>

#include "engine/session.h"

namespace {

constexpr char kHelp[] = R"(statements:
  CREATE TABLE t FROM NORMAL(mu, sigma) ROWS n BLOCKS b [SEED s] [GROUPS g]
  CREATE TABLE t FROM EXPONENTIAL(gamma) ROWS n BLOCKS b [SEED s] [GROUPS g]
  CREATE TABLE t FROM UNIFORM(lo, hi) ROWS n BLOCKS b [SEED s] [GROUPS g]
  CREATE TABLE t FROM FILES('a.islb', 'b.islb', ...)
  DROP TABLE t
  SHOW TABLES
  DESCRIBE t
  SELECT AVG(c)|SUM(c)|COUNT(c)|MEDIAN(c)|QUANTILE(c, q)|HISTOGRAM(c, k)
         FROM t [WHERE c (=|!=|<>|<|<=|>|>=) literal] [GROUP BY c [TOP k]]
         [WITHIN e] [CONFIDENCE b]
         [USING isla|isla_noniid|uniform|stratified|mv|mvb|exact]
  SET precision|confidence|parallelism|seed|pilot|rate_scale|stream v
  SHOW SETTINGS
  SHOW STATS
  GROUPS g adds a row-aligned key column 'grp' with keys {0..g-1};
  WHERE/GROUP BY/COUNT run the shared-scan grouped sampler with a
  per-group (e, b) precision contract. MEDIAN/QUANTILE/HISTOGRAM report
  a rank-error band; TOP k keeps the k largest groups. SET stream R
  answers plain AVG/SUM in R refining rounds. n, b, s, g, k and the
  parallelism/seed/pilot/stream values are whole numbers (1e6 is one).
  help | quit)";

}  // namespace

int main() {
  isla::engine::Session session;
  bool interactive = isatty(fileno(stdin));
  if (interactive) {
    std::printf("ISLA approximate aggregation shell — 'help' for syntax\n");
  }

  std::string line;
  while (true) {
    if (interactive) {
      std::printf("isla> ");
      std::fflush(stdout);
    }
    if (!std::getline(std::cin, line)) break;
    // Trim.
    size_t begin = line.find_first_not_of(" \t\r\n");
    if (begin == std::string::npos) continue;
    size_t end = line.find_last_not_of(" \t\r\n");
    std::string statement = line.substr(begin, end - begin + 1);

    if (statement == "quit" || statement == "exit") break;
    if (statement == "help") {
      std::printf("%s\n", kHelp);
      continue;
    }
    auto result = session.Execute(statement);
    if (result.ok()) {
      std::printf("%s\n", result->c_str());
    } else {
      std::printf("error: %s\n", result.status().ToString().c_str());
    }
  }
  return 0;
}
