#include "engine/query.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <utility>
#include <vector>

namespace isla {
namespace engine {

std::string_view MethodName(Method m) {
  switch (m) {
    case Method::kIsla:
      return "isla";
    case Method::kIslaNonIid:
      return "isla_noniid";
    case Method::kUniform:
      return "uniform";
    case Method::kStratified:
      return "stratified";
    case Method::kMv:
      return "mv";
    case Method::kMvb:
      return "mvb";
    case Method::kExact:
      return "exact";
  }
  return "?";
}

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

namespace {

/// 2^64 as a double: the first value a uint64_t cannot hold. Note that
/// static_cast<double>(UINT64_MAX) rounds up to it.
constexpr double kTwoTo64 = 18446744073709551616.0;

template <typename T>
using Keyword = std::pair<std::string_view, T>;

constexpr Keyword<AggregateKind> kAggregates[] = {
    {"avg", AggregateKind::kAvg},
    {"sum", AggregateKind::kSum},
    {"count", AggregateKind::kCount},
    {"median", AggregateKind::kMedian},  // q keeps its default, 0.5
    {"quantile", AggregateKind::kQuantile},
    {"histogram", AggregateKind::kHistogram},
};

constexpr Keyword<core::PredicateOp> kOperators[] = {
    {"=", core::PredicateOp::kEq},  {"==", core::PredicateOp::kEq},
    {"!=", core::PredicateOp::kNe}, {"<>", core::PredicateOp::kNe},
    {"<", core::PredicateOp::kLt},  {"<=", core::PredicateOp::kLe},
    {">", core::PredicateOp::kGt},  {">=", core::PredicateOp::kGe},
};

constexpr Keyword<Method> kMethods[] = {
    {"isla", Method::kIsla},         {"isla_noniid", Method::kIslaNonIid},
    {"noniid", Method::kIslaNonIid}, {"uniform", Method::kUniform},
    {"us", Method::kUniform},        {"stratified", Method::kStratified},
    {"sts", Method::kStratified},    {"mv", Method::kMv},
    {"mvb", Method::kMvb},           {"exact", Method::kExact},
};

constexpr Keyword<ShowStatement::Target> kShowTargets[] = {
    {"tables", ShowStatement::Target::kTables},
    {"settings", ShowStatement::Target::kSettings},
    {"stats", ShowStatement::Target::kStats},
    {"server", ShowStatement::Target::kServerStats},  // SERVER STATS
};

struct Token {
  std::string text;   // lower-cased for keywords/identifiers
  std::string raw;    // original spelling
  size_t position;
  bool is_string = false;  // quoted literal
};

Status ErrorAt(const std::string& what, size_t pos) {
  return Status::InvalidArgument(what + " (at offset " + std::to_string(pos) +
                                 ")");
}

bool IsOperatorChar(char c) {
  return c == '=' || c == '<' || c == '>' || c == '!';
}

std::string Lowered(std::string s) {
  for (char& ch : s) {
    ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  }
  return s;
}

/// Splits on whitespace; '(' ')' ',' ';' are standalone tokens, comparison
/// operators (= != <> < <= > >=) form maximal operator tokens, and quoted
/// literals ('...' or "...") become string tokens. An unterminated quote is
/// a tokenizer error.
Result<std::vector<Token>> Tokenize(std::string_view sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < sql.size()) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '(' || c == ')' || c == ',' || c == ';') {
      tokens.push_back({std::string(1, c), std::string(1, c), i, false});
      ++i;
      continue;
    }
    if (c == '\'' || c == '"') {
      size_t end = sql.find(c, i + 1);
      if (end == std::string_view::npos) {
        return ErrorAt("unterminated string literal", i);
      }
      std::string body(sql.substr(i + 1, end - i - 1));
      tokens.push_back({body, body, i, true});
      i = end + 1;
      continue;
    }
    if (IsOperatorChar(c)) {
      size_t start = i;
      ++i;
      if (i < sql.size() && IsOperatorChar(sql[i])) ++i;
      std::string op(sql.substr(start, i - start));
      tokens.push_back({op, op, start, false});
      continue;
    }
    size_t start = i;
    while (i < sql.size()) {
      char d = sql[i];
      if (std::isspace(static_cast<unsigned char>(d)) || d == '(' ||
          d == ')' || d == ',' || d == ';' || d == '\'' || d == '"' ||
          IsOperatorChar(d)) {
        break;
      }
      ++i;
    }
    std::string raw(sql.substr(start, i - start));
    tokens.push_back({Lowered(raw), std::move(raw), start, false});
  }
  return tokens;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  /// Any statement, dispatched on its first keyword.
  Result<Statement> Run(const QueryDefaults& defaults) {
    const Token* head = Peek();
    if (head == nullptr) return ErrorAt("empty statement", 0);
    if (Accept("create")) return CreateTable();
    if (Accept("drop")) {
      DropTableStatement drop;
      ISLA_RETURN_NOT_OK(Expect("table"));
      ISLA_ASSIGN_OR_RETURN(drop.table, Identifier("table name"));
      ISLA_RETURN_NOT_OK(ExpectEnd());
      return Statement(std::move(drop));
    }
    if (Accept("describe") || Accept("desc")) {
      DescribeStatement describe;
      ISLA_ASSIGN_OR_RETURN(describe.table, Identifier("table name"));
      ISLA_RETURN_NOT_OK(ExpectEnd());
      return Statement(std::move(describe));
    }
    if (Accept("show")) return Show();
    if (Accept("set")) {
      SetStatement set;
      ISLA_ASSIGN_OR_RETURN(std::string option, Identifier("option name"));
      set.option = Lowered(std::move(option));
      ISLA_ASSIGN_OR_RETURN(set.value, Number("option value"));
      ISLA_RETURN_NOT_OK(ExpectEnd());
      return Statement(std::move(set));
    }
    if (head->is_string || head->text != "select") {
      return ErrorAt("unknown statement '" + head->raw + "'", head->position);
    }
    ISLA_ASSIGN_OR_RETURN(QuerySpec spec, Select(defaults));
    return Statement(std::move(spec));
  }

  Result<QuerySpec> Select(const QueryDefaults& defaults) {
    QuerySpec spec;
    spec.precision = defaults.precision;
    spec.confidence = defaults.confidence;
    spec.method = defaults.method;
    ISLA_RETURN_NOT_OK(Expect("select"));

    ISLA_ASSIGN_OR_RETURN(
        spec.aggregate,
        OneOf(kAggregates, "AVG, SUM, COUNT, MEDIAN, QUANTILE or HISTOGRAM"));
    ISLA_RETURN_NOT_OK(Expect("("));
    ISLA_ASSIGN_OR_RETURN(spec.column, Identifier("column name"));
    if (spec.aggregate == AggregateKind::kQuantile) {
      ISLA_RETURN_NOT_OK(Expect(","));
      const size_t at = Position();
      ISLA_ASSIGN_OR_RETURN(spec.quantile_q, Number("quantile q"));
      if (!(spec.quantile_q >= 0.0 && spec.quantile_q <= 1.0)) {
        return ErrorAt("quantile q must be in [0, 1]", at);
      }
    } else if (spec.aggregate == AggregateKind::kHistogram) {
      ISLA_RETURN_NOT_OK(Expect(","));
      ISLA_ASSIGN_OR_RETURN(spec.histogram_bins,
                            Integer("histogram bin count", 1, 1024));
    }
    ISLA_RETURN_NOT_OK(Expect(")"));

    ISLA_RETURN_NOT_OK(Expect("from"));
    ISLA_ASSIGN_OR_RETURN(spec.table, Identifier("table name"));

    // Optional clauses in any order, each at most once.
    bool seen_where = false, seen_group = false, seen_within = false,
         seen_confidence = false, seen_using = false;
    while (const Token* t = Peek()) {
      if (t->text == ";") {
        Advance();
        continue;
      }
      if (t->text == "where") {
        if (seen_where) return ErrorAt("duplicate WHERE clause", t->position);
        seen_where = true;
        Advance();
        PredicateClause where;
        ISLA_ASSIGN_OR_RETURN(where.column, Identifier("predicate column"));
        ISLA_ASSIGN_OR_RETURN(
            where.op,
            OneOf(kOperators, "a comparison operator (= != <> < <= > >=)"));
        ISLA_ASSIGN_OR_RETURN(where.literal, Number("predicate literal"));
        spec.where = std::move(where);
        continue;
      }
      if (t->text == "group") {
        if (seen_group) {
          return ErrorAt("duplicate GROUP BY clause", t->position);
        }
        seen_group = true;
        Advance();
        ISLA_RETURN_NOT_OK(Expect("by"));
        ISLA_ASSIGN_OR_RETURN(spec.group_by, Identifier("group column"));
        if (Accept("top")) {
          ISLA_ASSIGN_OR_RETURN(
              spec.top_k, Integer("TOP group count", 1, core::kMaxGroups));
        }
        continue;
      }
      if (t->text == "within") {
        if (seen_within) {
          return ErrorAt("duplicate WITHIN clause", t->position);
        }
        seen_within = true;
        Advance();
        ISLA_ASSIGN_OR_RETURN(spec.precision, Number("precision"));
        if (!(spec.precision > 0.0)) {
          return ErrorAt("precision must be > 0", t->position);
        }
        continue;
      }
      if (t->text == "confidence") {
        if (seen_confidence) {
          return ErrorAt("duplicate CONFIDENCE clause", t->position);
        }
        seen_confidence = true;
        Advance();
        ISLA_ASSIGN_OR_RETURN(spec.confidence, Number("confidence"));
        if (!(spec.confidence > 0.0 && spec.confidence < 1.0)) {
          return ErrorAt("confidence must be in (0, 1)", t->position);
        }
        continue;
      }
      if (t->text == "using") {
        if (seen_using) return ErrorAt("duplicate USING clause", t->position);
        seen_using = true;
        Advance();
        ISLA_ASSIGN_OR_RETURN(
            spec.method,
            OneOf(kMethods, "a method (isla, isla_noniid, uniform, "
                            "stratified, mv, mvb or exact)"));
        continue;
      }
      return ErrorAt("unexpected token '" + t->raw + "'", t->position);
    }
    return spec;
  }

 private:
  Result<Statement> CreateTable() {
    using Source = CreateTableStatement::Source;
    CreateTableStatement create;
    ISLA_RETURN_NOT_OK(Expect("table"));
    ISLA_ASSIGN_OR_RETURN(create.table, Identifier("table name"));
    ISLA_RETURN_NOT_OK(Expect("from"));
    const size_t source_at = Position();
    if (Accept("files")) {
      create.source = Source::kFiles;
      ISLA_RETURN_NOT_OK(Expect("("));
      do {
        ISLA_ASSIGN_OR_RETURN(std::string path, Path());
        create.files.push_back(std::move(path));
      } while (Accept(","));
      ISLA_RETURN_NOT_OK(Expect(")"));
      ISLA_RETURN_NOT_OK(ExpectEnd());
      return Statement(std::move(create));
    }
    if (Accept("normal")) {
      create.source = Source::kNormal;
      ISLA_ASSIGN_OR_RETURN(create.params, Arguments({"mu", "sigma"}));
      if (!(create.params[1] > 0.0)) {
        return ErrorAt("sigma must be > 0", source_at);
      }
    } else if (Accept("exponential")) {
      create.source = Source::kExponential;
      ISLA_ASSIGN_OR_RETURN(create.params, Arguments({"gamma"}));
      if (!(create.params[0] > 0.0)) {
        return ErrorAt("gamma must be > 0", source_at);
      }
    } else if (Accept("uniform")) {
      create.source = Source::kUniform;
      ISLA_ASSIGN_OR_RETURN(create.params, Arguments({"lo", "hi"}));
      if (!(create.params[0] < create.params[1])) {
        return ErrorAt("need lo < hi", source_at);
      }
    } else {
      return Unexpected("NORMAL, EXPONENTIAL, UNIFORM or FILES");
    }
    ISLA_RETURN_NOT_OK(Expect("rows"));
    ISLA_ASSIGN_OR_RETURN(create.rows, Integer("row count", 1, UINT64_MAX));
    ISLA_RETURN_NOT_OK(Expect("blocks"));
    ISLA_ASSIGN_OR_RETURN(create.blocks,
                          Integer("block count", 1, create.rows));
    // SEED and GROUPS in either order, each at most once.
    for (;;) {
      const size_t at = Position();
      if (Accept("seed")) {
        if (create.seed.has_value()) {
          return ErrorAt("duplicate SEED clause", at);
        }
        ISLA_ASSIGN_OR_RETURN(create.seed, Integer("seed", 0, UINT64_MAX));
      } else if (Accept("groups")) {
        if (create.groups > 0) return ErrorAt("duplicate GROUPS clause", at);
        ISLA_ASSIGN_OR_RETURN(
            create.groups, Integer("group cardinality", 1, core::kMaxGroups));
      } else {
        break;
      }
    }
    ISLA_RETURN_NOT_OK(ExpectEnd());
    return Statement(std::move(create));
  }

  Result<Statement> Show() {
    ShowStatement show;
    ISLA_ASSIGN_OR_RETURN(
        show.target,
        OneOf(kShowTargets, "TABLES, SETTINGS, STATS or SERVER STATS"));
    if (show.target == ShowStatement::Target::kServerStats) {
      ISLA_RETURN_NOT_OK(Expect("stats"));
    }
    ISLA_RETURN_NOT_OK(ExpectEnd());
    return Statement(show);
  }

  const Token* Peek() const {
    return index_ < tokens_.size() ? &tokens_[index_] : nullptr;
  }
  void Advance() { ++index_; }
  size_t End() const {
    return tokens_.empty() ? 0 : tokens_.back().position + 1;
  }
  size_t Position() const {
    const Token* t = Peek();
    return t != nullptr ? t->position : End();
  }

  /// "expected <what>, got '<token>'" at the next token, or "expected
  /// <what>" at the end of the statement.
  Status Unexpected(std::string_view what) const {
    const Token* t = Peek();
    if (t == nullptr) return ErrorAt("expected " + std::string(what), End());
    return ErrorAt("expected " + std::string(what) + ", got '" + t->raw + "'",
                   t->position);
  }

  /// Consumes the next token if it is the unquoted `keyword`.
  bool Accept(std::string_view keyword) {
    const Token* t = Peek();
    if (t == nullptr || t->is_string || t->text != keyword) return false;
    Advance();
    return true;
  }

  Status Expect(std::string_view keyword) {
    if (Accept(keyword)) return Status::OK();
    return Unexpected("'" + std::string(keyword) + "'");
  }

  /// Optional trailing `;`s, then the end of the statement.
  Status ExpectEnd() {
    while (Accept(";")) {
    }
    const Token* t = Peek();
    if (t == nullptr) return Status::OK();
    return ErrorAt("unexpected token '" + t->raw + "'", t->position);
  }

  Result<std::string> Identifier(std::string_view what) {
    const Token* t = Peek();
    if (t != nullptr && t->is_string) {
      return ErrorAt("expected " + std::string(what) +
                         ", got a string literal",
                     t->position);
    }
    if (t == nullptr || t->text == "(" || t->text == ")" || t->text == "," ||
        t->text == ";" || IsOperatorChar(t->text[0])) {
      return Unexpected(what);
    }
    std::string out = t->raw;
    Advance();
    return out;
  }

  /// A file path: a quoted literal or a bare word.
  Result<std::string> Path() {
    const Token* t = Peek();
    if (t == nullptr || !t->is_string) return Identifier("file path");
    Advance();
    return t->raw;
  }

  /// The value of the next token's entry in `keywords`, consuming it.
  template <typename T, size_t N>
  Result<T> OneOf(const Keyword<T> (&keywords)[N], std::string_view what) {
    for (const auto& [keyword, value] : keywords) {
      if (Accept(keyword)) return value;
    }
    return Unexpected(what);
  }

  Result<double> Number(std::string_view what) {
    const Token* t = Peek();
    if (t == nullptr) return Unexpected(what);
    if (t->is_string) {
      return ErrorAt("string literals are not supported for " +
                         std::string(what) + " (columns are numeric)",
                     t->position);
    }
    double value = 0.0;
    const char* begin = t->raw.data();
    const char* end = begin + t->raw.size();
    auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc() || ptr != end) {
      return ErrorAt("expected a number for " + std::string(what) +
                         ", got '" + t->raw + "'",
                     t->position);
    }
    Advance();
    return value;
  }

  /// `(x1, ..., xn)`: one number per name in `names`.
  Result<std::vector<double>> Arguments(
      std::initializer_list<std::string_view> names) {
    std::vector<double> values;
    ISLA_RETURN_NOT_OK(Expect("("));
    for (std::string_view name : names) {
      if (!values.empty()) ISLA_RETURN_NOT_OK(Expect(","));
      ISLA_ASSIGN_OR_RETURN(double value, Number(name));
      values.push_back(value);
    }
    ISLA_RETURN_NOT_OK(Expect(")"));
    return values;
  }

  /// A whole number in [min, max]: parsed as a double (so 1e3 spellings
  /// work) but rejected when fractional or out of range. 2^64 itself is
  /// out of range even when max is UINT64_MAX, which rounds up to it.
  Result<uint64_t> Integer(std::string_view what, uint64_t min,
                           uint64_t max) {
    const size_t at = Position();
    ISLA_ASSIGN_OR_RETURN(double value, Number(what));
    if (!(value >= static_cast<double>(min) &&
          value <= static_cast<double>(max) && value < kTwoTo64) ||
        value != std::floor(value)) {
      return ErrorAt(std::string(what) + " must be a whole number in [" +
                         std::to_string(min) + ", " + std::to_string(max) +
                         "]",
                     at);
    }
    return static_cast<uint64_t>(value);
  }

  std::vector<Token> tokens_;
  size_t index_ = 0;
};

/// Shortest exact decimal rendering of a double (round-trips bit-for-bit).
std::string PrintDouble(double v) {
  char buf[32];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    double parsed = 0.0;
    auto [ptr, ec] = std::from_chars(buf, buf + std::strlen(buf), parsed);
    if (ec == std::errc() && ptr == buf + std::strlen(buf) && parsed == v) {
      break;
    }
  }
  return buf;
}

}  // namespace

Result<QuerySpec> ParseQuery(std::string_view sql) {
  return ParseQuery(sql, QueryDefaults{});
}

Result<QuerySpec> ParseQuery(std::string_view sql,
                             const QueryDefaults& defaults) {
  ISLA_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  return Parser(std::move(tokens)).Select(defaults);
}

Result<Statement> ParseStatement(std::string_view sql,
                                 const QueryDefaults& defaults) {
  ISLA_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  return Parser(std::move(tokens)).Run(defaults);
}

std::string PrintQuery(const QuerySpec& spec) {
  std::string out = "SELECT " + std::string(AggregateName(spec.aggregate));
  out += "(" + spec.column;
  if (spec.aggregate == AggregateKind::kQuantile) {
    out += ", " + PrintDouble(spec.quantile_q);
  } else if (spec.aggregate == AggregateKind::kHistogram) {
    out += ", " + std::to_string(spec.histogram_bins);
  }
  out += ") FROM " + spec.table;
  if (spec.where.has_value()) {
    out += " WHERE " + spec.where->column + " ";
    out += std::string(core::PredicateOpName(spec.where->op));
    out += " " + PrintDouble(spec.where->literal);
  }
  if (!spec.group_by.empty()) {
    out += " GROUP BY " + spec.group_by;
    if (spec.top_k > 0) out += " TOP " + std::to_string(spec.top_k);
  }
  out += " WITHIN " + PrintDouble(spec.precision);
  out += " CONFIDENCE " + PrintDouble(spec.confidence);
  out += " USING " + std::string(MethodName(spec.method));
  return out;
}

}  // namespace engine
}  // namespace isla
