// Expression-syntax parsers: --where / --agg / --order-by text into the
// typed plan structs, with column/type resolution errors surfaced as
// categorized QueryErrors, and `block` literals parsed as prefixes.
#include "cellspot/query/plan.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cellspot/core/classifier.hpp"
#include "cellspot/exec/executor.hpp"
#include "cellspot/query/engine.hpp"
#include "cellspot/query/source.hpp"

namespace cellspot::query {
namespace {

Table SampleTable() {
  TableBuilder b;
  const std::size_t u = b.AddColumn("u", ColumnType::kU64);
  const std::size_t f = b.AddColumn("f", ColumnType::kF64);
  const std::size_t s = b.AddColumn("s", ColumnType::kStr);
  b.AppendU64(u, 1);
  b.AppendF64(f, 0.5);
  b.AppendStr(s, "DE");
  return b.Finish();
}

template <typename Fn>
QueryErrorCode CodeOf(Fn fn) {
  try {
    fn();
  } catch (const QueryError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected QueryError";
  return QueryErrorCode::kBadPlan;
}

TEST(ParseFilter, EachOperator) {
  const Table t = SampleTable();
  struct Case {
    const char* expr;
    CompareOp op;
  };
  for (const Case& c : std::vector<Case>{{"u=5", CompareOp::kEq},
                                         {"u!=5", CompareOp::kNe},
                                         {"u<5", CompareOp::kLt},
                                         {"u<=5", CompareOp::kLe},
                                         {"u>5", CompareOp::kGt},
                                         {"u>=5", CompareOp::kGe}}) {
    const Filter f = ParseFilterExpr(c.expr, t);
    EXPECT_EQ(f.op, c.op) << c.expr;
    EXPECT_EQ(f.column, "u");
    EXPECT_EQ(f.value.type, ColumnType::kU64);
    EXPECT_EQ(f.value.u64, 5u);
  }
}

TEST(ParseFilter, LiteralTypedByColumn) {
  const Table t = SampleTable();
  const Filter f = ParseFilterExpr("f>=0.25", t);
  EXPECT_EQ(f.value.type, ColumnType::kF64);
  EXPECT_DOUBLE_EQ(f.value.f64, 0.25);

  const Filter s = ParseFilterExpr("s!=DE", t);
  EXPECT_EQ(s.op, CompareOp::kNe);
  EXPECT_EQ(s.value.type, ColumnType::kStr);
  EXPECT_EQ(s.value.str, "DE");

  // Empty string literal is legal for str columns ("country!=" keeps
  // only rows with a resolved country).
  const Filter empty = ParseFilterExpr("s!=", t);
  EXPECT_EQ(empty.value.str, "");
}

TEST(ParseFilter, TrimsWhitespace) {
  const Table t = SampleTable();
  const Filter f = ParseFilterExpr("  u  <=  10 ", t);
  EXPECT_EQ(f.column, "u");
  EXPECT_EQ(f.op, CompareOp::kLe);
  EXPECT_EQ(f.value.u64, 10u);
}

TEST(ParseFilter, Errors) {
  const Table t = SampleTable();
  EXPECT_EQ(CodeOf([&] { (void)ParseFilterExpr("u", t); }),
            QueryErrorCode::kBadExpression);
  EXPECT_EQ(CodeOf([&] { (void)ParseFilterExpr("=5", t); }),
            QueryErrorCode::kBadExpression);
  EXPECT_EQ(CodeOf([&] { (void)ParseFilterExpr("nope=1", t); }),
            QueryErrorCode::kUnknownColumn);
  EXPECT_EQ(CodeOf([&] { (void)ParseFilterExpr("u=abc", t); }),
            QueryErrorCode::kTypeMismatch);
  EXPECT_EQ(CodeOf([&] { (void)ParseFilterExpr("f=1e", t); }),
            QueryErrorCode::kTypeMismatch);
  // Ordering comparisons are meaningless on dictionary-coded strings.
  EXPECT_EQ(CodeOf([&] { (void)ParseFilterExpr("s<x", t); }),
            QueryErrorCode::kTypeMismatch);
}

TEST(ParseAggregate, Kinds) {
  const Table t = SampleTable();
  EXPECT_EQ(ParseAggregateExpr("count()", t).kind, AggKind::kCount);
  const Aggregate sum = ParseAggregateExpr("sum(f)", t);
  EXPECT_EQ(sum.kind, AggKind::kSum);
  EXPECT_EQ(sum.column, "f");
  EXPECT_EQ(sum.OutputName(), "sum(f)");
  EXPECT_EQ(ParseAggregateExpr("mean(u)", t).kind, AggKind::kMean);
  EXPECT_EQ(ParseAggregateExpr("min(f)", t).kind, AggKind::kMin);
  EXPECT_EQ(ParseAggregateExpr("max(u)", t).kind, AggKind::kMax);
  const Aggregate q = ParseAggregateExpr("quantile(f,0.9)", t);
  EXPECT_EQ(q.kind, AggKind::kQuantile);
  EXPECT_DOUBLE_EQ(q.q, 0.9);
  EXPECT_EQ(q.OutputName(), "quantile(f,0.90)");
}

TEST(ParseAggregate, Errors) {
  const Table t = SampleTable();
  EXPECT_EQ(CodeOf([&] { (void)ParseAggregateExpr("sum", t); }),
            QueryErrorCode::kBadExpression);
  EXPECT_EQ(CodeOf([&] { (void)ParseAggregateExpr("sum()", t); }),
            QueryErrorCode::kBadExpression);
  EXPECT_EQ(CodeOf([&] { (void)ParseAggregateExpr("sum(f,1)", t); }),
            QueryErrorCode::kBadExpression);
  EXPECT_EQ(CodeOf([&] { (void)ParseAggregateExpr("count(f)", t); }),
            QueryErrorCode::kBadExpression);
  EXPECT_EQ(CodeOf([&] { (void)ParseAggregateExpr("frob(f)", t); }),
            QueryErrorCode::kBadExpression);
  EXPECT_EQ(CodeOf([&] { (void)ParseAggregateExpr("quantile(f)", t); }),
            QueryErrorCode::kBadExpression);
  EXPECT_EQ(CodeOf([&] { (void)ParseAggregateExpr("quantile(f,1.5)", t); }),
            QueryErrorCode::kBadExpression);
  EXPECT_EQ(CodeOf([&] { (void)ParseAggregateExpr("quantile(f,0)", t); }),
            QueryErrorCode::kBadExpression);
  EXPECT_EQ(CodeOf([&] { (void)ParseAggregateExpr("sum(nope)", t); }),
            QueryErrorCode::kUnknownColumn);
  EXPECT_EQ(CodeOf([&] { (void)ParseAggregateExpr("sum(s)", t); }),
            QueryErrorCode::kTypeMismatch);
}

TEST(ParseOrderBy, Directions) {
  EXPECT_FALSE(ParseOrderByExpr("c").descending);
  EXPECT_FALSE(ParseOrderByExpr("c:asc").descending);
  EXPECT_TRUE(ParseOrderByExpr("c:desc").descending);
  EXPECT_EQ(ParseOrderByExpr(" c : desc ").column, "c");
  EXPECT_EQ(CodeOf([] { (void)ParseOrderByExpr("c:up"); }),
            QueryErrorCode::kBadExpression);
  EXPECT_EQ(CodeOf([] { (void)ParseOrderByExpr(":desc"); }),
            QueryErrorCode::kBadExpression);
  EXPECT_EQ(CodeOf([] { (void)ParseOrderByExpr(""); }),
            QueryErrorCode::kBadExpression);
}

TEST(SplitTopLevelFn, RespectsParens) {
  const auto fields = SplitTopLevel("sum(a),quantile(b,0.5), count() ", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "sum(a)");
  EXPECT_EQ(fields[1], "quantile(b,0.5)");
  EXPECT_EQ(fields[2], "count()");
}

/// Rows of the joined demand table whose block matches `--where expr`.
std::size_t CountWhere(const Table& table, const std::string& expr) {
  Plan plan;
  plan.filters.push_back(ParseFilterExpr(expr, table));
  return Engine(table).Run(plan).row_count();
}

TEST(QueryPlan, BlockLiteralsParseAsPrefixes) {
  dataset::BeaconDataset beacons;
  dataset::DemandDataset demand;
  for (const char* block : {"1.0.0.0/24", "9.0.0.0/24", "2400::/48", "2400:0:a::/48"}) {
    beacons.Add(netaddr::Prefix::Parse(block), {.hits = 4, .netinfo_hits = 2,
                                                .cellular_labels = 1, .wifi_labels = 1});
    demand.Add(netaddr::Prefix::Parse(block), 1.0);
  }
  const core::ClassifiedSubnets classified = core::SubnetClassifier().Classify(beacons);
  ArtifactRefs refs;  // the `cellspot report` shape: no RIB, AS records or filter
  refs.beacons = &beacons;
  refs.demand = &demand;
  refs.classified = &classified;
  exec::Executor executor(2);
  const TableSet tables = BuildTables(refs, executor);
  const Table& t = tables.demand;

  // Any spelling of the same prefix matches its row.
  EXPECT_EQ(CountWhere(t, "block=2400::/48"), 1u);
  EXPECT_EQ(CountWhere(t, "block=2400:0000::/48"), 1u);
  EXPECT_EQ(CountWhere(t, "block=2400:0:0:0:0:0:0:0/48"), 1u);
  EXPECT_EQ(CountWhere(t, "block=2400:0:a::/48"), 1u);
  EXPECT_EQ(CountWhere(t, "block=2400:0:A::/48"), 1u);
  EXPECT_EQ(CountWhere(t, "block = 1.0.0.0/24"), 1u);
  EXPECT_EQ(CountWhere(t, "block!=1.0.0.0/24"), 3u);
  EXPECT_EQ(CountWhere(t, "block=1.0.0.0/25"), 0u);
  EXPECT_EQ(CountWhere(t, "block=2.0.0.0/24"), 0u);

  // Not a prefix, or host bits set: a type mismatch, not zero rows.
  for (const char* expr : {"block=banana", "block=1.0.0.7/24", "block=2400::1/48",
                           "block=1.0.0.0", "block=1.0.0.0/33", "block=", "block!=banana"}) {
    EXPECT_EQ(CodeOf([&] { (void)ParseFilterExpr(expr, t); }), QueryErrorCode::kTypeMismatch)
        << expr;
  }
  // Ordering comparisons stay rejected, as for strings.
  for (const char* expr : {"block<1.0.0.0/24", "block<=1.0.0.0/24", "block>1.0.0.0/24",
                           "block>=1.0.0.0/24"}) {
    EXPECT_EQ(CodeOf([&] { (void)ParseFilterExpr(expr, t); }), QueryErrorCode::kTypeMismatch)
        << expr;
  }
  EXPECT_EQ(CodeOf([&] { (void)ParseAggregateExpr("sum(block)", t); }),
            QueryErrorCode::kTypeMismatch);
}

TEST(SplitTopLevelFn, DropsEmptyFieldsAndTrims) {
  const auto fields = SplitTopLevel(" a , b ,, ", ',');
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b");
  EXPECT_TRUE(SplitTopLevel("", ',').empty());
}

}  // namespace
}  // namespace cellspot::query
