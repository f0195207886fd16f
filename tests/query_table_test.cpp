// Columnar table invariants and engine core semantics on synthetic
// data: dictionary encoding, every filter operator, group-by aggregates,
// order/limit, projection, categorized plan errors, the prefix column
// through every stage, and byte-identical output at 1/2/8 threads.
#include "cellspot/query/engine.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cellspot/exec/executor.hpp"
#include "cellspot/netaddr/prefix.hpp"
#include "cellspot/query/plan.hpp"
#include "cellspot/query/table.hpp"
#include "cellspot/util/sink.hpp"

namespace cellspot::query {
namespace {

std::string RenderCsv(const Table& t) {
  std::stringstream out;
  const auto sink = util::MakeTableSink(util::TableFormat::kCsv, out);
  RenderTable(t, *sink);
  return out.str();
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

/// id = 0..n-1, val = (id % 7) * 0.5, tag cycles a/b/c.
Table SampleTable(std::size_t n = 12) {
  TableBuilder b;
  const std::size_t id = b.AddColumn("id", ColumnType::kU64);
  const std::size_t val = b.AddColumn("val", ColumnType::kF64);
  const std::size_t tag = b.AddColumn("tag", ColumnType::kStr);
  const char* tags[] = {"a", "b", "c"};
  for (std::size_t i = 0; i < n; ++i) {
    b.AppendU64(id, i);
    b.AppendF64(val, static_cast<double>(i % 7) * 0.5);
    b.AppendStr(tag, tags[i % 3]);
  }
  return b.Finish();
}

TEST(TableInvariants, DictionaryIsFirstAppearanceOrdered) {
  const Table t = SampleTable();
  const Column* tag = t.FindColumn("tag");
  ASSERT_NE(tag, nullptr);
  ASSERT_EQ(tag->dict.size(), 3u);
  EXPECT_EQ(tag->dict[0], "a");
  EXPECT_EQ(tag->dict[1], "b");
  EXPECT_EQ(tag->dict[2], "c");
  EXPECT_EQ(tag->Str(0), "a");
  EXPECT_EQ(tag->Str(4), "b");
  EXPECT_EQ(t.row_count(), 12u);
}

TEST(TableInvariants, RaggedColumnsRejected) {
  TableBuilder b;
  const std::size_t a = b.AddColumn("a", ColumnType::kU64);
  const std::size_t c = b.AddColumn("b", ColumnType::kU64);
  b.AppendU64(a, 1);
  b.AppendU64(a, 2);
  b.AppendU64(c, 1);
  EXPECT_EQ(CodeOf([&] { (void)b.Finish(); }), QueryErrorCode::kBadTable);
}

TEST(TableInvariants, DuplicateNamesRejected) {
  std::vector<Column> cols(2);
  cols[0].name = "x";
  cols[1].name = "x";
  EXPECT_EQ(CodeOf([&] { (void)Table(std::move(cols)); }), QueryErrorCode::kBadTable);
}

TEST(TableInvariants, UnknownColumnListsAvailable) {
  const Table t = SampleTable();
  try {
    (void)t.ColumnIndex("nope");
    FAIL() << "expected QueryError";
  } catch (const QueryError& e) {
    EXPECT_EQ(e.code(), QueryErrorCode::kUnknownColumn);
    EXPECT_NE(std::string(e.what()).find("id"), std::string::npos);
  }
}

TEST(EngineFilter, EveryNumericOperator) {
  const Table t = SampleTable();
  const Engine engine(t);
  const auto count = [&](CompareOp op, std::uint64_t lit) {
    Plan plan;
    plan.filters.push_back({"id", op, Value::U64(lit)});
    return engine.Run(plan).row_count();
  };
  EXPECT_EQ(count(CompareOp::kEq, 3), 1u);
  EXPECT_EQ(count(CompareOp::kNe, 3), 11u);
  EXPECT_EQ(count(CompareOp::kLt, 3), 3u);
  EXPECT_EQ(count(CompareOp::kLe, 3), 4u);
  EXPECT_EQ(count(CompareOp::kGt, 3), 8u);
  EXPECT_EQ(count(CompareOp::kGe, 3), 9u);
}

TEST(EngineFilter, StringEqualityAndAbsentLiteral) {
  const Table t = SampleTable();
  const Engine engine(t);
  Plan plan;
  plan.filters.push_back({"tag", CompareOp::kEq, Value::Str("a")});
  EXPECT_EQ(engine.Run(plan).row_count(), 4u);

  // A literal missing from the dictionary: = matches nothing, !=
  // matches everything.
  plan.filters[0] = {"tag", CompareOp::kEq, Value::Str("zz")};
  EXPECT_EQ(engine.Run(plan).row_count(), 0u);
  plan.filters[0] = {"tag", CompareOp::kNe, Value::Str("zz")};
  EXPECT_EQ(engine.Run(plan).row_count(), 12u);

  plan.filters[0] = {"tag", CompareOp::kLt, Value::Str("b")};
  EXPECT_EQ(CodeOf([&] { (void)engine.Run(plan); }), QueryErrorCode::kTypeMismatch);
  plan.filters[0] = {"tag", CompareOp::kEq, Value::U64(1)};
  EXPECT_EQ(CodeOf([&] { (void)engine.Run(plan); }), QueryErrorCode::kTypeMismatch);
}

TEST(EngineFilter, ConjunctionPreservesRowOrder) {
  const Table t = SampleTable();
  const Engine engine(t);
  Plan plan;
  plan.filters.push_back({"tag", CompareOp::kEq, Value::Str("a")});
  plan.filters.push_back({"id", CompareOp::kGe, Value::U64(3)});
  const Table out = engine.Run(plan);
  const Column* id = out.FindColumn("id");
  ASSERT_NE(id, nullptr);
  ASSERT_EQ(id->u64.size(), 3u);  // rows 3, 6, 9
  EXPECT_EQ(id->u64[0], 3u);
  EXPECT_EQ(id->u64[1], 6u);
  EXPECT_EQ(id->u64[2], 9u);
}

TEST(EngineGroup, AllAggregateKinds) {
  // Four rows, one group: samples 1, 2, 3, 4.
  TableBuilder b;
  const std::size_t v = b.AddColumn("v", ColumnType::kF64);
  for (double x : {1.0, 2.0, 3.0, 4.0}) b.AppendF64(v, x);
  const Table t = b.Finish();
  Plan plan;
  plan.aggregates.push_back({AggKind::kCount, "", 0.5, "n"});
  plan.aggregates.push_back({AggKind::kSum, "v", 0.5, "s"});
  plan.aggregates.push_back({AggKind::kMean, "v", 0.5, "m"});
  plan.aggregates.push_back({AggKind::kMin, "v", 0.5, "lo"});
  plan.aggregates.push_back({AggKind::kMax, "v", 0.5, "hi"});
  plan.aggregates.push_back({AggKind::kQuantile, "v", 0.5, "med"});
  const Table out = Engine(t).Run(plan);
  ASSERT_EQ(out.row_count(), 1u);
  EXPECT_EQ(out.FindColumn("n")->u64[0], 4u);
  EXPECT_EQ(out.FindColumn("s")->f64[0], 10.0);
  EXPECT_EQ(out.FindColumn("m")->f64[0], 2.5);
  EXPECT_EQ(out.FindColumn("lo")->f64[0], 1.0);
  EXPECT_EQ(out.FindColumn("hi")->f64[0], 4.0);
  EXPECT_EQ(out.FindColumn("med")->f64[0], 2.0);  // smallest x with F(x) >= 0.5
}

TEST(EngineGroup, GroupsLandInFirstAppearanceOrder) {
  const Table t = SampleTable();
  Plan plan;
  plan.group_by = {"tag"};
  plan.aggregates.push_back({AggKind::kCount, "", 0.5, "n"});
  const Table out = Engine(t).Run(plan);
  ASSERT_EQ(out.row_count(), 3u);
  EXPECT_EQ(out.FindColumn("tag")->Str(0), "a");
  EXPECT_EQ(out.FindColumn("tag")->Str(1), "b");
  EXPECT_EQ(out.FindColumn("tag")->Str(2), "c");
  EXPECT_EQ(out.FindColumn("n")->u64[0], 4u);
}

TEST(EngineGroup, GlobalAggregateOverZeroRowsYieldsOneRow) {
  const Table t = SampleTable();
  Plan plan;
  plan.filters.push_back({"id", CompareOp::kGt, Value::U64(999)});
  plan.aggregates.push_back({AggKind::kCount, "", 0.5, "n"});
  plan.aggregates.push_back({AggKind::kSum, "val", 0.5, "s"});
  const Table out = Engine(t).Run(plan);
  ASSERT_EQ(out.row_count(), 1u);
  EXPECT_EQ(out.FindColumn("n")->u64[0], 0u);
  EXPECT_EQ(out.FindColumn("s")->f64[0], 0.0);
}

TEST(EngineGroup, PlanErrors) {
  const Table t = SampleTable();
  const Engine engine(t);
  Plan plan;
  plan.columns = {"id"};
  plan.aggregates.push_back({AggKind::kCount, "", 0.5, ""});
  EXPECT_EQ(CodeOf([&] { (void)engine.Run(plan); }), QueryErrorCode::kBadPlan);

  plan.columns.clear();
  plan.aggregates[0] = {AggKind::kSum, "tag", 0.5, ""};
  EXPECT_EQ(CodeOf([&] { (void)engine.Run(plan); }), QueryErrorCode::kTypeMismatch);

  plan.aggregates[0] = {AggKind::kQuantile, "val", 1.5, ""};
  EXPECT_EQ(CodeOf([&] { (void)engine.Run(plan); }), QueryErrorCode::kBadPlan);

  plan.aggregates[0] = {AggKind::kSum, "val", 0.5, ""};
  plan.group_by = {"nope"};
  EXPECT_EQ(CodeOf([&] { (void)engine.Run(plan); }), QueryErrorCode::kUnknownColumn);
}

TEST(EngineSelect, ProjectionAndOrderLimit) {
  const Table t = SampleTable();
  Plan plan;
  plan.columns = {"val", "id"};
  plan.order_by.push_back({"id", true});
  plan.limit = 2;
  const Table out = Engine(t).Run(plan);
  ASSERT_EQ(out.column_count(), 2u);
  EXPECT_EQ(out.column(0).name, "val");
  EXPECT_EQ(out.column(1).name, "id");
  ASSERT_EQ(out.row_count(), 2u);
  EXPECT_EQ(out.FindColumn("id")->u64[0], 11u);
  EXPECT_EQ(out.FindColumn("id")->u64[1], 10u);
}

TEST(EngineSelect, StableSortKeepsPriorOrderOnTies) {
  const Table t = SampleTable();
  Plan plan;
  plan.order_by.push_back({"tag", false});
  const Table out = Engine(t).Run(plan);
  // Within tag "a", source row order (ids 0, 3, 6, 9) survives.
  const Column* id = out.FindColumn("id");
  EXPECT_EQ(id->u64[0], 0u);
  EXPECT_EQ(id->u64[1], 3u);
  EXPECT_EQ(id->u64[2], 6u);
  EXPECT_EQ(id->u64[3], 9u);
}

// ---- the prefix column ------------------------------------------------------

/// block (prefix) + id (u64): v4 and v6 rows out of address order, with
/// 10.0.0.0/24 twice (ids 0 and 3) for ties and groups.
Table PrefixTable() {
  TableBuilder b;
  const std::size_t block = b.AddColumn("block", ColumnType::kPrefix);
  const std::size_t id = b.AddColumn("id", ColumnType::kU64);
  const char* blocks[] = {"10.0.0.0/24", "2400:cb00::/48", "9.0.0.0/24",
                          "10.0.0.0/24", "2001:db8::/48",  "192.168.1.0/24"};
  for (std::size_t i = 0; i < std::size(blocks); ++i) {
    b.AppendPrefix(block, netaddr::Prefix::Parse(blocks[i]));
    b.AppendU64(id, i);
  }
  return b.Finish();
}

std::vector<std::uint64_t> Ids(const Table& t) { return t.FindColumn("id")->u64; }

std::vector<std::string> Blocks(const Table& t) {
  std::vector<std::string> out;
  for (const netaddr::Prefix& p : t.FindColumn("block")->prefix) out.push_back(p.ToString());
  return out;
}

TEST(PrefixColumn, EqualityFiltersOnBothFamilies) {
  const Table t = PrefixTable();
  const Engine engine(t);
  const auto ids = [&](CompareOp op, const char* literal) {
    Plan plan;
    plan.filters.push_back({"block", op, Value::Prefix(netaddr::Prefix::Parse(literal))});
    return Ids(engine.Run(plan));
  };
  EXPECT_EQ(ids(CompareOp::kEq, "10.0.0.0/24"), (std::vector<std::uint64_t>{0, 3}));
  EXPECT_EQ(ids(CompareOp::kNe, "10.0.0.0/24"), (std::vector<std::uint64_t>{1, 2, 4, 5}));
  EXPECT_EQ(ids(CompareOp::kEq, "2400:cb00::/48"), (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(ids(CompareOp::kNe, "2400:cb00::/48"), (std::vector<std::uint64_t>{0, 2, 3, 4, 5}));
  // Same bits, other family or length: no match.
  EXPECT_TRUE(ids(CompareOp::kEq, "10.0.0.0/23").empty());
  EXPECT_TRUE(ids(CompareOp::kEq, "a00::/24").empty());
}

TEST(PrefixColumn, OrderingFiltersAndAggregatesAreTypeMismatches) {
  const Table t = PrefixTable();
  const Engine engine(t);
  Plan plan;
  plan.filters.push_back(
      {"block", CompareOp::kLt, Value::Prefix(netaddr::Prefix::Parse("10.0.0.0/24"))});
  EXPECT_EQ(CodeOf([&] { (void)engine.Run(plan); }), QueryErrorCode::kTypeMismatch);
  EXPECT_EQ(CodeOf([&] { (void)ParseFilterExpr("block<10.0.0.0/24", t); }),
            QueryErrorCode::kTypeMismatch);
  // A literal of the wrong type against the prefix column.
  plan.filters[0] = {"block", CompareOp::kEq, Value::Str("10.0.0.0/24")};
  EXPECT_EQ(CodeOf([&] { (void)engine.Run(plan); }), QueryErrorCode::kTypeMismatch);

  Plan agg;
  agg.aggregates.push_back({AggKind::kSum, "block", 0.5, ""});
  EXPECT_EQ(CodeOf([&] { (void)engine.Run(agg); }), QueryErrorCode::kTypeMismatch);
  EXPECT_EQ(CodeOf([&] { (void)ParseAggregateExpr("sum(block)", t); }),
            QueryErrorCode::kTypeMismatch);
}

TEST(PrefixColumn, GroupByKeepsFirstAppearanceOrder) {
  const Table t = PrefixTable();
  Plan plan;
  plan.group_by = {"block"};
  plan.aggregates.push_back({AggKind::kCount, "", 0.5, "n"});
  plan.aggregates.push_back({AggKind::kSum, "id", 0.5, "ids"});
  for (const unsigned threads : {1u, 2u, 8u}) {
    exec::Executor executor(threads);
    const Table out = Engine(t, executor).Run(plan);
    ASSERT_EQ(out.FindColumn("block")->type, ColumnType::kPrefix);
    EXPECT_EQ(Blocks(out), (std::vector<std::string>{"10.0.0.0/24", "2400:cb00::/48",
                                                     "9.0.0.0/24", "2001:db8::/48",
                                                     "192.168.1.0/24"}));
    EXPECT_EQ(out.FindColumn("n")->u64, (std::vector<std::uint64_t>{2, 1, 1, 1, 1}));
    EXPECT_EQ(out.FindColumn("ids")->f64, (std::vector<double>{3, 1, 2, 4, 5}));
  }
}

TEST(PrefixColumn, ProjectionAndLimit) {
  const Table t = PrefixTable();
  Plan plan;
  plan.columns = {"block"};
  plan.filters.push_back({"id", CompareOp::kGe, Value::U64(2)});
  plan.limit = 2;
  const Table out = Engine(t).Run(plan);
  ASSERT_EQ(out.column_count(), 1u);
  EXPECT_EQ(out.column(0).type, ColumnType::kPrefix);
  EXPECT_EQ(Blocks(out), (std::vector<std::string>{"9.0.0.0/24", "10.0.0.0/24"}));
}

TEST(PrefixColumn, OrderByIsAddressOrderWithStableTies) {
  const Table t = PrefixTable();
  Plan plan;
  plan.order_by.push_back(ParseOrderByExpr("block"));
  Table out = Engine(t).Run(plan);
  // 9 before 10 (text order would put "10." first), v4 before v6.
  EXPECT_EQ(Blocks(out), (std::vector<std::string>{"9.0.0.0/24", "10.0.0.0/24", "10.0.0.0/24",
                                                   "192.168.1.0/24", "2001:db8::/48",
                                                   "2400:cb00::/48"}));
  EXPECT_EQ(Ids(out), (std::vector<std::uint64_t>{2, 0, 3, 5, 4, 1}));

  plan.order_by[0] = ParseOrderByExpr("block:desc");
  out = Engine(t).Run(plan);
  EXPECT_EQ(Ids(out), (std::vector<std::uint64_t>{1, 4, 5, 0, 3, 2}));
}

TEST(PrefixColumn, EverySinkPrintsPrefixToString) {
  const Table t = PrefixTable();
  for (const auto format :
       {util::TableFormat::kCsv, util::TableFormat::kJson, util::TableFormat::kHuman}) {
    std::stringstream out;
    const auto sink = util::MakeTableSink(format, out);
    RenderTable(t, *sink);
    const std::string text = out.str();
    for (const netaddr::Prefix& p : t.FindColumn("block")->prefix) {
      EXPECT_NE(text.find(p.ToString()), std::string::npos) << p.ToString();
    }
  }
  EXPECT_EQ(RenderCsv(t),
            "block,id\n10.0.0.0/24,0\n2400:cb00::/48,1\n9.0.0.0/24,2\n10.0.0.0/24,3\n"
            "2001:db8::/48,4\n192.168.1.0/24,5\n");
}

TEST(EngineDeterminism, ByteIdenticalAtAnyThreadCount) {
  const Table t = SampleTable(10'000);
  Plan plan;
  plan.filters.push_back({"val", CompareOp::kGt, Value::F64(0.75)});
  plan.group_by = {"tag"};
  plan.aggregates.push_back({AggKind::kSum, "val", 0.5, ""});
  plan.aggregates.push_back({AggKind::kCount, "", 0.5, ""});
  plan.aggregates.push_back({AggKind::kMean, "val", 0.5, ""});
  plan.aggregates.push_back({AggKind::kQuantile, "val", 0.9, ""});
  plan.order_by.push_back({"sum(val)", true});

  std::vector<std::string> rendered;
  for (const unsigned threads : {1u, 2u, 8u}) {
    exec::Executor executor(threads);
    rendered.push_back(RenderCsv(Engine(t, executor).Run(plan)));
  }
  EXPECT_EQ(rendered[0], rendered[1]);
  EXPECT_EQ(rendered[0], rendered[2]);
  EXPECT_NE(rendered[0].find("sum(val)"), std::string::npos);
}

}  // namespace
}  // namespace cellspot::query
