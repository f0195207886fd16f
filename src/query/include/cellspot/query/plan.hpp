// The composable query plan: scan → filter → group-by → aggregate →
// order/limit. Plans are plain param structs (no stringly-typed options
// in the C++ API); the tiny `--where country=DE` / `--agg sum(du)`
// expression syntax the CLI speaks is parsed into the same structs by
// the Parse* helpers below.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cellspot/netaddr/prefix.hpp"
#include "cellspot/query/error.hpp"
#include "cellspot/query/table.hpp"

namespace cellspot::query {

/// A typed literal, matching the column it is compared against.
struct Value {
  ColumnType type = ColumnType::kU64;
  std::uint64_t u64 = 0;
  double f64 = 0.0;
  std::string str;
  netaddr::Prefix prefix;

  [[nodiscard]] static Value U64(std::uint64_t v) {
    Value out;
    out.type = ColumnType::kU64;
    out.u64 = v;
    return out;
  }
  [[nodiscard]] static Value F64(double v) {
    Value out;
    out.type = ColumnType::kF64;
    out.f64 = v;
    return out;
  }
  [[nodiscard]] static Value Str(std::string v) {
    Value out;
    out.type = ColumnType::kStr;
    out.str = std::move(v);
    return out;
  }
  [[nodiscard]] static Value Prefix(const netaddr::Prefix& v) {
    Value out;
    out.type = ColumnType::kPrefix;
    out.prefix = v;
    return out;
  }
};

enum class CompareOp : std::uint8_t { kEq = 0, kNe, kLt, kLe, kGt, kGe };

/// Keep rows where `column <op> value`. String and prefix columns
/// support only kEq/kNe.
struct Filter {
  std::string column;
  CompareOp op = CompareOp::kEq;
  Value value;
};

enum class AggKind : std::uint8_t { kCount = 0, kSum, kMean, kMin, kMax, kQuantile };

[[nodiscard]] std::string_view AggKindName(AggKind k) noexcept;

/// One aggregate over the rows of a group. kCount ignores `column`;
/// every other kind requires a numeric (u64/f64) column. Output column
/// name is `as` when set, else the canonical expression ("sum(du)",
/// "quantile(ratio,0.9)").
struct Aggregate {
  AggKind kind = AggKind::kCount;
  std::string column;
  double q = 0.5;  // kQuantile only, in (0, 1]
  std::string as;

  [[nodiscard]] std::string OutputName() const;
};

struct OrderBy {
  std::string column;  // resolved against the *output* table
  bool descending = false;
};

/// The full plan. Two modes:
///   * selection (no group_by, no aggregates): filtered rows, optionally
///     projected to `columns`, ordered/limited;
///   * aggregation (group_by and/or aggregates set): one output row per
///     group — or exactly one global row when group_by is empty —
///     with group key columns followed by aggregate columns.
///     `columns` must be empty in this mode.
struct Plan {
  std::vector<std::string> columns;  // projection, selection mode only
  std::vector<Filter> filters;
  std::vector<std::string> group_by;
  std::vector<Aggregate> aggregates;
  std::vector<OrderBy> order_by;
  std::size_t limit = 0;  // 0 = unlimited
};

// ---- CLI expression syntax ------------------------------------------------
//
// All parsers throw QueryError{kBadExpression} on malformed text, and
// resolve column names/types against `table` (kUnknownColumn /
// kTypeMismatch).

/// "country=DE", "du>0.5", "asn!=64512". Operators: = != < <= > >=.
/// The literal is typed by the column: u64/f64 columns require a strict
/// number, prefix columns a prefix with no host bits set (any spelling:
/// "2400:0000::/48" equals "2400::/48"), string columns take the text
/// verbatim.
[[nodiscard]] Filter ParseFilterExpr(std::string_view expr, const Table& table);

/// "count()", "sum(du)", "mean(ratio)", "min(du)", "max(du)",
/// "quantile(ratio,0.9)".
[[nodiscard]] Aggregate ParseAggregateExpr(std::string_view expr, const Table& table);

/// "col", "col:asc", "col:desc".
[[nodiscard]] OrderBy ParseOrderByExpr(std::string_view expr);

/// Split on `delim` outside parentheses ("sum(a),quantile(b,0.5)" ->
/// two fields), trimming each field; empty fields are dropped.
[[nodiscard]] std::vector<std::string> SplitTopLevel(std::string_view s, char delim);

}  // namespace cellspot::query
