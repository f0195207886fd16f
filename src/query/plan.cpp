#include "cellspot/query/plan.hpp"

#include "cellspot/util/parse.hpp"
#include "cellspot/util/strings.hpp"

namespace cellspot::query {
namespace {

[[noreturn]] void BadExpr(std::string_view expr, std::string_view why) {
  throw QueryError("bad expression '" + std::string(expr) + "': " + std::string(why),
                   QueryErrorCode::kBadExpression);
}

const Column& ResolveColumn(std::string_view name, const Table& table) {
  return table.column(table.ColumnIndex(name));
}

/// Type the literal against the column it is compared with.
Value ParseLiteral(std::string_view text, const Column& column) {
  switch (column.type) {
    case ColumnType::kU64: {
      const auto v = util::TryParseNumber<std::uint64_t>(text);
      if (!v) {
        throw QueryError("column '" + column.name + "' is u64 but literal '" +
                             std::string(text) + "' is not an unsigned integer",
                         QueryErrorCode::kTypeMismatch);
      }
      return Value::U64(*v);
    }
    case ColumnType::kF64: {
      const auto v = util::TryParseNumber<double>(text);
      if (!v) {
        throw QueryError("column '" + column.name + "' is f64 but literal '" +
                             std::string(text) + "' is not a number",
                         QueryErrorCode::kTypeMismatch);
      }
      return Value::F64(*v);
    }
    case ColumnType::kStr:
      return Value::Str(std::string(text));
    case ColumnType::kPrefix: {
      // TryParse masks host bits; a literal that had any is rejected,
      // not silently widened to its prefix.
      const auto v = netaddr::Prefix::TryParse(text);
      if (!v || netaddr::IpAddress::TryParse(text.substr(0, text.find('/'))) != v->address()) {
        throw QueryError("column '" + column.name + "' is prefix but literal '" +
                             std::string(text) + "' is not a prefix with zero host bits",
                         QueryErrorCode::kTypeMismatch);
      }
      return Value::Prefix(*v);
    }
  }
  throw QueryError("unhandled column type", QueryErrorCode::kTypeMismatch);
}

}  // namespace

std::string_view AggKindName(AggKind k) noexcept {
  switch (k) {
    case AggKind::kCount: return "count";
    case AggKind::kSum: return "sum";
    case AggKind::kMean: return "mean";
    case AggKind::kMin: return "min";
    case AggKind::kMax: return "max";
    case AggKind::kQuantile: return "quantile";
  }
  return "?";
}

std::string Aggregate::OutputName() const {
  if (!as.empty()) return as;
  std::string out(AggKindName(kind));
  out += '(';
  if (kind != AggKind::kCount) out += column;
  if (kind == AggKind::kQuantile) {
    out += ',';
    out += util::FormatDouble(q, 2);
  }
  out += ')';
  return out;
}

Filter ParseFilterExpr(std::string_view expr, const Table& table) {
  // Two-character operators first so "<=" is not read as "<" against "=...".
  struct OpToken {
    std::string_view token;
    CompareOp op;
  };
  static constexpr OpToken kOps[] = {
      {"!=", CompareOp::kNe}, {"<=", CompareOp::kLe}, {">=", CompareOp::kGe},
      {"<", CompareOp::kLt},  {">", CompareOp::kGt},  {"=", CompareOp::kEq},
  };

  std::size_t pos = std::string_view::npos;
  const OpToken* found = nullptr;
  for (const OpToken& cand : kOps) {
    const std::size_t p = expr.find(cand.token);
    if (p != std::string_view::npos && (found == nullptr || p < pos ||
                                        (p == pos && cand.token.size() > found->token.size()))) {
      pos = p;
      found = &cand;
    }
  }
  if (found == nullptr) BadExpr(expr, "expected <column><op><value> with op = != < <= > >=");

  const std::string_view name = util::Trim(expr.substr(0, pos));
  const std::string_view literal = util::Trim(expr.substr(pos + found->token.size()));
  if (name.empty()) BadExpr(expr, "missing column name");

  const Column& column = ResolveColumn(name, table);
  if (!IsNumeric(column.type) && found->op != CompareOp::kEq &&
      found->op != CompareOp::kNe) {
    throw QueryError(std::string(ColumnTypeName(column.type)) + " column '" + column.name +
                         "' supports only = and !=, got '" + std::string(found->token) + "'",
                     QueryErrorCode::kTypeMismatch);
  }

  Filter out;
  out.column = column.name;
  out.op = found->op;
  out.value = ParseLiteral(literal, column);
  return out;
}

Aggregate ParseAggregateExpr(std::string_view expr, const Table& table) {
  const std::string_view trimmed = util::Trim(expr);
  const std::size_t open = trimmed.find('(');
  if (open == std::string_view::npos || trimmed.back() != ')') {
    BadExpr(expr, "expected <kind>(<args>), e.g. sum(du) or count()");
  }
  const std::string_view kind_name = util::Trim(trimmed.substr(0, open));
  const std::string_view args = trimmed.substr(open + 1, trimmed.size() - open - 2);

  Aggregate out;
  if (kind_name == "count") {
    out.kind = AggKind::kCount;
  } else if (kind_name == "sum") {
    out.kind = AggKind::kSum;
  } else if (kind_name == "mean") {
    out.kind = AggKind::kMean;
  } else if (kind_name == "min") {
    out.kind = AggKind::kMin;
  } else if (kind_name == "max") {
    out.kind = AggKind::kMax;
  } else if (kind_name == "quantile") {
    out.kind = AggKind::kQuantile;
  } else {
    BadExpr(expr, "unknown aggregate '" + std::string(kind_name) +
                      "' (have: count sum mean min max quantile)");
  }

  const std::vector<std::string> fields = SplitTopLevel(args, ',');
  if (out.kind == AggKind::kCount) {
    if (!fields.empty()) BadExpr(expr, "count() takes no arguments");
    return out;
  }

  const std::size_t want = out.kind == AggKind::kQuantile ? 2 : 1;
  if (fields.size() != want) {
    BadExpr(expr, std::string(AggKindName(out.kind)) + " takes " + std::to_string(want) +
                      " argument(s)");
  }

  const Column& column = ResolveColumn(fields[0], table);
  if (!IsNumeric(column.type)) {
    throw QueryError("aggregate " + std::string(AggKindName(out.kind)) +
                         " needs a numeric column, '" + column.name + "' is " +
                         std::string(ColumnTypeName(column.type)),
                     QueryErrorCode::kTypeMismatch);
  }
  out.column = column.name;

  if (out.kind == AggKind::kQuantile) {
    const auto q = util::TryParseNumber<double>(fields[1]);
    if (!q || *q <= 0.0 || *q > 1.0) {
      BadExpr(expr, "quantile q must be a number in (0, 1]");
    }
    out.q = *q;
  }
  return out;
}

OrderBy ParseOrderByExpr(std::string_view expr) {
  const std::string_view trimmed = util::Trim(expr);
  OrderBy out;
  const std::size_t colon = trimmed.rfind(':');
  if (colon == std::string_view::npos) {
    out.column = std::string(trimmed);
  } else {
    const std::string_view dir = util::Trim(trimmed.substr(colon + 1));
    if (dir == "asc") {
      out.descending = false;
    } else if (dir == "desc") {
      out.descending = true;
    } else {
      BadExpr(expr, "direction must be 'asc' or 'desc'");
    }
    out.column = std::string(util::Trim(trimmed.substr(0, colon)));
  }
  if (out.column.empty()) BadExpr(expr, "missing column name");
  return out;
}

std::vector<std::string> SplitTopLevel(std::string_view s, char delim) {
  std::vector<std::string> out;
  int depth = 0;
  std::size_t start = 0;
  const auto flush = [&](std::size_t end) {
    const std::string_view field = util::Trim(s.substr(start, end - start));
    if (!field.empty()) out.emplace_back(field);
  };
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '(') {
      ++depth;
    } else if (c == ')') {
      if (depth > 0) --depth;
    } else if (c == delim && depth == 0) {
      flush(i);
      start = i + 1;
    }
  }
  flush(s.size());
  return out;
}

}  // namespace cellspot::query
