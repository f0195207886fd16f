// Immutable columnar in-memory tables — the unit the query engine scans.
//
// A Table is a set of equally-sized named columns. Numeric columns store
// raw u64/f64 vectors; prefix columns store netaddr::Prefix values (the
// `block` key of every joined table, rendered as text only by
// RenderTable); string columns are dictionary-encoded (u32 codes into a
// dictionary), which keeps group-by keys and filters on
// country/continent/family cheap. Row order is part of the table's
// identity: sources build rows in artifact iteration order, and every
// engine stage preserves (or deterministically permutes) it — that is
// what makes floating-point aggregates byte-identical to the sequential
// analysis::reports loops at any thread count.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cellspot/netaddr/prefix.hpp"
#include "cellspot/query/error.hpp"
#include "cellspot/util/stable_map.hpp"

namespace cellspot::util {
class TableSink;
}

namespace cellspot::query {

enum class ColumnType : std::uint8_t {
  kU64 = 0,
  kF64,
  kStr,
  kPrefix,
};

/// "u64" / "f64" / "str" / "prefix".
[[nodiscard]] std::string_view ColumnTypeName(ColumnType t) noexcept;

/// u64 and f64: the types that aggregate and order under < and >.
[[nodiscard]] constexpr bool IsNumeric(ColumnType t) noexcept {
  return t == ColumnType::kU64 || t == ColumnType::kF64;
}

/// One column: name, type, and exactly one populated storage vector.
struct Column {
  std::string name;
  ColumnType type = ColumnType::kU64;

  std::vector<std::uint64_t> u64{};       // kU64
  std::vector<double> f64{};              // kF64
  std::vector<std::uint32_t> codes{};     // kStr: dictionary codes per row
  std::vector<std::string> dict{};        // kStr: code -> string
  std::vector<netaddr::Prefix> prefix{};  // kPrefix

  [[nodiscard]] std::size_t size() const noexcept {
    switch (type) {
      case ColumnType::kU64: return u64.size();
      case ColumnType::kF64: return f64.size();
      case ColumnType::kStr: return codes.size();
      case ColumnType::kPrefix: return prefix.size();
    }
    return 0;
  }

  [[nodiscard]] std::string_view Str(std::size_t row) const noexcept {
    return dict[codes[row]];
  }
};

class Table {
 public:
  Table() = default;

  /// Validates equal column sizes and unique names; throws
  /// QueryError{kBadTable} otherwise.
  explicit Table(std::vector<Column> columns);

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_; }
  [[nodiscard]] std::size_t column_count() const noexcept { return columns_.size(); }

  [[nodiscard]] const Column& column(std::size_t i) const { return columns_.at(i); }
  [[nodiscard]] const std::vector<Column>& columns() const noexcept { return columns_; }

  /// nullptr when no column has this name.
  [[nodiscard]] const Column* FindColumn(std::string_view name) const noexcept;

  /// Index of the named column; throws QueryError{kUnknownColumn},
  /// listing the available names.
  [[nodiscard]] std::size_t ColumnIndex(std::string_view name) const;

 private:
  std::vector<Column> columns_;
  std::size_t rows_ = 0;
  util::StableMap<std::string, std::size_t> index_;
};

/// Row-at-a-time builder; columns are declared up front, then each row
/// appends one value per column (validated at Finish).
class TableBuilder {
 public:
  std::size_t AddColumn(std::string name, ColumnType type);

  void AppendU64(std::size_t col, std::uint64_t v);
  void AppendF64(std::size_t col, double v);
  void AppendStr(std::size_t col, std::string_view v);
  void AppendPrefix(std::size_t col, const netaddr::Prefix& v);

  /// Throws QueryError{kBadTable} on ragged columns.
  [[nodiscard]] Table Finish();

 private:
  struct Building {
    Column column;
    util::StableMap<std::string, std::uint32_t> dict_index;  // kStr only
  };
  std::vector<Building> columns_;
};

/// Render every row into a sink: u64 as decimal, f64 via
/// util::FormatDouble(v, 6) (the figure-export precision), strings
/// verbatim, prefixes as Prefix::ToString(). Runs Begin/Row*/End on the
/// sink.
void RenderTable(const Table& table, util::TableSink& sink);

}  // namespace cellspot::query
