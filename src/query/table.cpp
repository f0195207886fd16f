#include "cellspot/query/table.hpp"

#include <utility>

#include "cellspot/util/sink.hpp"
#include "cellspot/util/strings.hpp"

namespace cellspot::query {

std::string_view ColumnTypeName(ColumnType t) noexcept {
  switch (t) {
    case ColumnType::kU64: return "u64";
    case ColumnType::kF64: return "f64";
    case ColumnType::kStr: return "str";
    case ColumnType::kPrefix: return "prefix";
  }
  return "unknown";
}

Table::Table(std::vector<Column> columns) : columns_(std::move(columns)) {
  rows_ = columns_.empty() ? 0 : columns_.front().size();
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    const Column& c = columns_[i];
    if (c.size() != rows_) {
      throw QueryError("table column '" + c.name + "' has " + std::to_string(c.size()) +
                           " rows, expected " + std::to_string(rows_),
                       QueryErrorCode::kBadTable);
    }
    if (!index_.Emplace(c.name, i)) {
      throw QueryError("duplicate table column '" + c.name + "'",
                       QueryErrorCode::kBadTable);
    }
  }
}

const Column* Table::FindColumn(std::string_view name) const noexcept {
  const std::size_t* i = index_.Find(std::string(name));
  return i == nullptr ? nullptr : &columns_[*i];
}

std::size_t Table::ColumnIndex(std::string_view name) const {
  const std::size_t* i = index_.Find(std::string(name));
  if (i == nullptr) {
    std::string names;
    for (const Column& c : columns_) {
      if (!names.empty()) names += ", ";
      names += c.name;
    }
    throw QueryError("unknown column '" + std::string(name) + "' (have: " + names + ")",
                     QueryErrorCode::kUnknownColumn);
  }
  return *i;
}

std::size_t TableBuilder::AddColumn(std::string name, ColumnType type) {
  Building b;
  b.column.name = std::move(name);
  b.column.type = type;
  columns_.push_back(std::move(b));
  return columns_.size() - 1;
}

void TableBuilder::AppendU64(std::size_t col, std::uint64_t v) {
  columns_.at(col).column.u64.push_back(v);
}

void TableBuilder::AppendF64(std::size_t col, double v) {
  columns_.at(col).column.f64.push_back(v);
}

void TableBuilder::AppendStr(std::size_t col, std::string_view v) {
  Building& b = columns_.at(col);
  std::string key(v);
  const std::uint32_t* code = b.dict_index.Find(key);
  if (code == nullptr) {
    const auto next = static_cast<std::uint32_t>(b.column.dict.size());
    b.dict_index.Emplace(key, next);
    b.column.dict.push_back(std::move(key));
    b.column.codes.push_back(next);
  } else {
    b.column.codes.push_back(*code);
  }
}

void TableBuilder::AppendPrefix(std::size_t col, const netaddr::Prefix& v) {
  columns_.at(col).column.prefix.push_back(v);
}

Table TableBuilder::Finish() {
  std::vector<Column> columns;
  columns.reserve(columns_.size());
  for (Building& b : columns_) columns.push_back(std::move(b.column));
  columns_.clear();
  return Table(std::move(columns));
}

void RenderTable(const Table& table, util::TableSink& sink) {
  std::vector<std::string> header;
  header.reserve(table.column_count());
  for (const Column& c : table.columns()) header.push_back(c.name);
  sink.Begin(header);

  std::vector<std::string> row(table.column_count());
  for (std::size_t r = 0; r < table.row_count(); ++r) {
    for (std::size_t c = 0; c < table.column_count(); ++c) {
      const Column& col = table.column(c);
      switch (col.type) {
        case ColumnType::kU64: row[c] = std::to_string(col.u64[r]); break;
        case ColumnType::kF64: row[c] = util::FormatDouble(col.f64[r], 6); break;
        case ColumnType::kStr: row[c] = std::string(col.Str(r)); break;
        case ColumnType::kPrefix: row[c] = col.prefix[r].ToString(); break;
      }
    }
    sink.Row(row);
  }
  sink.End();
}

}  // namespace cellspot::query
