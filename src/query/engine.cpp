#include "cellspot/query/engine.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>

#include "cellspot/exec/executor.hpp"
#include "cellspot/obs/trace.hpp"
#include "cellspot/util/stable_map.hpp"
#include "cellspot/util/stats.hpp"

namespace cellspot::query {
namespace {

// Chunk grain for filter/group scans. Purely a scheduling knob: output
// is chunk-order merged, so the value affects speed, never bytes.
constexpr std::size_t kGrain = 4096;

// ---- filter ---------------------------------------------------------------

/// A filter with its column resolved and, for string columns, the
/// literal pre-resolved to a dictionary code (nullopt when the literal
/// is absent from the dictionary: = never matches, != always does).
struct BoundFilter {
  const Column* column = nullptr;
  CompareOp op = CompareOp::kEq;
  std::uint64_t u64 = 0;
  double f64 = 0.0;
  bool str_code_found = false;
  std::uint32_t str_code = 0;
  netaddr::Prefix prefix;
};

template <typename T>
bool CompareNumeric(T lhs, CompareOp op, T rhs) noexcept {
  switch (op) {
    case CompareOp::kEq: return lhs == rhs;
    case CompareOp::kNe: return lhs != rhs;
    case CompareOp::kLt: return lhs < rhs;
    case CompareOp::kLe: return lhs <= rhs;
    case CompareOp::kGt: return lhs > rhs;
    case CompareOp::kGe: return lhs >= rhs;
  }
  return false;
}

bool Matches(const BoundFilter& f, std::size_t row) noexcept {
  switch (f.column->type) {
    case ColumnType::kU64: return CompareNumeric(f.column->u64[row], f.op, f.u64);
    case ColumnType::kF64: return CompareNumeric(f.column->f64[row], f.op, f.f64);
    case ColumnType::kStr: {
      const bool eq = f.str_code_found && f.column->codes[row] == f.str_code;
      return f.op == CompareOp::kEq ? eq : !eq;
    }
    case ColumnType::kPrefix: {
      const bool eq = f.column->prefix[row] == f.prefix;
      return f.op == CompareOp::kEq ? eq : !eq;
    }
  }
  return false;
}

BoundFilter BindFilter(const Filter& filter, const Table& table) {
  BoundFilter out;
  out.column = &table.column(table.ColumnIndex(filter.column));
  out.op = filter.op;
  if (filter.value.type != out.column->type) {
    throw QueryError("filter on '" + filter.column + "' compares a " +
                         std::string(ColumnTypeName(filter.value.type)) +
                         " literal against a " +
                         std::string(ColumnTypeName(out.column->type)) + " column",
                     QueryErrorCode::kTypeMismatch);
  }
  if (!IsNumeric(out.column->type) && out.op != CompareOp::kEq &&
      out.op != CompareOp::kNe) {
    throw QueryError(std::string(ColumnTypeName(out.column->type)) + " column '" +
                         filter.column + "' supports only = and !=",
                     QueryErrorCode::kTypeMismatch);
  }
  switch (filter.value.type) {
    case ColumnType::kU64: out.u64 = filter.value.u64; break;
    case ColumnType::kF64: out.f64 = filter.value.f64; break;
    case ColumnType::kPrefix: out.prefix = filter.value.prefix; break;
    case ColumnType::kStr: {
      const auto& dict = out.column->dict;
      for (std::size_t i = 0; i < dict.size(); ++i) {
        if (dict[i] == filter.value.str) {
          out.str_code_found = true;
          out.str_code = static_cast<std::uint32_t>(i);
          break;
        }
      }
      break;
    }
  }
  return out;
}

/// Selected row indices, in source-row order.
std::vector<std::size_t> RunFilters(const Table& table, const std::vector<Filter>& filters,
                                    exec::Executor& executor) {
  const std::size_t n = table.row_count();
  std::vector<std::size_t> selection;
  if (filters.empty()) {
    selection.resize(n);
    std::iota(selection.begin(), selection.end(), std::size_t{0});
    return selection;
  }

  std::vector<BoundFilter> bound;
  bound.reserve(filters.size());
  for (const Filter& f : filters) bound.push_back(BindFilter(f, table));

  return executor.ParallelReduce(
      n, kGrain, std::move(selection),
      [&](std::size_t begin, std::size_t end) {
        std::vector<std::size_t> part;
        for (std::size_t row = begin; row < end; ++row) {
          bool keep = true;
          for (const BoundFilter& f : bound) {
            if (!Matches(f, row)) {
              keep = false;
              break;
            }
          }
          if (keep) part.push_back(row);
        }
        return part;
      },
      [](std::vector<std::size_t> acc, std::vector<std::size_t> part) {
        acc.insert(acc.end(), part.begin(), part.end());
        return acc;
      });
}

// ---- group / aggregate ----------------------------------------------------

/// Per-group accumulator. Aggregates collect raw samples in row order;
/// the numeric fold happens once, sequentially, at finalize — that is
/// the determinism contract (identical to a sequential loop over the
/// same rows, at any thread count).
struct GroupAcc {
  std::vector<Value> keys;
  std::uint64_t rows = 0;
  std::vector<std::vector<double>> samples;  // one vector per non-count aggregate
};

struct GroupPartial {
  util::StableMap<std::string, std::size_t> index;
  std::vector<GroupAcc> groups;
};

/// Injective byte encoding of one key component: type tag, then a
/// fixed-width value (u64 / f64 bit pattern) or length-prefixed bytes.
void AppendKeyBytes(std::string& key, const Column& column, std::size_t row) {
  char buf[8];
  switch (column.type) {
    case ColumnType::kU64: {
      key += 'u';
      const std::uint64_t v = column.u64[row];
      std::memcpy(buf, &v, 8);
      key.append(buf, 8);
      break;
    }
    case ColumnType::kF64: {
      key += 'f';
      const double v = column.f64[row];
      std::memcpy(buf, &v, 8);
      key.append(buf, 8);
      break;
    }
    case ColumnType::kStr: {
      key += 's';
      const std::string_view s = column.Str(row);
      const std::uint32_t len = static_cast<std::uint32_t>(s.size());
      std::memcpy(buf, &len, 4);
      key.append(buf, 4);
      key.append(s.data(), s.size());
      break;
    }
    case ColumnType::kPrefix: {
      key += 'p';
      const netaddr::Prefix& p = column.prefix[row];
      key += static_cast<char>(p.family());
      key.append(reinterpret_cast<const char*>(p.address().bytes().data()), 16);
      key += static_cast<char>(p.length());
      break;
    }
  }
}

Value KeyValue(const Column& column, std::size_t row) {
  switch (column.type) {
    case ColumnType::kU64: return Value::U64(column.u64[row]);
    case ColumnType::kF64: return Value::F64(column.f64[row]);
    case ColumnType::kStr: return Value::Str(std::string(column.Str(row)));
    case ColumnType::kPrefix: return Value::Prefix(column.prefix[row]);
  }
  return Value{};
}

double SampleValue(const Column& column, std::size_t row) noexcept {
  return column.type == ColumnType::kU64 ? static_cast<double>(column.u64[row])
                                         : column.f64[row];
}

Table RunGrouped(const Table& table, const Plan& plan,
                 const std::vector<std::size_t>& selection, exec::Executor& executor) {
  if (!plan.columns.empty()) {
    throw QueryError("plan mixes a projection with group-by/aggregates",
                     QueryErrorCode::kBadPlan);
  }

  std::vector<const Column*> key_columns;
  key_columns.reserve(plan.group_by.size());
  for (const std::string& name : plan.group_by) {
    key_columns.push_back(&table.column(table.ColumnIndex(name)));
  }

  // Sample columns per aggregate; nullptr for count().
  std::vector<const Column*> agg_columns;
  agg_columns.reserve(plan.aggregates.size());
  for (const Aggregate& agg : plan.aggregates) {
    if (agg.kind == AggKind::kCount) {
      agg_columns.push_back(nullptr);
      continue;
    }
    const Column& col = table.column(table.ColumnIndex(agg.column));
    if (!IsNumeric(col.type)) {
      throw QueryError("aggregate " + std::string(AggKindName(agg.kind)) +
                           " needs a numeric column, '" + col.name + "' is " +
                           std::string(ColumnTypeName(col.type)),
                       QueryErrorCode::kTypeMismatch);
    }
    if (agg.kind == AggKind::kQuantile && (agg.q <= 0.0 || agg.q > 1.0)) {
      throw QueryError("quantile q must be in (0, 1]", QueryErrorCode::kBadPlan);
    }
    agg_columns.push_back(&col);
  }

  GroupPartial merged;
  {
    obs::TraceSpan span("query.group");
    const auto accumulate = [&](GroupPartial& partial, std::size_t row) {
      std::string key;
      for (const Column* col : key_columns) AppendKeyBytes(key, *col, row);
      std::size_t slot;
      if (const std::size_t* found = partial.index.Find(key); found != nullptr) {
        slot = *found;
      } else {
        slot = partial.groups.size();
        partial.index.Emplace(key, slot);
        GroupAcc acc;
        acc.keys.reserve(key_columns.size());
        for (const Column* col : key_columns) acc.keys.push_back(KeyValue(*col, row));
        acc.samples.resize(plan.aggregates.size());
        partial.groups.push_back(std::move(acc));
      }
      GroupAcc& acc = partial.groups[slot];
      ++acc.rows;
      for (std::size_t a = 0; a < agg_columns.size(); ++a) {
        if (agg_columns[a] != nullptr) {
          acc.samples[a].push_back(SampleValue(*agg_columns[a], row));
        }
      }
    };

    merged = executor.ParallelReduce(
        selection.size(), kGrain, GroupPartial{},
        [&](std::size_t begin, std::size_t end) {
          GroupPartial partial;
          for (std::size_t i = begin; i < end; ++i) accumulate(partial, selection[i]);
          return partial;
        },
        [](GroupPartial acc, GroupPartial part) {
          for (std::size_t g = 0; g < part.groups.size(); ++g) {
            // Entries iterate in insertion order, so groups land in
            // first-appearance order of the filtered rows.
            GroupAcc& theirs = part.groups[g];
            std::size_t slot;
            const std::string& key = std::next(part.index.begin(), static_cast<std::ptrdiff_t>(g))->first;
            if (const std::size_t* found = acc.index.Find(key); found != nullptr) {
              slot = *found;
            } else {
              slot = acc.groups.size();
              acc.index.Emplace(key, slot);
              GroupAcc fresh;
              fresh.keys = std::move(theirs.keys);
              fresh.samples.resize(theirs.samples.size());
              acc.groups.push_back(std::move(fresh));
            }
            GroupAcc& mine = acc.groups[slot];
            mine.rows += theirs.rows;
            for (std::size_t a = 0; a < theirs.samples.size(); ++a) {
              std::vector<double>& dst = mine.samples[a];
              std::vector<double>& src = theirs.samples[a];
              dst.insert(dst.end(), src.begin(), src.end());
            }
          }
          return acc;
        });

    // A global aggregate (no group-by) always yields exactly one row,
    // even over zero selected rows — count()=0, sum()=0.
    if (plan.group_by.empty() && merged.groups.empty()) {
      GroupAcc acc;
      acc.samples.resize(plan.aggregates.size());
      merged.groups.push_back(std::move(acc));
    }
    span.set_items(merged.groups.size());
  }

  obs::TraceSpan span("query.aggregate");
  TableBuilder builder;
  std::vector<std::size_t> key_cols;
  key_cols.reserve(key_columns.size());
  for (const Column* col : key_columns) {
    key_cols.push_back(builder.AddColumn(col->name, col->type));
  }
  std::vector<std::size_t> agg_cols;
  agg_cols.reserve(plan.aggregates.size());
  for (const Aggregate& agg : plan.aggregates) {
    agg_cols.push_back(builder.AddColumn(
        agg.OutputName(),
        agg.kind == AggKind::kCount ? ColumnType::kU64 : ColumnType::kF64));
  }

  for (const GroupAcc& acc : merged.groups) {
    for (std::size_t k = 0; k < key_cols.size(); ++k) {
      const Value& v = acc.keys[k];
      switch (v.type) {
        case ColumnType::kU64: builder.AppendU64(key_cols[k], v.u64); break;
        case ColumnType::kF64: builder.AppendF64(key_cols[k], v.f64); break;
        case ColumnType::kStr: builder.AppendStr(key_cols[k], v.str); break;
        case ColumnType::kPrefix: builder.AppendPrefix(key_cols[k], v.prefix); break;
      }
    }
    for (std::size_t a = 0; a < plan.aggregates.size(); ++a) {
      const Aggregate& agg = plan.aggregates[a];
      if (agg.kind == AggKind::kCount) {
        builder.AppendU64(agg_cols[a], acc.rows);
        continue;
      }
      const std::vector<double>& samples = acc.samples[a];
      double out = 0.0;
      switch (agg.kind) {
        case AggKind::kCount: break;  // handled above
        case AggKind::kSum:
        case AggKind::kMean: {
          double sum = 0.0;
          for (const double v : samples) sum += v;
          out = agg.kind == AggKind::kSum
                    ? sum
                    : (samples.empty() ? 0.0 : sum / static_cast<double>(samples.size()));
          break;
        }
        case AggKind::kMin: {
          for (std::size_t i = 0; i < samples.size(); ++i) {
            out = i == 0 ? samples[i] : std::min(out, samples[i]);
          }
          break;
        }
        case AggKind::kMax: {
          for (std::size_t i = 0; i < samples.size(); ++i) {
            out = i == 0 ? samples[i] : std::max(out, samples[i]);
          }
          break;
        }
        case AggKind::kQuantile: {
          if (!samples.empty()) out = util::EmpiricalCdf(samples).Quantile(agg.q);
          break;
        }
      }
      builder.AppendF64(agg_cols[a], out);
    }
  }

  Table out = builder.Finish();
  span.set_items(out.row_count());
  return out;
}

// ---- select / gather ------------------------------------------------------

/// New table with `columns` (indices into `table`), rows gathered by
/// `rows`. String columns keep the source dictionary wholesale and
/// gather only codes.
Table GatherRows(const Table& table, const std::vector<std::size_t>& rows,
                 const std::vector<std::size_t>& columns, exec::Executor& executor) {
  std::vector<Column> out;
  out.reserve(columns.size());
  for (const std::size_t c : columns) {
    const Column& src = table.column(c);
    Column col;
    col.name = src.name;
    col.type = src.type;
    switch (src.type) {
      case ColumnType::kU64: col.u64.resize(rows.size()); break;
      case ColumnType::kF64: col.f64.resize(rows.size()); break;
      case ColumnType::kStr:
        col.codes.resize(rows.size());
        col.dict = src.dict;
        break;
      case ColumnType::kPrefix: col.prefix.resize(rows.size()); break;
    }
    out.push_back(std::move(col));
  }

  executor.ParallelFor(rows.size(), kGrain, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t row = rows[i];
      for (std::size_t c = 0; c < columns.size(); ++c) {
        const Column& src = table.column(columns[c]);
        Column& dst = out[c];
        switch (src.type) {
          case ColumnType::kU64: dst.u64[i] = src.u64[row]; break;
          case ColumnType::kF64: dst.f64[i] = src.f64[row]; break;
          case ColumnType::kStr: dst.codes[i] = src.codes[row]; break;
          case ColumnType::kPrefix: dst.prefix[i] = src.prefix[row]; break;
        }
      }
    }
  });
  return Table(std::move(out));
}

Table RunSelect(const Table& table, const Plan& plan,
                const std::vector<std::size_t>& selection, exec::Executor& executor) {
  std::vector<std::size_t> columns;
  if (plan.columns.empty()) {
    columns.resize(table.column_count());
    std::iota(columns.begin(), columns.end(), std::size_t{0});
  } else {
    columns.reserve(plan.columns.size());
    for (const std::string& name : plan.columns) {
      columns.push_back(table.ColumnIndex(name));
    }
  }
  return GatherRows(table, selection, columns, executor);
}

// ---- order / limit --------------------------------------------------------

Table RunOrderLimit(Table table, const Plan& plan, exec::Executor& executor) {
  if (plan.order_by.empty() && plan.limit == 0) return table;

  obs::TraceSpan span("query.sort");
  std::vector<std::size_t> perm(table.row_count());
  std::iota(perm.begin(), perm.end(), std::size_t{0});

  if (!plan.order_by.empty()) {
    std::vector<std::pair<const Column*, bool>> keys;  // column, descending
    keys.reserve(plan.order_by.size());
    for (const OrderBy& ob : plan.order_by) {
      keys.emplace_back(&table.column(table.ColumnIndex(ob.column)), ob.descending);
    }
    const auto before = [&](std::size_t a, std::size_t b) {
      for (const auto& [col, desc] : keys) {
        int cmp = 0;
        switch (col->type) {
          case ColumnType::kU64:
            cmp = col->u64[a] < col->u64[b] ? -1 : (col->u64[a] > col->u64[b] ? 1 : 0);
            break;
          case ColumnType::kF64:
            cmp = col->f64[a] < col->f64[b] ? -1 : (col->f64[a] > col->f64[b] ? 1 : 0);
            break;
          case ColumnType::kStr: {
            const std::string_view sa = col->Str(a);
            const std::string_view sb = col->Str(b);
            cmp = sa < sb ? -1 : (sa > sb ? 1 : 0);
            break;
          }
          case ColumnType::kPrefix: {
            // Address order (family, bytes, length), not rendered text.
            const auto order = col->prefix[a] <=> col->prefix[b];
            cmp = order < 0 ? -1 : (order > 0 ? 1 : 0);
            break;
          }
        }
        if (cmp != 0) return desc ? cmp > 0 : cmp < 0;
      }
      return false;  // stable_sort keeps prior row order for ties
    };
    std::stable_sort(perm.begin(), perm.end(), before);
  }

  if (plan.limit != 0 && plan.limit < perm.size()) perm.resize(plan.limit);

  std::vector<std::size_t> all(table.column_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  Table out = GatherRows(table, perm, all, executor);
  span.set_items(out.row_count());
  return out;
}

}  // namespace

Engine::Engine(const Table& table) : Engine(table, exec::Executor::Shared()) {}

Engine::Engine(const Table& table, exec::Executor& executor)
    : table_(&table), executor_(&executor) {}

Table Engine::Run(const Plan& plan) const {
  std::vector<std::size_t> selection;
  {
    obs::TraceSpan span("query.filter");
    selection = RunFilters(*table_, plan.filters, *executor_);
    span.set_items(selection.size());
  }

  const bool aggregated = !plan.group_by.empty() || !plan.aggregates.empty();
  Table out = aggregated ? RunGrouped(*table_, plan, selection, *executor_)
                         : RunSelect(*table_, plan, selection, *executor_);
  return RunOrderLimit(std::move(out), plan, *executor_);
}

}  // namespace cellspot::query
