// Plan evaluation over a columnar Table.
//
// Every stage is parallelised through exec::Executor's chunk contract
// (fixed chunks, chunk-index-order merges), and floating-point
// aggregates are *collected then folded sequentially in row order* —
// never tree-reduced — so a plan's output is byte-identical at any
// thread count, and identical to the sequential analysis::reports
// loops the presets mirror. Each stage (filter/group/aggregate/sort)
// is one "query.<stage>" obs::TraceSpan.
#pragma once

#include "cellspot/query/plan.hpp"
#include "cellspot/query/table.hpp"

namespace cellspot::exec {
class Executor;
}

namespace cellspot::query {

class Engine {
 public:
  /// Evaluates against exec::Executor::Shared(). The table must outlive
  /// the engine.
  explicit Engine(const Table& table);
  Engine(const Table& table, exec::Executor& executor);

  /// Evaluate `plan`: scan → filter → (group-by → aggregate | project)
  /// → order → limit. Aggregate output columns are f64, except count()
  /// which is u64. Throws QueryError on unknown columns, type
  /// mismatches, or a structurally invalid plan.
  [[nodiscard]] Table Run(const Plan& plan) const;

  [[nodiscard]] const Table& table() const noexcept { return *table_; }

 private:
  const Table* table_;
  exec::Executor* executor_;
};

}  // namespace cellspot::query
