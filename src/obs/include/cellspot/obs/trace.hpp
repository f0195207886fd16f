// Scoped trace spans. A TraceSpan measures the wall time of its scope
// and, on destruction, folds one occurrence into its registry's per-path
// span aggregate. Spans nest per thread: a span opened while another is
// active on the same thread becomes its child, and the aggregate is
// keyed by the '/'-joined path ("pipeline.classify/exec.batch"), so one
// aggregate row exists per distinct call-site nesting rather than per
// occurrence.
//
// Nesting state is thread_local, which keeps the fast path lock-free.
// A thread that works on another thread's behalf adopts that thread's
// span for the duration with a CurrentSpanScope: executor workers do so
// for the "exec.batch" span of the job they run, so spans opened inside
// a job's chunks nest under it on every thread, not as orphan roots.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

namespace cellspot::obs {

class MetricsRegistry;

class TraceSpan {
 public:
  /// Opens a span named `name` under the innermost span currently active
  /// on this thread (if any), recording into `registry` when it closes.
  explicit TraceSpan(std::string_view name);
  TraceSpan(std::string_view name, MetricsRegistry& registry);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Item count reported with this occurrence (summed in the aggregate).
  void set_items(std::uint64_t items) noexcept { items_ = items; }
  void AddItems(std::uint64_t items) noexcept { items_ += items; }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] int depth() const noexcept { return depth_; }
  [[nodiscard]] std::uint64_t items() const noexcept { return items_; }

  /// Elapsed wall time so far, in ms.
  [[nodiscard]] double elapsed_ms() const noexcept;

  /// The innermost span active on the calling thread, or nullptr.
  [[nodiscard]] static const TraceSpan* Current() noexcept;

 private:
  MetricsRegistry* registry_;
  const TraceSpan* parent_;
  std::string path_;
  int depth_;
  std::uint64_t items_ = 0;
  std::chrono::steady_clock::time_point start_;
};

/// Makes `span` the calling thread's current span for this scope, so
/// spans opened here nest under it, and restores the previous one on
/// exit. `span` (which may be null: no parent) must outlive the scope
/// and must not close while it is in use.
class CurrentSpanScope {
 public:
  explicit CurrentSpanScope(const TraceSpan* span) noexcept;
  ~CurrentSpanScope();

  CurrentSpanScope(const CurrentSpanScope&) = delete;
  CurrentSpanScope& operator=(const CurrentSpanScope&) = delete;

 private:
  const TraceSpan* previous_;
};

}  // namespace cellspot::obs
