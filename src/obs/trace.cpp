#include "cellspot/obs/trace.hpp"

#include "cellspot/obs/metrics.hpp"

namespace cellspot::obs {

namespace {

thread_local const TraceSpan* t_current_span = nullptr;

}  // namespace

TraceSpan::TraceSpan(std::string_view name)
    : TraceSpan(name, MetricsRegistry::Global()) {}

TraceSpan::TraceSpan(std::string_view name, MetricsRegistry& registry)
    : registry_(&registry),
      parent_(t_current_span),
      path_(parent_ != nullptr ? parent_->path_ + "/" + std::string(name)
                               : std::string(name)),
      depth_(parent_ != nullptr ? parent_->depth_ + 1 : 0),
      start_(std::chrono::steady_clock::now()) {
  t_current_span = this;
}

TraceSpan::~TraceSpan() {
  t_current_span = parent_;
  registry_->RecordSpan(path_, depth_, elapsed_ms(), items_);
}

double TraceSpan::elapsed_ms() const noexcept {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start_)
      .count();
}

const TraceSpan* TraceSpan::Current() noexcept { return t_current_span; }

CurrentSpanScope::CurrentSpanScope(const TraceSpan* span) noexcept
    : previous_(t_current_span) {
  t_current_span = span;
}

CurrentSpanScope::~CurrentSpanScope() { t_current_span = previous_; }

}  // namespace cellspot::obs
