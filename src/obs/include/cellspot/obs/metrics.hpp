// Process-wide observability registry: counters, gauges and span
// aggregates. Spans (obs::TraceSpan) are the only timer.
//
// Design contract (see DESIGN.md "Observability"):
//   * Handles returned by counter()/gauge() are valid for the
//     registry's lifetime; registration takes a mutex once, after which
//     every update is a relaxed atomic — safe and cheap from inside
//     exec::Executor worker threads with no lock on the hot path.
//   * ResetForTest() zeroes values but keeps registered handles valid,
//     so `static Counter&` caches in hot code survive test isolation.
//   * Snapshot() is a consistent-enough view for export: each metric is
//     read atomically, the set of metrics under the registry mutex.
//
// Metric names are lowercase dotted "subsystem.noun" ("exec.steals",
// "pipeline.classify"); span paths join nested span names with '/'
// ("pipeline.classify/exec.batch").
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cellspot/util/ordered_mutex.hpp"

namespace cellspot::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value.
class Gauge {
 public:
  void Set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time view of a registry, exported to JSON and parsed back by
/// tests and tools/bench_json. Rows are sorted by name/path.
struct MetricsSnapshot {
  struct CounterRow {
    std::string name;
    std::uint64_t value = 0;
    friend bool operator==(const CounterRow&, const CounterRow&) = default;
  };
  struct GaugeRow {
    std::string name;
    double value = 0.0;
    friend bool operator==(const GaugeRow&, const GaugeRow&) = default;
  };
  struct SpanRow {
    std::string path;     // "parent/child" nesting, '.'-scoped leaf names
    int depth = 0;        // 0 for root spans
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double min_ms = 0.0;
    double max_ms = 0.0;
    std::uint64_t items = 0;  // sum of per-span item counts
    friend bool operator==(const SpanRow&, const SpanRow&) = default;
  };

  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  std::vector<SpanRow> spans;

  friend bool operator==(const MetricsSnapshot&, const MetricsSnapshot&) = default;
};

/// Schema tag embedded in every metrics snapshot export.
inline constexpr std::string_view kMetricsSchema = "cellspot-metrics/2";

class JsonValue;

/// Snapshot as a JsonValue object (for embedding in larger documents,
/// e.g. the bench-run records).
[[nodiscard]] JsonValue MetricsSnapshotToJson(const MetricsSnapshot& snapshot);

[[nodiscard]] std::string MetricsSnapshotJson(const MetricsSnapshot& snapshot);

/// Inverse of MetricsSnapshotToJson for an already-parsed object.
[[nodiscard]] MetricsSnapshot MetricsSnapshotFromJsonValue(const JsonValue& doc);

/// Inverse of MetricsSnapshotJson; throws std::invalid_argument on a
/// malformed document or an unknown schema. Also reads
/// "cellspot-metrics/1" documents (committed bench trajectories embed
/// them) and ignores their `latencies` array.
[[nodiscard]] MetricsSnapshot MetricsSnapshotFromJson(std::string_view json);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create; the reference stays valid for the registry's
  /// lifetime (values live behind node-stable storage).
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);

  /// Fold one finished span occurrence into the per-path aggregate.
  /// Called by TraceSpan's destructor.
  void RecordSpan(std::string_view path, int depth, double wall_ms,
                  std::uint64_t items);

  [[nodiscard]] MetricsSnapshot Snapshot() const;
  [[nodiscard]] std::string SnapshotJson() const { return MetricsSnapshotJson(Snapshot()); }

  /// Zero every value and drop span aggregates; previously returned
  /// counter/gauge handles remain valid.
  void ResetForTest();

  /// Lazily constructed process-wide registry (never destroyed, like
  /// exec::Executor::Shared(), so worker threads may touch it during
  /// static teardown).
  [[nodiscard]] static MetricsRegistry& Global();

 private:
  struct SpanAgg {
    int depth = 0;
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double min_ms = 0.0;
    double max_ms = 0.0;
    std::uint64_t items = 0;
  };

  mutable util::OrderedMutex mu_{"obs.MetricsRegistry"};  // registration, span folds, snapshots
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, SpanAgg, std::less<>> spans_;
};

/// Write Global().SnapshotJson() to `path`; returns false and fills
/// `*error` (if given) on I/O failure.
bool WriteMetricsSnapshot(const std::string& path, std::string* error = nullptr);

/// Arrange for the global registry to be snapshotted to a file when the
/// process exits: `path` if non-empty, else $CELLSPOT_METRICS, else a
/// no-op. Safe to call more than once; the last configured path wins.
void InstallMetricsExporterAtExit(std::string path = {});

}  // namespace cellspot::obs
