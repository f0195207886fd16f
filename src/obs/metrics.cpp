#include "cellspot/obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "cellspot/obs/json.hpp"

namespace cellspot::obs {

namespace {

/// Relaxed CAS-min / CAS-max for the latency extrema.
void AtomicMin(std::atomic<std::uint64_t>& a, std::uint64_t v) noexcept {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (v < cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<std::uint64_t>& a, std::uint64_t v) noexcept {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

[[nodiscard]] std::size_t BucketIndex(std::uint64_t us) noexcept {
  const std::size_t idx = static_cast<std::size_t>(std::bit_width(us));
  return std::min(idx, LatencyHistogram::kBuckets - 1);
}

/// Lower bound of bucket i in µs: 0, 1, 2, 4, 8, ...
[[nodiscard]] double BucketLoUs(std::size_t i) noexcept {
  return i == 0 ? 0.0 : static_cast<double>(std::uint64_t{1} << (i - 1));
}

[[nodiscard]] double BucketHiUs(std::size_t i) noexcept {
  return static_cast<double>(std::uint64_t{1} << i);
}

}  // namespace

void LatencyHistogram::Record(double ms) noexcept {
  if (!(ms >= 0.0)) ms = 0.0;  // negative/NaN clock glitches count as 0
  const double us_d = ms * 1000.0;
  const auto us = us_d >= static_cast<double>(UINT64_MAX)
                      ? UINT64_MAX
                      : static_cast<std::uint64_t>(us_d);
  buckets_[BucketIndex(us)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(us, std::memory_order_relaxed);
  AtomicMin(min_us_, us);
  AtomicMax(max_us_, us);
}

double LatencyHistogram::min_ms() const noexcept {
  const std::uint64_t us = min_us_.load(std::memory_order_relaxed);
  return us == UINT64_MAX ? 0.0 : static_cast<double>(us) / 1000.0;
}

double LatencyHistogram::max_ms() const noexcept {
  return static_cast<double>(max_us_.load(std::memory_order_relaxed)) / 1000.0;
}

double LatencyHistogram::ApproxQuantileMs(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const double in_bucket = static_cast<double>(bucket(i));
    if (in_bucket <= 0.0) continue;
    if (cum + in_bucket >= target) {
      const double frac = in_bucket > 0.0 ? (target - cum) / in_bucket : 0.0;
      const double us = BucketLoUs(i) + (BucketHiUs(i) - BucketLoUs(i)) * frac;
      // The bucket can reach past the recorded samples (one 489.8 ms
      // sample interpolates to 393 ms in [262, 524) ms), so clamp to
      // [min, max]; min/max rather than std::clamp, because a racing
      // Record can publish its min before its max.
      return std::min(std::max(us / 1000.0, min_ms()), max_ms());
    }
    cum += in_bucket;
  }
  return max_ms();
}

void LatencyHistogram::Reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_us_.store(0, std::memory_order_relaxed);
  min_us_.store(UINT64_MAX, std::memory_order_relaxed);
  max_us_.store(0, std::memory_order_relaxed);
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<util::OrderedMutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<util::OrderedMutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

LatencyHistogram& MetricsRegistry::latency(std::string_view name) {
  std::lock_guard<util::OrderedMutex> lock(mu_);
  auto it = latencies_.find(name);
  if (it == latencies_.end()) {
    it = latencies_.emplace(std::string(name), std::make_unique<LatencyHistogram>())
             .first;
  }
  return *it->second;
}

void MetricsRegistry::RecordSpan(std::string_view path, int depth, double wall_ms,
                                 std::uint64_t items) {
  std::lock_guard<util::OrderedMutex> lock(mu_);
  auto it = spans_.find(path);
  if (it == spans_.end()) {
    it = spans_.emplace(std::string(path), SpanAgg{}).first;
    it->second.min_ms = std::numeric_limits<double>::infinity();
  }
  SpanAgg& agg = it->second;
  agg.depth = depth;
  agg.count += 1;
  agg.total_ms += wall_ms;
  agg.min_ms = std::min(agg.min_ms, wall_ms);
  agg.max_ms = std::max(agg.max_ms, wall_ms);
  agg.items += items;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<util::OrderedMutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.latencies.reserve(latencies_.size());
  for (const auto& [name, h] : latencies_) {
    snap.latencies.push_back({name, h->count(), h->total_ms(), h->min_ms(),
                              h->max_ms(), h->ApproxQuantileMs(0.5),
                              h->ApproxQuantileMs(0.9), h->ApproxQuantileMs(0.99)});
  }
  snap.spans.reserve(spans_.size());
  for (const auto& [path, agg] : spans_) {
    snap.spans.push_back({path, agg.depth, agg.count, agg.total_ms,
                          agg.count > 0 ? agg.min_ms : 0.0, agg.max_ms, agg.items});
  }
  return snap;  // std::map iteration is already name-sorted
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<util::OrderedMutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : latencies_) h->Reset();
  spans_.clear();
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose (same reasoning as exec::Executor::Shared()):
  // atexit exporters and late worker threads may still read it.
  static MetricsRegistry* global = new MetricsRegistry();
  return *global;
}

JsonValue MetricsSnapshotToJson(const MetricsSnapshot& snapshot) {
  JsonValue::Object counters;
  for (const auto& row : snapshot.counters) {
    counters.emplace_back(row.name, JsonValue(row.value));
  }
  JsonValue::Object gauges;
  for (const auto& row : snapshot.gauges) {
    gauges.emplace_back(row.name, JsonValue(row.value));
  }
  JsonValue::Array latencies;
  for (const auto& row : snapshot.latencies) {
    JsonValue entry;
    entry.Set("name", row.name);
    entry.Set("count", row.count);
    entry.Set("total_ms", row.total_ms);
    entry.Set("min_ms", row.min_ms);
    entry.Set("max_ms", row.max_ms);
    entry.Set("p50_ms", row.p50_ms);
    entry.Set("p90_ms", row.p90_ms);
    entry.Set("p99_ms", row.p99_ms);
    latencies.push_back(std::move(entry));
  }
  JsonValue::Array spans;
  for (const auto& row : snapshot.spans) {
    JsonValue entry;
    entry.Set("path", row.path);
    entry.Set("depth", row.depth);
    entry.Set("count", row.count);
    entry.Set("total_ms", row.total_ms);
    entry.Set("min_ms", row.min_ms);
    entry.Set("max_ms", row.max_ms);
    entry.Set("items", row.items);
    spans.push_back(std::move(entry));
  }
  JsonValue doc;
  doc.Set("schema", std::string(kMetricsSchema));
  doc.Set("counters", std::move(counters));
  doc.Set("gauges", std::move(gauges));
  doc.Set("latencies", std::move(latencies));
  doc.Set("spans", std::move(spans));
  return doc;
}

std::string MetricsSnapshotJson(const MetricsSnapshot& snapshot) {
  return MetricsSnapshotToJson(snapshot).Dump();
}

namespace {

const JsonValue& Require(const JsonValue& doc, std::string_view key) {
  const JsonValue* v = doc.Find(key);
  if (v == nullptr) {
    throw std::invalid_argument("metrics snapshot: missing field '" +
                                std::string(key) + "'");
  }
  return *v;
}

double RequireNumber(const JsonValue& doc, std::string_view key) {
  return Require(doc, key).as_number();
}

std::uint64_t RequireUint(const JsonValue& doc, std::string_view key) {
  const double d = RequireNumber(doc, key);
  if (d < 0.0) {
    throw std::invalid_argument("metrics snapshot: negative '" + std::string(key) + "'");
  }
  return static_cast<std::uint64_t>(d);
}

}  // namespace

MetricsSnapshot MetricsSnapshotFromJson(std::string_view json) {
  return MetricsSnapshotFromJsonValue(JsonValue::Parse(json));
}

MetricsSnapshot MetricsSnapshotFromJsonValue(const JsonValue& doc) {
  if (Require(doc, "schema").as_string() != kMetricsSchema) {
    throw std::invalid_argument("metrics snapshot: unknown schema '" +
                                Require(doc, "schema").as_string() + "'");
  }
  MetricsSnapshot snap;
  for (const auto& [name, v] : Require(doc, "counters").as_object()) {
    snap.counters.push_back({name, static_cast<std::uint64_t>(v.as_number())});
  }
  for (const auto& [name, v] : Require(doc, "gauges").as_object()) {
    snap.gauges.push_back({name, v.as_number()});
  }
  for (const JsonValue& entry : Require(doc, "latencies").as_array()) {
    snap.latencies.push_back({Require(entry, "name").as_string(),
                              RequireUint(entry, "count"),
                              RequireNumber(entry, "total_ms"),
                              RequireNumber(entry, "min_ms"),
                              RequireNumber(entry, "max_ms"),
                              RequireNumber(entry, "p50_ms"),
                              RequireNumber(entry, "p90_ms"),
                              RequireNumber(entry, "p99_ms")});
  }
  for (const JsonValue& entry : Require(doc, "spans").as_array()) {
    snap.spans.push_back({Require(entry, "path").as_string(),
                          static_cast<int>(RequireNumber(entry, "depth")),
                          RequireUint(entry, "count"),
                          RequireNumber(entry, "total_ms"),
                          RequireNumber(entry, "min_ms"),
                          RequireNumber(entry, "max_ms"),
                          RequireUint(entry, "items")});
  }
  return snap;
}

bool WriteMetricsSnapshot(const std::string& path, std::string* error) {
  std::ofstream out(path);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  out << MetricsRegistry::Global().SnapshotJson() << "\n";
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write failed for " + path;
    return false;
  }
  return true;
}

namespace {

std::string& ExporterPath() {
  static std::string* path = new std::string();
  return *path;
}

void ExportAtExit() {
  const std::string& path = ExporterPath();
  if (path.empty()) return;
  std::string error;
  if (!WriteMetricsSnapshot(path, &error)) {
    std::fprintf(stderr, "metrics exporter: %s\n", error.c_str());
  }
}

}  // namespace

void InstallMetricsExporterAtExit(std::string path) {
  if (path.empty()) {
    if (const char* env = std::getenv("CELLSPOT_METRICS")) path = env;
  }
  static bool installed = false;
  ExporterPath() = std::move(path);
  if (!installed && !ExporterPath().empty()) {
    std::atexit(ExportAtExit);
    installed = true;
  }
}

}  // namespace cellspot::obs
