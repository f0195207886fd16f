#include "cellspot/obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "cellspot/obs/json.hpp"

namespace cellspot::obs {

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
  // "/1" added a `latencies` array of histogram rows, left unread here.
  const std::string& schema = Require(doc, "schema").as_string();
  if (schema != kMetricsSchema && schema != "cellspot-metrics/1") {
    throw std::invalid_argument("metrics snapshot: unknown schema '" + schema + "'");
  }
  MetricsSnapshot snap;
  for (const auto& [name, v] : Require(doc, "counters").as_object()) {
    snap.counters.push_back({name, static_cast<std::uint64_t>(v.as_number())});
  }
  for (const auto& [name, v] : Require(doc, "gauges").as_object()) {
    snap.gauges.push_back({name, v.as_number()});
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
