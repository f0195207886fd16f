#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "cellspot/obs/metrics.hpp"

namespace fs = std::filesystem;

namespace perfbench {

cellspot::simnet::WorldConfig Options::World(double scale) const {
  using cellspot::simnet::WorldConfig;
  WorldConfig config = tiny ? WorldConfig::Tiny() : WorldConfig::Paper(scale);
  config.seed = seed;
  return config;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

// ---- Tracer ------------------------------------------------------------------

Tracer::Tracer() : origin_(Clock::now()) {}

int Tracer::Open(std::string name) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  const double now = MsSince(origin_);
  spans_.push_back({std::move(name), now, now, parent});
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::Close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ms = MsSince(origin_);
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

double Tracer::ChildMs(int parent, std::string_view name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == parent && s.name == name) total += s.duration_ms();
  }
  return total;
}

double Tracer::CoveredMs(int parent) const {
  // Children of one parent never overlap (one driving thread), so the
  // union of their intervals is their sum.
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == parent) total += s.duration_ms();
  }
  return total;
}

void Tracer::WriteJson(const fs::path& path) const {
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::trunc);
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ms\":" << FullDigits(s.start_ms)
        << ",\"end_ms\":" << FullDigits(s.end_ms) << ",\"parent\":" << s.parent << "}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write spans to " + path.string());
}

// ---- process probes ----------------------------------------------------------

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

bool ResetPeakRss() {
  // Writing 5 to clear_refs resets the VmHWM high-water mark (Linux).
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      if (kb > 0.0) return kb / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t FileBytes(const fs::path& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

std::uint64_t TreeBytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += FileBytes(entry.path());
  }
  return total;
}

std::map<std::string, std::string> ReadTree(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[entry.path().filename().string()] = bytes.str();
  }
  return files;
}

void FreshDir(const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

WorkDir::WorkDir(const Options& opts)
    : path_(fs::path(kWorkDir) / (opts.workload + "-" + std::to_string(::getpid()))) {
  FreshDir(path_);
}

WorkDir::~WorkDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
  // Drop the parent too once no other run is using it.
  fs::remove(path_.parent_path(), ec);
}

// ---- report ------------------------------------------------------------------

bool Report::Expect(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
  return ok;
}

void Report::CountOps(std::uint64_t ops, bool ok) {
  attempted += ops;
  if (!ok) failed += ops;
}

void AddMedians(const Samples& samples, Report& report) {
  for (const auto& [name, values] : samples) report.metrics[name] = Median(values);
}

void AddAnswerQuantiles(const std::vector<double>& answer_ms, Samples& out) {
  out["answer_p50_ms"].push_back(Quantile(answer_ms, 0.5));
  out["answer_p95_ms"].push_back(Quantile(answer_ms, 0.95));
}

void AddEndToEnd(const Samples& untraced, Report& report) {
  for (const char* name :
       {"run_s", "open_s", "answer_p50_ms", "answer_p95_ms", "ingest_items_per_s"}) {
    const std::vector<double>& values = untraced.at(name);
    report.metrics[name] = Median(values);
    std::printf("%s samples (%zu):", name, values.size());
    for (const double v : values) std::printf(" %.4g", v);
    std::printf("\n");
  }
  report.metrics["peak_rss_mb"] = PeakRssMb();
}

bool AddCoverage(const Tracer& tracer, int parent, Samples& out, Report& report) {
  const double wall = tracer.spans()[static_cast<std::size_t>(parent)].duration_ms();
  const double covered = tracer.CoveredMs(parent);
  const double pct = wall > 0.0 ? covered / wall * 100.0 : 100.0;
  out["trace.coverage_pct"].push_back(pct);
  out["other_ms"].push_back(wall - covered);
  char why[120];
  std::snprintf(why, sizeof why, "layer spans cover %.1f%% of a traced op, below %.0f%%", pct,
                kMinCoveragePct);
  return report.Expect(pct >= kMinCoveragePct, why);
}

CounterSnapshot CounterSnapshot::Take() {
  auto& reg = cellspot::obs::MetricsRegistry::Global();
  const auto read = [&reg](std::string_view name) { return reg.counter(name).value(); };
  CounterSnapshot s;
  s.exec_jobs = read("exec.jobs");
  s.exec_chunks = read("exec.chunks");
  s.exec_steals = read("exec.steals");
  s.lpm_lookups = read("lpm.lookup");
  s.snapshot_misses = read("snapshot.miss");
  s.snapshot_bytes_read = read("snapshot.bytes_read");
  s.snapshot_bytes_written = read("snapshot.bytes_written");
  s.checkpoints_saved = read("stream.checkpoint.saved");
  s.cpu_s = ProcessCpuSeconds();
  return s;
}

void AddCounterDeltas(const CounterSnapshot& before, const CounterSnapshot& after,
                      double wall_ms, unsigned threads, Samples& out) {
  const auto delta = [](std::uint64_t b, std::uint64_t a) {
    return static_cast<double>(a - b);
  };
  out["exec.jobs"].push_back(delta(before.exec_jobs, after.exec_jobs));
  out["exec.chunks"].push_back(delta(before.exec_chunks, after.exec_chunks));
  out["exec.steals"].push_back(delta(before.exec_steals, after.exec_steals));
  out["asdb.lpm_lookups"].push_back(delta(before.lpm_lookups, after.lpm_lookups));
  out["snapshot.misses"].push_back(delta(before.snapshot_misses, after.snapshot_misses));
  out["snapshot.bytes_read"].push_back(
      delta(before.snapshot_bytes_read, after.snapshot_bytes_read));
  out["snapshot.bytes_written"].push_back(
      delta(before.snapshot_bytes_written, after.snapshot_bytes_written));
  out["stream.checkpoints_saved"].push_back(
      delta(before.checkpoints_saved, after.checkpoints_saved));
  const double cpu_s = after.cpu_s - before.cpu_s;
  out["process.cpu_s"].push_back(cpu_s);
  out["exec.parallel_efficiency"].push_back(
      wall_ms > 0.0 ? cpu_s / (wall_ms / 1000.0 * threads) : 0.0);
}

void FinishTrace(const Tracer& tracer, const Options& opts, const Samples& untraced,
                 Samples layers, Report& report) {
  const double traced_run_s = Median(layers["run_s"]);
  layers.erase("run_s");
  AddMedians(layers, report);
  report.metrics["trace.overhead_pct"] = (traced_run_s / Median(untraced.at("run_s")) - 1.0) * 100.0;
  const fs::path path = fs::path(kOutDir) / ("spans-" + opts.workload + "-" +
                                             std::to_string(opts.seed) + ".json");
  tracer.WriteJson(path);
  std::printf("spans: %zu written to %s\n", tracer.spans().size(), path.string().c_str());
}

std::string FullDigits(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace perfbench
