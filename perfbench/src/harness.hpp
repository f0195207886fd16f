// Shared plumbing of the end-to-end benchmark: options, clocks, sample
// statistics, the benchmark's own span recorder, process resource
// probes, and the per-workload report every workload fills in.
//
// The benchmark times the library from outside: every span is opened
// and closed here, around calls into a module's public functions, so
// the library itself needs no instrumentation to be measured.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cellspot/simnet/world_config.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// ---- options ---------------------------------------------------------------

/// Executor width of every workload: the shared executor, as the CLI
/// uses it, at the benchmark host's nproc. Only query_session's plans
/// run on two threads (query.cpp says why).
inline constexpr unsigned kThreads = 4;

/// Scratch space of a run (removed at exit) and where spans are written,
/// both relative to the checkout root the benchmark runs from.
inline constexpr const char* kWorkDir = ".bench_work";
inline constexpr const char* kOutDir = ".bench_out";

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 3;

/// Least share of a traced op's wall time its layer spans must cover;
/// below it the op fails.
inline constexpr double kMinCoveragePct = 90.0;

struct Options {
  std::string workload;
  std::uint64_t seed = cellspot::simnet::WorldConfig{}.seed;  // the world seed
  double seconds = 10.0;      // measured time per run
  bool trace = false;         // per-layer (traced) run instead of end-to-end
  bool tiny = false;          // WorldConfig::Tiny() instead of Paper(scale)
  bool inject_mismatch = false;  // corrupt one output to prove checks bite
  std::string source_id = "unknown";

  /// The world config this workload runs on: Tiny() or Paper(scale),
  /// with `seed` as its seed.
  [[nodiscard]] cellspot::simnet::WorldConfig World(double scale) const;
};

// ---- statistics ------------------------------------------------------------

/// Nearest-rank quantile, q in (0, 1]; 0 for an empty sample.
[[nodiscard]] double Quantile(std::vector<double> values, double q);
[[nodiscard]] double Median(std::vector<double> values);

// ---- spans -----------------------------------------------------------------

struct Span {
  std::string name;
  double start_ms = 0.0;  // since the tracer was created
  double end_ms = 0.0;
  int parent = -1;  // index into spans(), -1 for a root

  [[nodiscard]] double duration_ms() const noexcept { return end_ms - start_ms; }
};

/// Records spans opened on one thread (the benchmark's driving thread),
/// nested by a stack, kept in memory and written out when the run ends.
class Tracer {
 public:
  Tracer();

  int Open(std::string name);
  void Close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Summed duration of the children of `parent` named `name`.
  [[nodiscard]] double ChildMs(int parent, std::string_view name) const;

  /// Part of `parent`'s interval covered by its direct children.
  [[nodiscard]] double CoveredMs(int parent) const;

  /// Writes {"spans":[{"id","name","start_ms","end_ms","parent"}...]}.
  void WriteJson(const std::filesystem::path& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opened on construction, closed on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name) : tracer_(tracer), id_(tracer.Open(std::move(name))) {}
  ~Scope() { tracer_.Close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// ---- process probes --------------------------------------------------------

/// User + system CPU seconds of this process so far.
[[nodiscard]] double ProcessCpuSeconds();

/// Restart the peak-RSS high-water mark, so a later PeakRssMb() covers
/// only what ran after this call. Returns false where the kernel does
/// not support it (the peak then covers the whole process).
bool ResetPeakRss();
[[nodiscard]] double PeakRssMb();

[[nodiscard]] std::uint64_t FileBytes(const std::filesystem::path& path);
[[nodiscard]] std::uint64_t TreeBytes(const std::filesystem::path& dir);

/// Every regular file under `dir` by file name, with its bytes.
[[nodiscard]] std::map<std::string, std::string> ReadTree(const std::filesystem::path& dir);

/// Remove and recreate `dir`.
void FreshDir(const std::filesystem::path& dir);

/// A scratch directory under Options::work_dir, removed on destruction.
class WorkDir {
 public:
  explicit WorkDir(const Options& opts);
  ~WorkDir();
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

// ---- report ----------------------------------------------------------------

/// What one workload run hands back to main(): counted ops and every
/// metric it measured, by name. Metrics the workload's layers never
/// touch are left unset; main() reports them as 0.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> failures;  // one line per failed check

  /// Records `what` as a failed check unless `ok`; returns `ok`.
  bool Expect(bool ok, const std::string& what);

  /// Counts `ops` attempted ops; all of them failed unless `ok`.
  void CountOps(std::uint64_t ops, bool ok);
};

/// Per-op samples of each metric; a run reports their medians.
using Samples = std::map<std::string, std::vector<double>>;

void AddMedians(const Samples& samples, Report& report);

/// Nearest-rank p50 and p95 of one group of answer latencies (a pass or
/// a run's jobs), as one "answer_p50_ms"/"answer_p95_ms"
/// sample each; a run reports the medians over its groups.
void AddAnswerQuantiles(const std::vector<double>& answer_ms, Samples& out);

/// The end-to-end metrics of an untraced loop: the medians of its
/// run_s, open_s, answer_p50_ms, answer_p95_ms and ingest_items_per_s
/// samples, and the peak RSS since ResetPeakRss(). Prints the samples.
void AddEndToEnd(const Samples& untraced, Report& report);

/// Share of `parent`'s wall time its direct child (layer) spans cover
/// ("trace.coverage_pct") and the rest ("other_ms"). A share below
/// kMinCoveragePct is a failed check; returns whether it passed.
bool AddCoverage(const Tracer& tracer, int parent, Samples& out, Report& report);

/// Library counters (obs registry) and process CPU time at one instant;
/// two of them bracket the work whose counts are attributed.
struct CounterSnapshot {
  std::uint64_t exec_jobs = 0;
  std::uint64_t exec_chunks = 0;
  std::uint64_t exec_steals = 0;
  std::uint64_t lpm_lookups = 0;
  std::uint64_t snapshot_misses = 0;
  std::uint64_t snapshot_bytes_read = 0;
  std::uint64_t snapshot_bytes_written = 0;
  std::uint64_t checkpoints_saved = 0;
  double cpu_s = 0.0;

  [[nodiscard]] static CounterSnapshot Take();
};

/// The counter-derived layer metrics for the work between `before` and
/// `after`, which took `wall_ms` on `threads` executor threads.
void AddCounterDeltas(const CounterSnapshot& before, const CounterSnapshot& after,
                      double wall_ms, unsigned threads, Samples& out);

/// Runs one traced op `op()` and adds the counter deltas it caused, on
/// a `threads`-wide executor, to `out`. Returns the op's wall ms.
template <typename Op>
double Counted(unsigned threads, Samples& out, Op&& op) {
  const CounterSnapshot before = CounterSnapshot::Take();
  const auto start = Clock::now();
  op();
  const double wall_ms = MsSince(start);
  AddCounterDeltas(before, CounterSnapshot::Take(), wall_ms, threads, out);
  return wall_ms;
}

/// Ends a traced run: reports the medians of `layers`, whose "run_s"
/// (one per traced op) becomes trace.overhead_pct against the untraced
/// loop's, and writes the spans to <out_dir>/spans-<workload>-<seed>.json.
void FinishTrace(const Tracer& tracer, const Options& opts, const Samples& untraced,
                 Samples layers, Report& report);

/// Set-up repeated kSetupReps times; returns the median seconds.
/// `body(rep)` runs one repetition.
template <typename Body>
double TimedSetup(Body&& body) {
  std::vector<double> seconds;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    body(rep);
    seconds.push_back(MsSince(start) / 1000.0);
  }
  return Median(seconds);
}

/// Render `value` with every digit (the "%.17g" of a double).
[[nodiscard]] std::string FullDigits(double value);

}  // namespace perfbench
