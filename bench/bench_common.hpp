// Shared helpers for the experiment harnesses: every bench builds the
// same cached world (see SharedPaperExperiment), reproduces one table or
// figure, and prints the paper's reported values next to the measured
// ones so the shape comparison is immediate.
//
// RunBench is a regression harness, not a single-shot timer: it runs the
// body `--warmup` times untimed, then `--reps` times measured, and
// summarizes the rep wall times as min/median/p90/mean/stddev. Human
// output prints exactly once (the first execution); later executions are
// silenced, so stdout is byte-identical across runs at a fixed thread
// count. The machine-readable record goes to stderr (one line) and, with
// `--json-out FILE`, to a schema-versioned cellspot-bench-run/1 document
// including the per-stage pipeline span timings and a full metrics
// snapshot.
#pragma once

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "cellspot/analysis/experiment.hpp"
#include "cellspot/analysis/pipeline.hpp"
#include "cellspot/analysis/reports.hpp"
#include "cellspot/exec/executor.hpp"
#include "cellspot/obs/bench.hpp"
#include "cellspot/obs/metrics.hpp"
#include "cellspot/obs/trace.hpp"
#include "cellspot/util/stats.hpp"
#include "cellspot/util/strings.hpp"
#include "cellspot/util/table.hpp"

namespace cellspot::bench {

/// Redirects stdout to /dev/null for its scope (POSIX dup/dup2), so
/// repeated bench executions do not duplicate the human-facing report.
class ScopedStdoutSilence {
 public:
  ScopedStdoutSilence() {
    std::fflush(stdout);
    saved_ = ::dup(STDOUT_FILENO);
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (saved_ >= 0 && devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
    if (devnull >= 0) ::close(devnull);
  }
  ~ScopedStdoutSilence() {
    std::fflush(stdout);
    if (saved_ >= 0) {
      ::dup2(saved_, STDOUT_FILENO);
      ::close(saved_);
    }
  }
  ScopedStdoutSilence(const ScopedStdoutSilence&) = delete;
  ScopedStdoutSilence& operator=(const ScopedStdoutSilence&) = delete;

 private:
  int saved_ = -1;
};

struct BenchArgs {
  int reps = 5;
  int warmup = 1;
  std::string json_out;
  std::string metrics_out;
  std::string snapshot_dir;
};

/// Parses harness flags. Returns false (after printing to stderr) on a
/// malformed value; unrecognized arguments are ignored so individual
/// benches may grow their own flags.
inline bool ParseBenchArgs(int argc, char** argv, BenchArgs& out) {
  const auto flag_value = [&](int& i, std::string_view arg, std::string_view flag,
                              std::string_view& value) {
    if (arg == flag && i + 1 < argc) {
      value = argv[++i];
      return true;
    }
    const std::string prefixed = std::string(flag) + "=";
    if (arg.starts_with(prefixed)) {
      value = arg.substr(prefixed.size());
      return true;
    }
    return false;
  };
  const auto parse_count = [](std::string_view flag, std::string_view value,
                              std::uint64_t min_value, std::uint64_t& parsed) {
    const auto maybe = util::ParseUint(std::string(value));
    if (!maybe || *maybe < min_value || *maybe > 1000000) {
      std::fprintf(stderr, "%.*s: expected an integer >= %llu, got '%.*s'\n",
                   static_cast<int>(flag.size()), flag.data(),
                   static_cast<unsigned long long>(min_value),
                   static_cast<int>(value.size()), value.data());
      return false;
    }
    parsed = *maybe;
    return true;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string_view value;
    std::uint64_t parsed = 0;
    if (flag_value(i, arg, "--threads", value)) {
      if (!parse_count("--threads", value, 1, parsed)) return false;
      exec::Executor::SetDefaultThreadCount(static_cast<unsigned>(parsed));
    } else if (flag_value(i, arg, "--reps", value)) {
      if (!parse_count("--reps", value, 1, parsed)) return false;
      out.reps = static_cast<int>(parsed);
    } else if (flag_value(i, arg, "--warmup", value)) {
      if (!parse_count("--warmup", value, 0, parsed)) return false;
      out.warmup = static_cast<int>(parsed);
    } else if (flag_value(i, arg, "--json-out", value)) {
      out.json_out = std::string(value);
    } else if (flag_value(i, arg, "--metrics-out", value)) {
      out.metrics_out = std::string(value);
    } else if (flag_value(i, arg, "--snapshot-dir", value)) {
      out.snapshot_dir = std::string(value);
      // SharedPaperExperiment reads CELLSPOT_SNAPSHOT_DIR on first use;
      // export before anything touches the shared experiment.
      ::setenv("CELLSPOT_SNAPSHOT_DIR", out.snapshot_dir.c_str(), 1);
    }
  }
  return true;
}

/// Shared bench entry point. `body` runs warmup + reps times and returns
/// the natural item count of the experiment it reproduces (rows, blocks,
/// subnets — any deterministic size), which the harness cross-checks
/// across reps. Prints the human report once, a one-line machine summary
/// to stderr, and the full run record to `--json-out` when given:
///
///   {"bench":"table2_datasets","reps":5,"warmup":1,"threads":8,
///    "items":12345,"wall_ms_median":102.4,"wall_ms_min":99.8}
inline int RunBench(int argc, char** argv, const std::string& name,
                    const std::function<std::uint64_t()>& body) {
  BenchArgs args;
  if (!ParseBenchArgs(argc, argv, args)) return 2;
  obs::InstallMetricsExporterAtExit(args.metrics_out);

  bool printed = false;
  std::vector<std::uint64_t> rep_items;
  std::vector<double> rep_wall_ms;
  const auto execute = [&]() {
    if (!printed) {
      printed = true;
      return body();
    }
    ScopedStdoutSilence silence;
    return body();
  };

  for (int w = 0; w < args.warmup; ++w) execute();
  for (int r = 0; r < args.reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    rep_items.push_back(execute());
    rep_wall_ms.push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count());
  }

  obs::BenchRun run;
  run.bench = name;
  run.threads = exec::Executor::Shared().thread_count();
  run.warmup = args.warmup;
  run.scale = analysis::PaperScaleFromEnv(0.05);
  run.items = rep_items.front();
  for (std::uint64_t items : rep_items) {
    if (items != run.items) run.items_consistent = false;
  }
  run.timestamp = obs::IsoTimestampUtc();
  run.rep_wall_ms = rep_wall_ms;
  run.metrics = obs::MetricsRegistry::Global().Snapshot();
  for (const auto& counter : run.metrics.counters) {
    if (counter.name == "snapshot.hit" && counter.value > 0) run.warm_cache = true;
  }

  const obs::BenchStats stats = obs::SummarizeReps(run.rep_wall_ms);
  std::fprintf(stderr,
               "{\"bench\":\"%s\",\"reps\":%d,\"warmup\":%d,\"threads\":%u,"
               "\"items\":%llu,\"items_consistent\":%s,"
               "\"wall_ms_median\":%.3f,\"wall_ms_min\":%.3f}\n",
               name.c_str(), args.reps, args.warmup, run.threads,
               static_cast<unsigned long long>(run.items),
               run.items_consistent ? "true" : "false", stats.median, stats.min);

  if (!args.json_out.empty()) {
    const obs::JsonValue doc = obs::BenchRunToJson(run);
    std::ofstream out(args.json_out, std::ios::trunc);
    out << doc.Dump() << "\n";
    if (!out) {
      std::fprintf(stderr, "--json-out: cannot write '%s'\n", args.json_out.c_str());
      return 1;
    }
  }
  if (!run.items_consistent) {
    std::fprintf(stderr, "warning: item count varied across reps (nondeterminism?)\n");
    return 3;
  }
  return 0;
}

/// Runs `body` under one obs::TraceSpan named `name`, so each timed
/// region of a bench is a span row in the run's metrics, and returns
/// its wall time in ms.
template <typename Body>
double TimedSpan(std::string_view name, Body&& body) {
  obs::TraceSpan span(name);
  body();
  return span.elapsed_ms();
}

inline void PrintHeader(const std::string& experiment, const std::string& what,
                        const simnet::WorldConfig& config) {
  std::printf("=================================================================\n");
  std::printf("%s — %s\n", experiment.c_str(), what.c_str());
  std::printf("World: scale %.3g (CELLSPOT_SCALE overrides), seed %llu\n", config.scale,
              static_cast<unsigned long long>(config.seed));
  std::printf("=================================================================\n");
}

inline void PrintHeader(const std::string& experiment, const std::string& what) {
  PrintHeader(experiment, what, analysis::SharedPaperExperiment().world.config());
}

/// "paper X / measured Y" cell pair.
inline std::string Vs(const std::string& paper, const std::string& measured) {
  return paper + " | " + measured;
}

inline std::string Pct(double fraction, int precision = 1) {
  return util::FormatPercent(fraction, precision);
}

inline std::string Num(std::uint64_t v) { return util::FormatWithCommas(v); }

inline std::string Dbl(double v, int precision = 2) {
  return util::FormatDouble(v, precision);
}

/// Print an empirical CDF as an x/F(x) series at fixed x steps, the way
/// the paper's figures sample their curves.
inline void PrintCdfSeries(const char* name, const util::EmpiricalCdf& cdf,
                           double lo, double hi, int steps) {
  std::printf("%s:\n", name);
  for (int i = 0; i <= steps; ++i) {
    const double x = lo + (hi - lo) * i / steps;
    std::printf("  x=%-8.3f F(x)=%.4f\n", x, cdf.At(x));
  }
}

}  // namespace cellspot::bench
