// cellspot end-to-end benchmark: runs one workload in this process and
// prints every metric with its unit, then one JSON result line.
//
//   cellspot_perfbench --workload paper_cold|paper_warm|query_session|stream_ingest
//                      [--seed N] [--seconds S] [--trace 0|1] [--tiny]
//                      [--inject-mismatch] [--source-id ID]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones (see README.md). Exit status 0 with the result as the last stdout
// line; 1 on a runtime error, 2 on a usage error, without a result.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

#include "cellspot/exec/executor.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Kept in step with BENCHMARK.json (smoke_test.py compares them).
constexpr MetricSpec kEndToEnd[] = {
    {"run_s", "s"},
    {"open_s", "s"},
    {"answer_p50_ms", "ms"},
    {"answer_p95_ms", "ms"},
    {"ingest_items_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"simnet.generate_ms", "ms"},
    {"simnet.subnets", "count"},
    {"cdn.beacon_generate_ms", "ms"},
    {"cdn.demand_generate_ms", "ms"},
    {"cdn.blocks", "count"},
    {"asdb.rib_compile_ms", "ms"},
    {"netaddr.lpm_segments", "count"},
    {"asdb.lpm_lookups", "count"},
    {"core.classify_ms", "ms"},
    {"core.aggregate_ms", "ms"},
    {"core.filter_ms", "ms"},
    {"core.observed_blocks", "count"},
    {"core.cellular_blocks", "count"},
    {"core.candidate_ases", "count"},
    {"core.kept_ases", "count"},
    {"core.f1_cidr", "ratio"},
    {"core.f1_demand", "ratio"},
    {"snapshot.store_ms.world", "ms"},
    {"snapshot.store_ms.lpm", "ms"},
    {"snapshot.store_ms.datasets", "ms"},
    {"snapshot.store_ms.classified", "ms"},
    {"snapshot.bytes_written", "bytes"},
    {"snapshot.load_ms.world", "ms"},
    {"snapshot.load_ms.lpm", "ms"},
    {"snapshot.load_ms.datasets", "ms"},
    {"snapshot.load_ms.classified", "ms"},
    {"snapshot.bytes_read", "bytes"},
    {"snapshot.read_mb_per_s", "MB/s"},
    {"snapshot.misses", "count"},
    {"analysis.export_ms", "ms"},
    {"analysis.export_bytes", "bytes"},
    {"dns.simulate_ms", "ms"},
    {"query.load_bundle_ms", "ms"},
    {"query.build_tables_ms", "ms"},
    {"query.table_rows", "count"},
    {"query.plan_ms.table2", "ms"},
    {"query.plan_ms.fig2_cdf", "ms"},
    {"query.plan_ms.country_share", "ms"},
    {"query.plan_ms.kept_asn_top20", "ms"},
    {"query.plan_ms.de_asn_top5", "ms"},
    {"query.plan_ms.beacon_country_q90", "ms"},
    {"query.plan_ms.classified_ratio_gt09", "ms"},
    {"query.rows_scanned_per_row_returned", "ratio"},
    {"stream.tick_ms_p50", "ms"},
    {"stream.tick_ms_p99", "ms"},
    {"stream.ticks", "count"},
    {"stream.producer_wait_ms", "ms"},
    {"stream.frames_applied", "count"},
    {"stream.frames_rejected", "count"},
    {"stream.checkpoints_saved", "count"},
    {"stream.checkpoint_bytes", "bytes"},
    {"stream.export_candidates_ms", "ms"},
    {"stream.restore_ms", "ms"},
    {"exec.jobs", "count"},
    {"exec.chunks", "count"},
    {"exec.steals", "count"},
    {"process.cpu_s", "s"},
    {"exec.parallel_efficiency", "ratio"},
    {"other_ms", "ms"},
    {"trace.coverage_pct", "%"},
    {"trace.overhead_pct", "%"},
    {"serial.run_s", "s"},
    {"serial.simnet.generate_ms", "ms"},
    {"serial.cdn.beacon_generate_ms", "ms"},
    {"serial.cdn.demand_generate_ms", "ms"},
    {"serial.asdb.rib_compile_ms", "ms"},
    {"serial.core.classify_ms", "ms"},
    {"serial.core.aggregate_ms", "ms"},
    {"serial.core.filter_ms", "ms"},
    {"serial.snapshot.store_ms", "ms"},
    {"serial.dns.simulate_ms", "ms"},
    {"serial.analysis.export_ms", "ms"},
};

struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

double WorkloadScale(std::string_view workload) {
  return workload == "stream_ingest" ? kStreamScale : kPaperScale;
}

Options ParseArgs(int argc, char** argv) {
  Options opts;
  const auto number = [](std::string_view flag, const char* text) {
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(v) || v < 0.0) {
      throw UsageError(std::string(flag) + ": expected a non-negative number, got '" + text + "'");
    }
    return v;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) throw UsageError(std::string(flag) + ": missing value");
      return argv[++i];
    };
    if (flag == "--workload") {
      opts.workload = value();
    } else if (flag == "--seed") {
      const char* text = value();
      char* end = nullptr;
      opts.seed = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0') throw UsageError("--seed: expected an integer");
    } else if (flag == "--seconds") {
      opts.seconds = number(flag, value());
    } else if (flag == "--trace") {
      const std::string_view v = value();
      if (v != "0" && v != "1") throw UsageError("--trace: expected 0 or 1");
      opts.trace = v == "1";
    } else if (flag == "--tiny") {
      opts.tiny = true;
    } else if (flag == "--inject-mismatch") {
      opts.inject_mismatch = true;
    } else if (flag == "--source-id") {
      opts.source_id = value();
    } else {
      throw UsageError("unknown option '" + std::string(flag) + "'");
    }
  }
  if (opts.workload != "paper_cold" && opts.workload != "paper_warm" &&
      opts.workload != "query_session" && opts.workload != "stream_ingest") {
    throw UsageError("--workload: expected paper_cold|paper_warm|query_session|stream_ingest");
  }
  return opts;
}

void PrintFingerprint(const Options& opts) {
  const cellspot::simnet::WorldConfig world = opts.World(WorkloadScale(opts.workload));
  std::printf(
      "fingerprint: nproc=%ld compiler=\"GCC %s\" build=%s source=%s threads=%u scale=%g "
      "seed=%llu world=%s workload=%s trace=%d\n",
      ::sysconf(_SC_NPROCESSORS_ONLN), __VERSION__, PERFBENCH_BUILD_TYPE,
      opts.source_id.c_str(), kThreads, world.scale,
      static_cast<unsigned long long>(world.seed), opts.tiny ? "tiny" : "paper",
      opts.workload.c_str(), opts.trace ? 1 : 0);
  std::fflush(stdout);
}

Report Dispatch(const Options& opts) {
  if (opts.workload == "paper_cold") return RunPaperWorkload(opts, false);
  if (opts.workload == "paper_warm") return RunPaperWorkload(opts, true);
  if (opts.workload == "query_session") return RunQueryWorkload(opts);
  return RunStreamWorkload(opts);
}

/// Prints every metric of the run's kind and the JSON result line.
void PrintResult(const Options& opts, Report& report) {
  const auto print = [&](const auto& specs) {
    std::string json;
    for (const MetricSpec& spec : specs) {
      auto it = report.metrics.find(spec.name);
      if (it == report.metrics.end()) {
        if (!opts.trace) {
          throw std::logic_error(std::string("workload did not measure ") + spec.name);
        }
        // A layer this workload never calls did no work.
        it = report.metrics.emplace(spec.name, 0.0).first;
      }
      if (!std::isfinite(it->second)) {
        throw std::runtime_error(std::string("metric ") + spec.name + " is not finite");
      }
      std::printf("  %-40s %20.6f %s\n", spec.name, it->second, spec.unit);
      json += std::string(json.empty() ? "" : ", ") + "\"" + spec.name + "\": {\"value\": " +
              FullDigits(it->second) + ", \"unit\": \"" + spec.unit + "\"}";
    }
    return json;
  };
  std::printf("%s metrics:\n", opts.trace ? "per-layer" : "end-to-end");
  const std::string metrics = opts.trace ? print(kPerLayer) : print(kEndToEnd);
  for (const std::string& failure : report.failures) {
    std::printf("check failed: %s\n", failure.c_str());
  }
  std::printf("ops: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              report.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Options opts = ParseArgs(argc, argv);
    // Before the shared executor's first use, which fixes its width.
    cellspot::exec::Executor::SetDefaultThreadCount(kThreads);
    PrintFingerprint(opts);
    Report report = Dispatch(opts);
    PrintResult(opts, report);
    return 0;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
