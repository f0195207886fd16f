// The four workloads. Each runs in its own process, closed loop (one
// job at a time), on one 4-thread executor by default, and returns a
// Report with its counted ops and measured metrics. See README.md for
// what each workload exercises and why.
#pragma once

#include <filesystem>

#include "cellspot/analysis/experiment.hpp"
#include "harness.hpp"

namespace cellspot::exec {
class Executor;
}

namespace perfbench {

/// World scales: Paper(0.05) is the scale EXPERIMENTS.md measures; the
/// stream runs at 0.02 (1.19 M frames) to keep a pass near two seconds.
inline constexpr double kPaperScale = 0.05;
inline constexpr double kStreamScale = 0.02;

/// `paper_cold` (warm = false) and `paper_warm` (warm = true).
[[nodiscard]] Report RunPaperWorkload(const Options& opts, bool warm);
[[nodiscard]] Report RunQueryWorkload(const Options& opts);
[[nodiscard]] Report RunStreamWorkload(const Options& opts);

/// Timings of one untraced `cellspot figures --snapshot-dir` job.
struct FiguresRun {
  double open_s = 0.0;     // config -> Pipeline::Run() done
  double run_s = 0.0;      // config -> every figure file written
  std::uint64_t items = 0; // beacon + demand blocks brought into state
};

/// One figures job through the CLI's entry points (analysis::Pipeline,
/// dns::DnsSimulator, analysis::ExportAllFigures), leaving the
/// experiment in `exp` for the correctness checks.
FiguresRun RunFigures(const cellspot::simnet::WorldConfig& config,
                      const std::filesystem::path& snapshot_dir,
                      const std::filesystem::path& out_dir,
                      cellspot::exec::Executor& executor, cellspot::analysis::Experiment& exp);

/// Quality of one experiment against the generator's truth and the
/// paper's Table 5 funnel (EXPERIMENTS.md).
struct Quality {
  double f1_cidr = 0.0;    // world-truth F1, one vote per block
  double f1_demand = 0.0;  // world-truth F1, blocks weighted by demand
  std::size_t candidates = 0;
  std::size_t kept = 0;
  std::size_t removed_low_demand = 0;
  std::size_t removed_low_hits = 0;
  std::size_t removed_class = 0;
};

[[nodiscard]] Quality MeasureQuality(const cellspot::analysis::Experiment& exp);

/// Empty when `q` is within the EXPERIMENTS.md tolerances, else the
/// reason. Only paper-scale worlds (scale >= 0.02) are held to the
/// paper's counts; smaller worlds pass.
[[nodiscard]] std::string PaperMatchProblem(const Quality& q,
                                            const cellspot::simnet::WorldConfig& config);

}  // namespace perfbench
