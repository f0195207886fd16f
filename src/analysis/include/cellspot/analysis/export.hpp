// Plot-ready series for every figure in the paper. The bench harnesses
// print human-readable tables; these writers emit the same series
// through util::TableSink so the figures can be re-plotted with any
// tool (gnuplot/matplotlib) without re-running the pipeline. The
// default CSV rendering is byte-identical to the historical CsvWriter
// output; `format` selects csv/json/human uniformly (the CLI's
// --format flag).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "cellspot/analysis/reports.hpp"
#include "cellspot/dns/dns_simulator.hpp"
#include "cellspot/exec/executor.hpp"
#include "cellspot/util/sink.hpp"

namespace cellspot::analysis {

/// Fig 1: month, per-browser API fraction, total.
void WriteFig1Csv(std::ostream& out, util::TableFormat format = util::TableFormat::kCsv);

/// Fig 2: ratio, F(x) for v4/v6 subnets and demand.
void WriteFig2Csv(const Experiment& exp, std::ostream& out,
                  util::TableFormat format = util::TableFormat::kCsv,
                  exec::Executor& executor = exec::Executor::Shared());

/// Fig 3: carrier, threshold, F1 (CIDR + demand), precision, recall.
void WriteFig3Csv(const Experiment& exp, std::ostream& out,
                  util::TableFormat format = util::TableFormat::kCsv);

/// Fig 4: per-candidate-AS cellular demand and beacon hits (CDF points).
void WriteFig4Csv(const Experiment& exp, std::ostream& out,
                  util::TableFormat format = util::TableFormat::kCsv);

/// Fig 5: per-AS CFD and cellular subnet fraction.
void WriteFig5Csv(const Experiment& exp, std::ostream& out,
                  util::TableFormat format = util::TableFormat::kCsv);

/// Fig 6: per-block (ratio, demand) for the dedicated and mixed example
/// carriers.
void WriteFig6Csv(const Experiment& exp, std::ostream& out,
                  util::TableFormat format = util::TableFormat::kCsv,
                  exec::Executor& executor = exec::Executor::Shared());

/// Fig 7: rank, share of global cellular demand.
void WriteFig7Csv(const Experiment& exp, std::ostream& out,
                  util::TableFormat format = util::TableFormat::kCsv);

/// Fig 8: rank, cellular DU, fixed DU for the mixed example carrier.
void WriteFig8Csv(const Experiment& exp, std::ostream& out,
                  util::TableFormat format = util::TableFormat::kCsv,
                  exec::Executor& executor = exec::Executor::Shared());

/// Fig 9: resolver cellular-fraction CDF points.
void WriteFig9Csv(const Experiment& exp, const dns::DnsSimulator& dns, std::ostream& out,
                  util::TableFormat format = util::TableFormat::kCsv);

/// Fig 10: operator label, per-service public-DNS share.
void WriteFig10Csv(const Experiment& exp, const dns::DnsSimulator& dns, std::ostream& out,
                   util::TableFormat format = util::TableFormat::kCsv);

/// Fig 11/12: country, continent, cellular DU, total DU, fraction.
void WriteCountryCsv(const Experiment& exp, std::ostream& out,
                     util::TableFormat format = util::TableFormat::kCsv,
                     exec::Executor& executor = exec::Executor::Shared());

/// Write every figure series into `dir` as fig01_* .. fig11_fig12_*
/// (fig11 and fig12 share the country file), with the extension matching
/// `format` (.csv/.json/.txt). Returns the paths written. Throws
/// std::runtime_error if a file cannot be opened. The figures are
/// written one after another (the executor is not reentrant), each
/// report running its per-row work on `executor`; the whole export is
/// one "analysis.export" trace span whose items are the files written.
[[nodiscard]] std::vector<std::string> ExportAllFigures(
    const Experiment& exp, const dns::DnsSimulator& dns, const std::string& dir,
    util::TableFormat format = util::TableFormat::kCsv,
    exec::Executor& executor = exec::Executor::Shared());

}  // namespace cellspot::analysis
