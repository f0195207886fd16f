#include "cellspot/analysis/export.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "cellspot/exec/executor.hpp"
#include "cellspot/obs/metrics.hpp"
#include "cellspot/util/csv.hpp"
#include "cellspot/util/strings.hpp"

namespace cellspot::analysis {
namespace {

const Experiment& TinyExp() {
  static const Experiment exp = RunExperiment(simnet::WorldConfig::Tiny());
  return exp;
}

const dns::DnsSimulator& TinyDns() {
  static const dns::DnsSimulator sim(TinyExp().world);
  return sim;
}

std::vector<std::vector<std::string>> Rows(const std::string& text) {
  std::stringstream in(text);
  return util::ReadCsv(in);
}

TEST(ExportFig1, MonthsAndMonotoneTotals) {
  std::stringstream out;
  WriteFig1Csv(out);
  const auto rows = Rows(out.str());
  ASSERT_EQ(rows.size(), 23u);  // header + 22 months
  EXPECT_EQ(rows[0][0], "month");
  EXPECT_EQ(rows[1][0], "2015-09");
  EXPECT_EQ(rows.back()[0], "2017-06");
  const double first = *util::ParseDouble(rows[1][5]);
  const double last = *util::ParseDouble(rows.back()[5]);
  EXPECT_GT(last, first);
}

TEST(ExportFig2, SeriesCoverAllFour) {
  std::stringstream out;
  WriteFig2Csv(TinyExp(), out);
  const auto rows = Rows(out.str());
  ASSERT_GT(rows.size(), 10u);
  std::set<std::string> series;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    series.insert(rows[i][0]);
    const double f = *util::ParseDouble(rows[i][2]);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
  EXPECT_TRUE(series.contains("v4_subnets"));
  EXPECT_TRUE(series.contains("v4_demand"));
}

TEST(ExportFig3, FiftyThresholdsPerCarrier) {
  std::stringstream out;
  WriteFig3Csv(TinyExp(), out);
  const auto rows = Rows(out.str());
  // header + 50 per present carrier (Tiny world has >= 2 carriers).
  EXPECT_GE(rows.size(), 1u + 100u);
  EXPECT_EQ((rows.size() - 1) % 50, 0u);
}

TEST(ExportFig5, OneRowPerKeptAs) {
  std::stringstream out;
  WriteFig5Csv(TinyExp(), out);
  const auto rows = Rows(out.str());
  EXPECT_EQ(rows.size(), 1u + TinyExp().filtered.kept.size());
}

TEST(ExportFig7, RanksAreSequential) {
  std::stringstream out;
  WriteFig7Csv(TinyExp(), out);
  const auto rows = Rows(out.str());
  ASSERT_GT(rows.size(), 5u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i][0], std::to_string(i));
  }
}

TEST(ExportFig10, SharesAreFractions) {
  std::stringstream out;
  WriteFig10Csv(TinyExp(), TinyDns(), out);
  const auto rows = Rows(out.str());
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const double total = *util::ParseDouble(rows[i][2]) +
                         *util::ParseDouble(rows[i][3]) +
                         *util::ParseDouble(rows[i][4]);
    EXPECT_GE(total, 0.0);
    EXPECT_LE(total, 1.0 + 1e-9);
  }
}

TEST(ExportCountry, RowsParseAndFractionsConsistent) {
  std::stringstream out;
  WriteCountryCsv(TinyExp(), out);
  const auto rows = Rows(out.str());
  ASSERT_GE(rows.size(), 6u);  // header + >= 5 countries (CN excluded in Tiny? 6 kept)
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const double cell = *util::ParseDouble(rows[i][2]);
    const double total = *util::ParseDouble(rows[i][3]);
    const double fraction = *util::ParseDouble(rows[i][4]);
    EXPECT_LE(cell, total + 1e-6);
    if (total > 0.0) {
      EXPECT_NEAR(fraction, cell / total, 1e-4);
    }
  }
}

TEST(ExportAll, WritesElevenFiles) {
  const std::string dir = ::testing::TempDir();
  const auto files = ExportAllFigures(TinyExp(), TinyDns(), dir);
  EXPECT_EQ(files.size(), 11u);
  for (const std::string& path : files) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::string header;
    std::getline(in, header);
    EXPECT_FALSE(header.empty()) << path;
  }
}

// A figures job's export shows up in --metrics-out as one span, and
// the reports' batches run under it on every thread.
TEST(ExportAll, RecordsOneExportSpanWithTheReportBatchesUnderIt) {
  const Experiment& exp = TinyExp();
  const dns::DnsSimulator& dns_sim = TinyDns();
  auto& reg = obs::MetricsRegistry::Global();
  reg.ResetForTest();
  exec::Executor executor(4);
  const auto files =
      ExportAllFigures(exp, dns_sim, ::testing::TempDir(), util::TableFormat::kCsv, executor);
  const obs::MetricsSnapshot snap = reg.Snapshot();
  std::uint64_t batches = 0;
  const obs::MetricsSnapshot::SpanRow* export_span = nullptr;
  for (const auto& row : snap.spans) {
    if (row.path == "analysis.export") export_span = &row;
    if (row.path.ends_with("exec.batch")) {
      EXPECT_EQ(row.path, "analysis.export/exec.batch");
      batches += row.count;
    }
  }
  ASSERT_NE(export_span, nullptr);
  EXPECT_EQ(export_span->count, 1u);
  EXPECT_EQ(export_span->items, files.size());
  EXPECT_EQ(export_span->items, 11u);
  // Figs 2, 6, 8 and 11 each resolve their rows' origins in one batch.
  EXPECT_GE(batches, 4u);
}

TEST(ExportAll, ThrowsOnBadDirectory) {
  EXPECT_THROW(ExportAllFigures(TinyExp(), TinyDns(), "/nonexistent/dir/xyz"),
               std::runtime_error);
}

}  // namespace
}  // namespace cellspot::analysis
