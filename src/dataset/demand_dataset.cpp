#include "cellspot/dataset/demand_dataset.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>
#include <string_view>

#include "cellspot/util/csv.hpp"
#include "cellspot/util/error.hpp"
#include "cellspot/util/ingest.hpp"
#include "cellspot/util/parse.hpp"
#include "cellspot/util/strings.hpp"

namespace cellspot::dataset {

namespace {
constexpr std::string_view kDemandCsvHeader = "block,demand_du";
}  // namespace

void DemandDataset::Add(const netaddr::Prefix& block, double raw_demand) {
  if (!netaddr::IsBlock(block)) {
    throw std::invalid_argument("DemandDataset::Add: not a /24 or /48 block: " +
                                block.ToString());
  }
  if (raw_demand < 0.0) {
    throw std::invalid_argument("DemandDataset::Add: negative demand");
  }
  blocks_[block] += raw_demand;
  total_ += raw_demand;
}

void DemandDataset::Normalize() {
  if (total_ <= 0.0) return;
  const double factor = kTotalDemandUnits / total_;
  for (auto& [block, du] : blocks_) du *= factor;
  total_ = kTotalDemandUnits;
}

double DemandDataset::DemandOf(const netaddr::Prefix& block) const noexcept {
  const double* du = blocks_.Find(block);
  return du == nullptr ? 0.0 : *du;
}

std::size_t DemandDataset::block_count(netaddr::Family f) const noexcept {
  std::size_t n = 0;
  for (const auto& [block, du] : blocks_) {
    if (block.family() == f) ++n;
  }
  return n;
}

void DemandDataset::SaveCsv(std::ostream& out) const {
  util::CsvWriter writer(out);
  writer.WriteRow({"block", "demand_du"});
  for (const auto& [block, du] : blocks_) {
    writer.WriteRow({block.ToString(), util::FormatDouble(du, 9)});
  }
}

namespace {

DemandDataset LoadDemandCsvImpl(std::istream& in, util::IngestReport& report) {
  DemandDataset out;
  bool saw_header = false;
  util::IngestLines(in, report, [&](std::size_t, std::string_view line) {
    const auto row = util::ParseCsvLine(line);
    if (!saw_header) {
      saw_header = true;  // consumed even when wrong, so data rows still parse
      if (util::JoinCsvLine(row) != kDemandCsvHeader) {
        throw ParseError("DemandDataset: missing or wrong header (got '" +
                             util::JoinCsvLine(row) + "', want '" +
                             std::string(kDemandCsvHeader) + "')",
                         ParseErrorCategory::kBadHeader);
      }
      return;
    }
    if (row.size() != 2) {
      throw ParseError("DemandDataset: expected 2 columns, got " +
                           std::to_string(row.size()),
                       row.size() < 2 ? ParseErrorCategory::kTruncatedLine
                                      : ParseErrorCategory::kBadFieldCount);
    }
    const double du = util::ParseNumber<double>(row[1], "DemandDataset: bad demand");
    const auto block = netaddr::Prefix::Parse(row[0]);
    try {
      out.Add(block, du);
    } catch (const std::invalid_argument& e) {
      throw ParseError(e.what(), ParseErrorCategory::kInconsistentRecord);
    }
  });
  return out;
}

}  // namespace

DemandDataset DemandDataset::LoadCsv(std::istream& in,
                                     const util::LoadOptions& options) {
  util::ScopedLoadReport scoped(options);
  return LoadDemandCsvImpl(in, scoped.get());
}

}  // namespace cellspot::dataset
