#include "cellspot/dataset/beacon_dataset.hpp"

#include <initializer_list>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string_view>

#include "cellspot/util/csv.hpp"
#include "cellspot/util/error.hpp"
#include "cellspot/util/parse.hpp"

namespace cellspot::dataset {

namespace {
constexpr std::string_view kBeaconCsvHeader =
    "block,hits,netinfo_hits,cellular,wifi,ethernet,other,mobile_browser";
}  // namespace

bool BeaconBlockStats::IsConsistent() const noexcept {
  if (netinfo_hits > hits || mobile_browser_hits > hits) return false;
  std::uint64_t unlabelled = netinfo_hits;
  for (const std::uint64_t labels : {cellular_labels, wifi_labels, ethernet_labels, other_labels}) {
    if (labels > unlabelled) return false;
    unlabelled -= labels;
  }
  return true;
}

BeaconBlockStats& BeaconBlockStats::operator+=(const BeaconBlockStats& other) noexcept {
  hits += other.hits;
  netinfo_hits += other.netinfo_hits;
  mobile_browser_hits += other.mobile_browser_hits;
  cellular_labels += other.cellular_labels;
  wifi_labels += other.wifi_labels;
  ethernet_labels += other.ethernet_labels;
  other_labels += other.other_labels;
  return *this;
}

void BeaconDataset::Add(const netaddr::Prefix& block, const BeaconBlockStats& stats) {
  if (!netaddr::IsBlock(block)) {
    throw std::invalid_argument("BeaconDataset::Add: not a /24 or /48 block: " +
                                block.ToString());
  }
  if (!stats.IsConsistent()) {
    throw std::invalid_argument("BeaconDataset::Add: inconsistent stats for " +
                                block.ToString());
  }
  blocks_[block] += stats;
  total_hits_ += stats.hits;
  total_netinfo_hits_ += stats.netinfo_hits;
}

const BeaconBlockStats* BeaconDataset::Find(const netaddr::Prefix& block) const noexcept {
  return blocks_.Find(block);
}

std::size_t BeaconDataset::block_count(netaddr::Family f) const noexcept {
  std::size_t n = 0;
  for (const auto& [block, stats] : blocks_) {
    if (block.family() == f) ++n;
  }
  return n;
}

void BeaconDataset::SaveCsv(std::ostream& out) const {
  util::CsvWriter writer(out);
  writer.WriteRow({"block", "hits", "netinfo_hits", "cellular", "wifi", "ethernet",
                   "other", "mobile_browser"});
  for (const auto& [block, s] : blocks_) {
    writer.WriteRow({block.ToString(), std::to_string(s.hits),
                     std::to_string(s.netinfo_hits), std::to_string(s.cellular_labels),
                     std::to_string(s.wifi_labels), std::to_string(s.ethernet_labels),
                     std::to_string(s.other_labels),
                     std::to_string(s.mobile_browser_hits)});
  }
}

namespace {

BeaconDataset LoadBeaconCsvImpl(std::istream& in, util::IngestReport& report) {
  BeaconDataset out;
  bool saw_header = false;
  util::IngestLines(in, report, [&](std::size_t, std::string_view line) {
    const auto row = util::ParseCsvLine(line);
    if (!saw_header) {
      saw_header = true;  // consumed even when wrong, so data rows still parse
      if (util::JoinCsvLine(row) != kBeaconCsvHeader) {
        throw ParseError("BeaconDataset: missing or wrong header (got '" +
                             util::JoinCsvLine(row) + "', want '" +
                             std::string(kBeaconCsvHeader) + "')",
                         ParseErrorCategory::kBadHeader);
      }
      return;
    }
    if (row.size() != 8) {
      throw ParseError("BeaconDataset: expected 8 columns, got " +
                           std::to_string(row.size()),
                       row.size() < 8 ? ParseErrorCategory::kTruncatedLine
                                      : ParseErrorCategory::kBadFieldCount);
    }
    BeaconBlockStats s;
    const auto block = netaddr::Prefix::Parse(row[0]);
    auto field = [&](std::size_t idx) {
      return util::ParseNumber<std::uint64_t>(row[idx], "BeaconDataset: bad count");
    };
    s.hits = field(1);
    s.netinfo_hits = field(2);
    s.cellular_labels = field(3);
    s.wifi_labels = field(4);
    s.ethernet_labels = field(5);
    s.other_labels = field(6);
    s.mobile_browser_hits = field(7);
    try {
      out.Add(block, s);
    } catch (const std::invalid_argument& e) {
      throw ParseError(e.what(), ParseErrorCategory::kInconsistentRecord);
    }
  });
  return out;
}

}  // namespace

BeaconDataset BeaconDataset::LoadCsv(std::istream& in,
                                     const util::LoadOptions& options) {
  util::ScopedLoadReport scoped(options);
  return LoadBeaconCsvImpl(in, scoped.get());
}

}  // namespace cellspot::dataset
