// Reference per-block reports for the differential tests: the row-by-row
// versions analysis::reports replaced. Each walks its dataset once on
// the calling thread, joins every row to its origin AS with its own
// RoutingTable::OriginOf call, and probes the other artifacts as it
// goes. The analysis reports must match them field for field, doubles
// bit for bit, at any thread count.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cellspot/analysis/reports.hpp"
#include "cellspot/util/stable_map.hpp"
#include "cellspot/util/stats.hpp"

namespace cellspot::test_support {

namespace reference_reports {

inline const asdb::AsRecord* RecordOfBlock(const analysis::Experiment& exp,
                                           const netaddr::Prefix& block) {
  const auto origin = exp.world.rib().OriginOf(block.address());
  if (!origin) return nullptr;
  return exp.world.as_db().Find(*origin);
}

inline util::StableSet<std::string> ExcludedIsos(const analysis::Experiment& exp) {
  util::StableSet<std::string> out;
  for (const simnet::CountryProfile& p : exp.world.config().countries) {
    if (p.exclude_from_analysis) out.Insert(p.iso2);
  }
  return out;
}

}  // namespace reference_reports

inline analysis::DatasetSummary ReferenceSummarizeDatasets(const analysis::Experiment& exp) {
  analysis::DatasetSummary s;
  s.beacon_v4_blocks = exp.beacons.block_count(netaddr::Family::kIpv4);
  s.beacon_v6_blocks = exp.beacons.block_count(netaddr::Family::kIpv6);
  s.demand_v4_blocks = exp.demand.block_count(netaddr::Family::kIpv4);
  s.demand_v6_blocks = exp.demand.block_count(netaddr::Family::kIpv6);

  std::size_t demand_v4_with_beacons = 0;
  double covered_weight = 0.0;
  double total_weight = 0.0;
  for (const auto& [block, du] : exp.demand.rows()) {
    total_weight += du;
    const bool seen = exp.beacons.Find(block) != nullptr;
    if (seen) covered_weight += du;
    if (seen && block.family() == netaddr::Family::kIpv4) ++demand_v4_with_beacons;
  }
  if (s.demand_v4_blocks > 0) {
    s.beacon_coverage_of_demand_v4 =
        static_cast<double>(demand_v4_with_beacons) / s.demand_v4_blocks;
  }
  if (total_weight > 0.0) {
    s.beacon_coverage_of_demand_weight = covered_weight / total_weight;
  }
  return s;
}

inline std::vector<analysis::ContinentSubnetRow> ReferenceContinentSubnetReport(
    const analysis::Experiment& exp) {
  const auto idx = [](geo::Continent c) { return static_cast<std::size_t>(c); };
  std::array<analysis::ContinentSubnetRow, geo::kContinentCount> rows{};
  std::array<std::size_t, geo::kContinentCount> observed_v4{};
  std::array<std::size_t, geo::kContinentCount> observed_v6{};
  for (geo::Continent c : geo::AllContinents()) rows[idx(c)].continent = c;

  for (const auto& [block, ratio] : exp.classified.ratios()) {
    const asdb::AsRecord* record = reference_reports::RecordOfBlock(exp, block);
    if (record == nullptr) continue;
    const std::size_t ci = idx(record->continent);
    const bool cellular = exp.classified.IsCellular(block);
    if (block.family() == netaddr::Family::kIpv4) {
      ++observed_v4[ci];
      if (cellular) ++rows[ci].cell_v4;
    } else {
      ++observed_v6[ci];
      if (cellular) ++rows[ci].cell_v6;
    }
  }
  for (geo::Continent c : geo::AllContinents()) {
    analysis::ContinentSubnetRow& row = rows[idx(c)];
    if (observed_v4[idx(c)] > 0) {
      row.pct_active_v4 = static_cast<double>(row.cell_v4) / observed_v4[idx(c)];
    }
    if (observed_v6[idx(c)] > 0) {
      row.pct_active_v6 = static_cast<double>(row.cell_v6) / observed_v6[idx(c)];
    }
  }
  return {rows.begin(), rows.end()};
}

inline std::vector<analysis::CountryDemand> ReferenceCountryDemandReport(
    const analysis::Experiment& exp) {
  const auto excluded = reference_reports::ExcludedIsos(exp);
  std::map<std::string, analysis::CountryDemand> by_iso;
  util::StableSet<asdb::AsNumber> kept;
  for (const core::AsAggregate& as : exp.filtered.kept) kept.Insert(as.asn);

  for (const auto& [block, du] : exp.demand.rows()) {
    const auto origin = exp.world.rib().OriginOf(block.address());
    if (!origin) continue;
    const asdb::AsRecord* record = exp.world.as_db().Find(*origin);
    if (record == nullptr || record->country_iso.empty()) continue;
    analysis::CountryDemand& cd = by_iso[record->country_iso];
    if (cd.iso.empty()) {
      cd.iso = record->country_iso;
      cd.continent = record->continent;
      cd.excluded = excluded.Contains(cd.iso);
    }
    cd.total_du += du;
    if (kept.Contains(*origin) && exp.classified.IsCellular(block)) {
      cd.cell_du += du;
    }
  }

  std::vector<analysis::CountryDemand> out;
  out.reserve(by_iso.size());
  for (auto& [iso, cd] : by_iso) out.push_back(std::move(cd));
  return out;
}

inline analysis::RatioDistributions ReferenceRatioCdfReport(const analysis::Experiment& exp) {
  std::vector<double> v4_ratios, v6_ratios, v4_weights, v6_weights;
  for (const auto& [block, ratio] : exp.classified.ratios()) {
    const double du = exp.demand.DemandOf(block);
    if (block.family() == netaddr::Family::kIpv4) {
      v4_ratios.push_back(ratio);
      v4_weights.push_back(du);
    } else {
      v6_ratios.push_back(ratio);
      v6_weights.push_back(du);
    }
  }
  analysis::RatioDistributions out;
  out.v4_subnets = util::EmpiricalCdf(v4_ratios);
  out.v6_subnets = util::EmpiricalCdf(v6_ratios);
  out.v4_demand = util::EmpiricalCdf(v4_ratios, v4_weights);
  out.v6_demand = util::EmpiricalCdf(v6_ratios, v6_weights);
  return out;
}

inline std::vector<analysis::OperatorBlockPoint> ReferenceOperatorRatioBreakdown(
    const analysis::Experiment& exp, asdb::AsNumber asn) {
  std::vector<analysis::OperatorBlockPoint> out;
  for (const auto& [block, ratio] : exp.classified.ratios()) {
    const auto origin = exp.world.rib().OriginOf(block.address());
    if (!origin || *origin != asn) continue;
    out.push_back({ratio, exp.demand.DemandOf(block)});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.ratio < b.ratio;
  });
  return out;
}

inline analysis::SubnetConcentration ReferenceSubnetConcentrationReport(
    const analysis::Experiment& exp, asdb::AsNumber asn) {
  analysis::SubnetConcentration out;
  for (const auto& [block, du] : exp.demand.rows()) {
    const auto origin = exp.world.rib().OriginOf(block.address());
    if (!origin || *origin != asn || du <= 0.0) continue;
    if (exp.classified.IsCellular(block)) {
      out.cellular_demands.push_back(du);
    } else {
      out.fixed_demands.push_back(du);
    }
  }
  std::sort(out.cellular_demands.begin(), out.cellular_demands.end(), std::greater<>());
  std::sort(out.fixed_demands.begin(), out.fixed_demands.end(), std::greater<>());

  double total = 0.0;
  for (double d : out.cellular_demands) total += d;
  double cum = 0.0;
  for (std::size_t i = 0; i < out.cellular_demands.size(); ++i) {
    cum += out.cellular_demands[i];
    if (cum >= total * 0.99) {
      out.blocks_for_99pct_cell = i + 1;
      break;
    }
  }
  out.cellular_gini = util::GiniCoefficient(out.cellular_demands);
  out.fixed_gini = util::GiniCoefficient(out.fixed_demands);
  return out;
}

}  // namespace cellspot::test_support
