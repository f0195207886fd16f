#include "cellspot/analysis/reports.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <span>

#include "cellspot/core/sharded_aggregation.hpp"
#include "cellspot/geo/country.hpp"
#include "cellspot/util/stable_map.hpp"

namespace cellspot::analysis {

namespace {

using asdb::AsNumber;
using asdb::AsRecord;
using geo::Continent;

constexpr std::size_t Idx(Continent c) { return static_cast<std::size_t>(c); }

/// Rows per ParallelFor chunk of the per-row probes.
constexpr std::size_t kGrain = 4096;

/// Origin AS of every (block, value) row, 0 (reserved) where unrouted.
/// No AS record has ASN 0 (AsDatabase rejects it), so an unrouted row
/// finds no record.
template <typename Row>
std::vector<AsNumber> OriginsOf(const Experiment& exp, std::span<const Row> rows,
                                exec::Executor& executor) {
  return core::ResolveOrigins(
      exp.world.rib(), rows.size(), [&](std::size_t i) { return rows[i].first.address(); },
      executor);
}

/// Indices of the rows whose origin is `asn`, in row order. The
/// reserved ASN 0 marks unrouted rows, so it owns none.
std::vector<std::size_t> RowsOfAs(std::span<const AsNumber> origins, AsNumber asn) {
  std::vector<std::size_t> picked;
  if (asn == 0) return picked;
  for (std::size_t i = 0; i < origins.size(); ++i) {
    if (origins[i] == asn) picked.push_back(i);
  }
  return picked;
}

util::StableSet<std::string> ExcludedIsos(const Experiment& exp) {
  util::StableSet<std::string> out;
  for (const simnet::CountryProfile& p : exp.world.config().countries) {
    if (p.exclude_from_analysis) out.Insert(p.iso2);
  }
  return out;
}

}  // namespace

DatasetSummary SummarizeDatasets(const Experiment& exp, exec::Executor& executor) {
  DatasetSummary s;
  s.beacon_v4_blocks = exp.beacons.block_count(netaddr::Family::kIpv4);
  s.beacon_v6_blocks = exp.beacons.block_count(netaddr::Family::kIpv6);
  s.demand_v4_blocks = exp.demand.block_count(netaddr::Family::kIpv4);
  s.demand_v6_blocks = exp.demand.block_count(netaddr::Family::kIpv6);

  const auto rows = exp.demand.rows();
  std::vector<std::uint8_t> seen(rows.size());
  executor.ParallelFor(rows.size(), kGrain, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      seen[i] = exp.beacons.Find(rows[i].first) != nullptr;
    }
  });
  std::size_t demand_v4_with_beacons = 0;
  double covered_weight = 0.0;
  double total_weight = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& [block, du] = rows[i];
    total_weight += du;
    if (!seen[i]) continue;
    covered_weight += du;
    if (block.family() == netaddr::Family::kIpv4) ++demand_v4_with_beacons;
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

std::vector<ContinentSubnetRow> ContinentSubnetReport(const Experiment& exp,
                                                      exec::Executor& executor) {
  const auto blocks = exp.classified.ratios();
  const std::vector<AsNumber> origins = OriginsOf(exp, blocks, executor);
  // Row i's origin continent (kUnattributed: no AS record) and verdict.
  constexpr auto kUnattributed = static_cast<std::uint8_t>(geo::kContinentCount);
  std::vector<std::uint8_t> continent(blocks.size());
  std::vector<std::uint8_t> cellular(blocks.size());
  executor.ParallelFor(blocks.size(), kGrain, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const AsRecord* record = exp.world.as_db().Find(origins[i]);
      continent[i] =
          record == nullptr ? kUnattributed : static_cast<std::uint8_t>(Idx(record->continent));
      cellular[i] = record != nullptr && exp.classified.IsCellular(blocks[i].first);
    }
  });

  std::array<ContinentSubnetRow, geo::kContinentCount> rows{};
  std::array<std::size_t, geo::kContinentCount> observed_v4{};
  std::array<std::size_t, geo::kContinentCount> observed_v6{};
  for (Continent c : geo::AllContinents()) rows[Idx(c)].continent = c;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const std::size_t ci = continent[i];
    if (ci == kUnattributed) continue;
    if (blocks[i].first.family() == netaddr::Family::kIpv4) {
      ++observed_v4[ci];
      if (cellular[i]) ++rows[ci].cell_v4;
    } else {
      ++observed_v6[ci];
      if (cellular[i]) ++rows[ci].cell_v6;
    }
  }
  for (Continent c : geo::AllContinents()) {
    ContinentSubnetRow& row = rows[Idx(c)];
    if (observed_v4[Idx(c)] > 0) {
      row.pct_active_v4 = static_cast<double>(row.cell_v4) / observed_v4[Idx(c)];
    }
    if (observed_v6[Idx(c)] > 0) {
      row.pct_active_v6 = static_cast<double>(row.cell_v6) / observed_v6[Idx(c)];
    }
  }
  return {rows.begin(), rows.end()};
}

std::vector<ContinentAsRow> ContinentAsReport(const Experiment& exp) {
  std::array<ContinentAsRow, geo::kContinentCount> rows{};
  std::array<std::set<std::string>, geo::kContinentCount> countries;
  for (Continent c : geo::AllContinents()) rows[Idx(c)].continent = c;

  for (const core::AsAggregate& as : exp.filtered.kept) {
    const AsRecord* record = exp.world.as_db().Find(as.asn);
    if (record == nullptr) continue;
    ++rows[Idx(record->continent)].as_count;
    if (!record->country_iso.empty()) {
      countries[Idx(record->continent)].insert(record->country_iso);
    }
  }
  for (Continent c : geo::AllContinents()) {
    ContinentAsRow& row = rows[Idx(c)];
    if (!countries[Idx(c)].empty()) {
      row.avg_per_country =
          static_cast<double>(row.as_count) / countries[Idx(c)].size();
    }
  }
  return {rows.begin(), rows.end()};
}

std::vector<RankedAs> RankAsesByCellDemand(const Experiment& exp) {
  double global_cell = 0.0;
  for (const core::AsAggregate& as : exp.filtered.kept) global_cell += as.cell_demand_du;

  std::vector<RankedAs> ranked;
  ranked.reserve(exp.filtered.kept.size());
  for (const core::AsAggregate& as : exp.filtered.kept) {
    RankedAs r;
    r.asn = as.asn;
    const AsRecord* record = exp.world.as_db().Find(as.asn);
    if (record != nullptr) r.country_iso = record->country_iso;
    r.cell_demand_du = as.cell_demand_du;
    r.share_of_global_cell = global_cell > 0.0 ? as.cell_demand_du / global_cell : 0.0;
    r.mixed = !core::IsDedicated(as);
    ranked.push_back(std::move(r));
  }
  std::sort(ranked.begin(), ranked.end(), [](const RankedAs& a, const RankedAs& b) {
    return a.cell_demand_du > b.cell_demand_du;
  });
  return ranked;
}

std::vector<CountryDemand> CountryDemandReport(const Experiment& exp,
                                               exec::Executor& executor) {
  const auto rows = exp.demand.rows();
  const auto records = exp.world.as_db().records();
  const std::vector<AsNumber> origins = OriginsOf(exp, rows, executor);

  // Cellular demand is counted from the final cellular-address map: a
  // block must be classified cellular AND live in one of the kept
  // cellular ASes — proxy/cloud false positives never reach the map.
  util::StableSet<AsNumber> kept;
  for (const core::AsAggregate& as : exp.filtered.kept) kept.Insert(as.asn);

  // Row i's AS record (nullptr: unrouted, no record or no ISO) and
  // whether its demand counts as cellular.
  std::vector<const AsRecord*> record_of(rows.size());
  std::vector<std::uint8_t> kept_cellular(rows.size());
  executor.ParallelFor(rows.size(), kGrain, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const AsRecord* record = exp.world.as_db().Find(origins[i]);
      if (record == nullptr || record->country_iso.empty()) continue;
      record_of[i] = record;
      kept_cellular[i] = kept.Contains(origins[i]) && exp.classified.IsCellular(rows[i].first);
    }
  });

  // One pass in row order, so each country adds its rows' demand in
  // the order a row-by-row join does. A record finds its country once,
  // when the first of its rows arrives, so only countries with routed
  // demand appear.
  const auto excluded = ExcludedIsos(exp);
  std::map<std::string, CountryDemand> by_iso;
  std::vector<CountryDemand*> country_of(records.size(), nullptr);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AsRecord* record = record_of[i];
    if (record == nullptr) continue;
    CountryDemand*& cd = country_of[static_cast<std::size_t>(record - records.data())];
    if (cd == nullptr) {
      cd = &by_iso[record->country_iso];
      if (cd->iso.empty()) {
        cd->iso = record->country_iso;
        cd->continent = record->continent;
        cd->excluded = excluded.Contains(cd->iso);
      }
    }
    cd->total_du += rows[i].second;
    if (kept_cellular[i]) cd->cell_du += rows[i].second;
  }

  std::vector<CountryDemand> out;
  out.reserve(by_iso.size());
  for (auto& [iso, cd] : by_iso) out.push_back(std::move(cd));
  return out;
}

std::vector<ContinentDemandRow> ContinentDemandReport(const Experiment& exp,
                                                      exec::Executor& executor) {
  const auto countries = CountryDemandReport(exp, executor);
  const auto excluded = ExcludedIsos(exp);

  std::array<ContinentDemandRow, geo::kContinentCount> rows{};
  std::array<double, geo::kContinentCount> cell{};
  std::array<double, geo::kContinentCount> total{};
  for (Continent c : geo::AllContinents()) rows[Idx(c)].continent = c;

  for (const CountryDemand& cd : countries) {
    if (cd.excluded) continue;
    cell[Idx(cd.continent)] += cd.cell_du;
    total[Idx(cd.continent)] += cd.total_du;
  }
  double global_cell = 0.0;
  for (double v : cell) global_cell += v;

  for (Continent c : geo::AllContinents()) {
    ContinentDemandRow& row = rows[Idx(c)];
    row.cell_fraction = total[Idx(c)] > 0.0 ? cell[Idx(c)] / total[Idx(c)] : 0.0;
    row.share_of_global_cell = global_cell > 0.0 ? cell[Idx(c)] / global_cell : 0.0;
    double subs = 0.0;
    for (const geo::Country& country : geo::WorldCountries()) {
      if (country.continent != c) continue;
      if (excluded.Contains(std::string(country.iso2))) continue;
      subs += country.subscribers_millions;
    }
    row.subscribers_m = subs;
    // DU per 1000 subscribers: subscribers are in millions, so per
    // thousand = subs_m * 1000.
    row.demand_per_kilo_sub = subs > 0.0 ? cell[Idx(c)] / (subs * 1000.0) : 0.0;
  }
  return {rows.begin(), rows.end()};
}

RatioDistributions RatioCdfReport(const Experiment& exp, exec::Executor& executor) {
  const auto rows = exp.classified.ratios();
  std::vector<double> demand(rows.size());
  executor.ParallelFor(rows.size(), kGrain, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) demand[i] = exp.demand.DemandOf(rows[i].first);
  });
  std::vector<double> v4_ratios, v6_ratios, v4_weights, v6_weights;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& [block, ratio] = rows[i];
    if (block.family() == netaddr::Family::kIpv4) {
      v4_ratios.push_back(ratio);
      v4_weights.push_back(demand[i]);
    } else {
      v6_ratios.push_back(ratio);
      v6_weights.push_back(demand[i]);
    }
  }
  RatioDistributions out;
  out.v4_subnets = util::EmpiricalCdf(v4_ratios);
  out.v6_subnets = util::EmpiricalCdf(v6_ratios);
  out.v4_demand = util::EmpiricalCdf(v4_ratios, v4_weights);
  out.v6_demand = util::EmpiricalCdf(v6_ratios, v6_weights);
  return out;
}

CandidateAsDistributions CandidateAsReport(const Experiment& exp) {
  std::vector<double> demand;
  std::vector<double> hits;
  demand.reserve(exp.candidates.size());
  hits.reserve(exp.candidates.size());
  for (const core::AsAggregate& as : exp.candidates) {
    demand.push_back(as.cell_demand_du);
    hits.push_back(static_cast<double>(as.beacon_hits));
  }
  CandidateAsDistributions out;
  out.cell_demand = util::EmpiricalCdf(std::move(demand));
  out.beacon_hits = util::EmpiricalCdf(std::move(hits));
  return out;
}

MixedOperatorDistributions MixedOperatorReport(const Experiment& exp) {
  std::vector<double> cfd;
  std::vector<double> subnet_fraction;
  MixedOperatorDistributions out;
  double mixed_cell = 0.0;
  double total_cell = 0.0;
  for (const core::AsAggregate& as : exp.filtered.kept) {
    cfd.push_back(as.Cfd());
    subnet_fraction.push_back(as.CellSubnetFraction());
    total_cell += as.cell_demand_du;
    if (core::IsDedicated(as)) {
      ++out.dedicated_count;
    } else {
      ++out.mixed_count;
      mixed_cell += as.cell_demand_du;
    }
  }
  out.cfd = util::EmpiricalCdf(std::move(cfd));
  out.subnet_fraction = util::EmpiricalCdf(std::move(subnet_fraction));
  out.mixed_share_of_cell_demand = total_cell > 0.0 ? mixed_cell / total_cell : 0.0;
  return out;
}

std::vector<OperatorBlockPoint> OperatorRatioBreakdown(const Experiment& exp, AsNumber asn,
                                                       exec::Executor& executor) {
  const auto rows = exp.classified.ratios();
  const std::vector<std::size_t> picked = RowsOfAs(OriginsOf(exp, rows, executor), asn);
  std::vector<OperatorBlockPoint> out(picked.size());
  executor.ParallelFor(picked.size(), kGrain, [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      const auto& [block, ratio] = rows[picked[k]];
      out[k] = {ratio, exp.demand.DemandOf(block)};
    }
  });
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.ratio < b.ratio;
  });
  return out;
}

SubnetConcentration SubnetConcentrationReport(const Experiment& exp, AsNumber asn,
                                              exec::Executor& executor) {
  const auto rows = exp.demand.rows();
  const std::vector<std::size_t> picked = RowsOfAs(OriginsOf(exp, rows, executor), asn);
  std::vector<std::uint8_t> cellular(picked.size());
  executor.ParallelFor(picked.size(), kGrain, [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      cellular[k] = exp.classified.IsCellular(rows[picked[k]].first);
    }
  });
  SubnetConcentration out;
  for (std::size_t k = 0; k < picked.size(); ++k) {
    const double du = rows[picked[k]].second;
    if (du <= 0.0) continue;
    (cellular[k] ? out.cellular_demands : out.fixed_demands).push_back(du);
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

util::EmpiricalCdf ResolverSharingReport(const Experiment& exp,
                                         const dns::DnsSimulator& dns) {
  util::StableSet<AsNumber> mixed_ases;
  for (const core::AsAggregate& as : exp.filtered.kept) {
    if (!core::IsDedicated(as)) mixed_ases.Insert(as.asn);
  }
  std::vector<double> fractions;
  for (const dns::ResolverStats& r : dns.resolvers()) {
    if (r.public_service.has_value() || !mixed_ases.Contains(r.asn)) continue;
    if (r.TotalDemand() <= 0.0) continue;
    fractions.push_back(r.CellularFraction());
  }
  return util::EmpiricalCdf(std::move(fractions));
}

std::vector<PublicDnsRow> PublicDnsReport(const Experiment& exp,
                                          const dns::DnsSimulator& dns) {
  // The paper's Fig 10 selection, in display order.
  static constexpr std::pair<const char*, int> kSelection[] = {
      {"US", 2}, {"BR", 1}, {"VN", 1}, {"SA", 1}, {"IN", 1},
      {"HK", 2}, {"NG", 1}, {"DZ", 1}};

  util::StableMap<AsNumber, const dns::OperatorDnsUsage*> usage_by_asn;
  for (const dns::OperatorDnsUsage& u : dns.operator_usage()) {
    usage_by_asn.Emplace(u.asn, &u);
  }

  const auto ranked = RankAsesByCellDemand(exp);
  std::vector<PublicDnsRow> out;
  for (const auto& [iso, want] : kSelection) {
    int taken = 0;
    for (const RankedAs& as : ranked) {
      if (taken >= want) break;
      if (as.country_iso != iso) continue;
      const auto* usage = usage_by_asn.Find(as.asn);
      if (usage == nullptr) continue;
      PublicDnsRow row;
      row.label = std::string(iso) + std::to_string(taken + 1);
      row.asn = as.asn;
      row.share = (*usage)->public_share;
      out.push_back(std::move(row));
      ++taken;
    }
  }
  return out;
}

const simnet::OperatorInfo* FindCarrier(const Experiment& exp, char label) {
  for (const simnet::World::Carrier& c : exp.world.validation_carriers()) {
    if (c.label == label) return exp.world.FindOperator(c.asn);
  }
  return nullptr;
}

}  // namespace cellspot::analysis
