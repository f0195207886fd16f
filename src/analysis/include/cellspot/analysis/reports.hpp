// Report builders for every table and figure of the paper's evaluation.
// Each function consumes an Experiment (and, where needed, the DNS
// simulator) and returns plain data the bench harnesses render.
//
// The per-block reports read their rows by position: a report that
// joins rows to their origin ASes does so in one core::ResolveOrigins
// batch, the per-row probes run at row index on `executor`, and every
// order-sensitive sum is one sequential pass in row order, so the
// result is identical at any thread count.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "cellspot/analysis/experiment.hpp"
#include "cellspot/dns/dns_simulator.hpp"
#include "cellspot/exec/executor.hpp"
#include "cellspot/geo/continent.hpp"
#include "cellspot/util/stats.hpp"

namespace cellspot::analysis {

// ---- Table 2 -------------------------------------------------------------

struct DatasetSummary {
  std::size_t beacon_v4_blocks = 0;
  std::size_t beacon_v6_blocks = 0;
  std::size_t demand_v4_blocks = 0;
  std::size_t demand_v6_blocks = 0;
  /// Share of DEMAND v4 blocks also observed by BEACON (§3.2: 73%).
  double beacon_coverage_of_demand_v4 = 0.0;
  /// Share of DEMAND weight observed by BEACON (§3.2: 92%).
  double beacon_coverage_of_demand_weight = 0.0;
};

[[nodiscard]] DatasetSummary SummarizeDatasets(
    const Experiment& exp, exec::Executor& executor = exec::Executor::Shared());

// ---- Table 4 / Table 6 ----------------------------------------------------

struct ContinentSubnetRow {
  geo::Continent continent;
  std::size_t cell_v4 = 0;
  std::size_t cell_v6 = 0;
  double pct_active_v4 = 0.0;  // cellular share of observed v4 blocks
  double pct_active_v6 = 0.0;
};

/// Table 4: detected cellular subnets per continent. Continent comes from
/// the origin AS's registry record, as the paper does.
[[nodiscard]] std::vector<ContinentSubnetRow> ContinentSubnetReport(
    const Experiment& exp, exec::Executor& executor = exec::Executor::Shared());

struct ContinentAsRow {
  geo::Continent continent;
  std::size_t as_count = 0;
  double avg_per_country = 0.0;  // countries with >= 1 cellular AS
};

/// Table 6: filtered cellular ASes per continent.
[[nodiscard]] std::vector<ContinentAsRow> ContinentAsReport(const Experiment& exp);

// ---- Table 7 / Fig 7 -------------------------------------------------------

struct RankedAs {
  asdb::AsNumber asn = 0;
  std::string country_iso;
  double cell_demand_du = 0.0;
  double share_of_global_cell = 0.0;
  bool mixed = false;  // CFD < 0.9
};

/// Cellular ASes ranked by detected cellular demand (Fig 7 full series;
/// Table 7 is the top 10).
[[nodiscard]] std::vector<RankedAs> RankAsesByCellDemand(const Experiment& exp);

// ---- Table 8 / Figs 11-12 ---------------------------------------------------

struct CountryDemand {
  std::string iso;
  geo::Continent continent;
  double cell_du = 0.0;
  double total_du = 0.0;
  bool excluded = false;  // China: demand not trusted (§7.1)

  [[nodiscard]] double CellFraction() const noexcept {
    return total_du > 0.0 ? cell_du / total_du : 0.0;
  }
};

/// Per-country measured demand, attributed via origin AS registry
/// records. Excluded countries are present but flagged.
[[nodiscard]] std::vector<CountryDemand> CountryDemandReport(
    const Experiment& exp, exec::Executor& executor = exec::Executor::Shared());

struct ContinentDemandRow {
  geo::Continent continent;
  double cell_fraction = 0.0;       // of the continent's demand
  double share_of_global_cell = 0.0;
  double subscribers_m = 0.0;
  double demand_per_kilo_sub = 0.0;  // DU per 1000 subscribers
};

/// Table 8 (excludes flagged countries from the demand sums, and their
/// subscribers from the subscriber column, as the paper does for China).
[[nodiscard]] std::vector<ContinentDemandRow> ContinentDemandReport(
    const Experiment& exp, exec::Executor& executor = exec::Executor::Shared());

// ---- Fig 2 ------------------------------------------------------------------

struct RatioDistributions {
  util::EmpiricalCdf v4_subnets;
  util::EmpiricalCdf v6_subnets;
  util::EmpiricalCdf v4_demand;  // ratio weighted by block demand
  util::EmpiricalCdf v6_demand;
};

[[nodiscard]] RatioDistributions RatioCdfReport(
    const Experiment& exp, exec::Executor& executor = exec::Executor::Shared());

// ---- Fig 4 ------------------------------------------------------------------

struct CandidateAsDistributions {
  util::EmpiricalCdf cell_demand;   // per candidate AS
  util::EmpiricalCdf beacon_hits;   // per candidate AS
};

[[nodiscard]] CandidateAsDistributions CandidateAsReport(const Experiment& exp);

// ---- Fig 5 ------------------------------------------------------------------

struct MixedOperatorDistributions {
  util::EmpiricalCdf cfd;              // cellular fraction of demand per AS
  util::EmpiricalCdf subnet_fraction;  // cellular fraction of subnets per AS
  std::size_t mixed_count = 0;         // CFD < 0.9
  std::size_t dedicated_count = 0;
  double mixed_share_of_cell_demand = 0.0;
};

[[nodiscard]] MixedOperatorDistributions MixedOperatorReport(const Experiment& exp);

// ---- Fig 6 ------------------------------------------------------------------

/// (cellular ratio, demand) per observed block of one AS; the bench
/// renders subnet-fraction and demand-fraction CDFs against ratio.
struct OperatorBlockPoint {
  double ratio = 0.0;
  double demand_du = 0.0;
};

[[nodiscard]] std::vector<OperatorBlockPoint> OperatorRatioBreakdown(
    const Experiment& exp, asdb::AsNumber asn,
    exec::Executor& executor = exec::Executor::Shared());

// ---- Fig 8 ------------------------------------------------------------------

struct SubnetConcentration {
  std::vector<double> cellular_demands;  // descending
  std::vector<double> fixed_demands;     // descending
  std::size_t blocks_for_99pct_cell = 0;  // smallest prefix count covering 99%
  double cellular_gini = 0.0;  // concentration of cellular demand across blocks
  double fixed_gini = 0.0;     // ... vs the gradual fixed-line distribution
};

[[nodiscard]] SubnetConcentration SubnetConcentrationReport(
    const Experiment& exp, asdb::AsNumber asn,
    exec::Executor& executor = exec::Executor::Shared());

// ---- Figs 9-10 ---------------------------------------------------------------

/// Fig 9: cellular fraction per resolver across the *mixed* cellular
/// ASes (unweighted CDF over resolvers).
[[nodiscard]] util::EmpiricalCdf ResolverSharingReport(const Experiment& exp,
                                                       const dns::DnsSimulator& dns);

struct PublicDnsRow {
  std::string label;  // "US1", "DZ1", ...
  asdb::AsNumber asn = 0;
  std::array<double, dns::kPublicDnsServiceCount> share{};  // of cellular demand
};

/// Fig 10: public DNS usage for the paper's selection of operators
/// (two U.S., BR, VN, SA, IN, two HK, NG, DZ) — for each country the
/// top cellular ASes by demand.
[[nodiscard]] std::vector<PublicDnsRow> PublicDnsReport(const Experiment& exp,
                                                        const dns::DnsSimulator& dns);

// ---- helpers ------------------------------------------------------------------

/// The operator handle for a validation carrier ('A', 'B' or 'C');
/// nullptr if this world has no such carrier.
[[nodiscard]] const simnet::OperatorInfo* FindCarrier(const Experiment& exp, char label);

}  // namespace cellspot::analysis
