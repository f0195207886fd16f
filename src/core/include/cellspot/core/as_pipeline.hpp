// Cellular AS identification (§5): aggregate classified subnets, beacon
// hits and demand per origin AS, then apply the paper's three filter
// heuristics (Table 5) to separate true cellular access networks from
// proxies, clouds and noise.
#pragma once

#include <cstdint>
#include <vector>

#include "cellspot/asdb/as_database.hpp"
#include "cellspot/core/classifier.hpp"
#include "cellspot/dataset/beacon_dataset.hpp"
#include "cellspot/dataset/demand_dataset.hpp"

namespace cellspot::core {

/// Everything the pipeline knows about one AS after aggregation
/// (AggregateCandidateAsesSharded, sharded_aggregation.hpp).
struct AsAggregate {
  asdb::AsNumber asn = 0;

  std::size_t cell_blocks_v4 = 0;  // classified-cellular blocks
  std::size_t cell_blocks_v6 = 0;
  std::size_t observed_blocks_v4 = 0;  // blocks with classifiable beacons
  std::size_t observed_blocks_v6 = 0;
  std::size_t demand_blocks = 0;  // blocks present in DEMAND

  double cell_demand_du = 0.0;   // demand of classified-cellular blocks
  double total_demand_du = 0.0;  // demand of all of the AS's blocks
  std::uint64_t beacon_hits = 0;

  std::vector<netaddr::Prefix> cellular_blocks;  // the detected blocks

  /// Cellular fraction of demand — CFD (§6.1).
  [[nodiscard]] double Cfd() const noexcept {
    return total_demand_du > 0.0 ? cell_demand_du / total_demand_du : 0.0;
  }

  /// Fraction of observed blocks classified cellular.
  [[nodiscard]] double CellSubnetFraction() const noexcept {
    const std::size_t observed = observed_blocks_v4 + observed_blocks_v6;
    return observed > 0
               ? static_cast<double>(cell_blocks_v4 + cell_blocks_v6) / observed
               : 0.0;
  }
};

/// §5.1 filter heuristics with the paper's default cut-offs.
struct AsFilterConfig {
  double min_cell_demand_du = 0.1;  // rule 1
  std::uint64_t min_beacon_hits = 300;  // rule 2
  bool require_transit_access_class = true;  // rule 3 (CAIDA)
};

struct AsFilterOutcome {
  std::vector<AsAggregate> kept;
  std::size_t input_count = 0;
  std::size_t removed_low_demand = 0;  // rule 1
  std::size_t removed_low_hits = 0;    // rule 2
  std::size_t removed_class = 0;       // rule 3
};

/// Apply the three rules in the paper's order. ASes missing from the
/// database count as "no known class" and fall to rule 3.
[[nodiscard]] AsFilterOutcome ApplyAsFilters(std::vector<AsAggregate> candidates,
                                             const asdb::AsDatabase& as_db,
                                             const AsFilterConfig& config = {});

/// Mixed/dedicated classification (§6.1): CFD >= 0.9 marks a dedicated
/// cellular AS, anything lower (but still a cellular AS) is mixed.
inline constexpr double kDedicatedCfdThreshold = 0.9;

[[nodiscard]] inline bool IsDedicated(const AsAggregate& as) noexcept {
  return as.Cfd() >= kDedicatedCfdThreshold;
}

}  // namespace cellspot::core
