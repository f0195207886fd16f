// Reference candidate-AS aggregation for the differential tests and
// bench_sharded_aggregation: origin lookups run in parallel, then one
// sequential fold over both datasets in iteration order. Its output
// must match core::AggregateCandidateAsesSharded bit for bit, floats
// included, at any shard and thread count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "cellspot/core/as_pipeline.hpp"
#include "cellspot/exec/executor.hpp"
#include "cellspot/util/stable_map.hpp"

namespace cellspot::test_support {

/// Origin AS of every block, in order; 0 (reserved) marks unrouted.
inline std::vector<asdb::AsNumber> ResolveOrigins(const asdb::RoutingTable& rib,
                                                  const std::vector<netaddr::IpAddress>& addrs,
                                                  exec::Executor& executor) {
  constexpr std::size_t kGrain = 4096;
  std::vector<asdb::AsNumber> origins(addrs.size(), 0);
  executor.ParallelFor(addrs.size(), kGrain, [&](std::size_t begin, std::size_t end) {
    rib.OriginOfBatch(
        std::span<const netaddr::IpAddress>(addrs).subspan(begin, end - begin),
        std::span<asdb::AsNumber>(origins).subspan(begin, end - begin));
  });
  return origins;
}

inline std::vector<core::AsAggregate> AggregateCandidateAsesSequential(
    const asdb::RoutingTable& rib, const core::ClassifiedSubnets& classified,
    const dataset::BeaconDataset& beacons, const dataset::DemandDataset& demand,
    exec::Executor& executor) {
  const auto beacon_rows = beacons.rows();
  const auto demand_rows = demand.rows();
  std::vector<netaddr::IpAddress> beacon_addrs;
  for (const auto& row : beacon_rows) beacon_addrs.push_back(row.first.address());
  std::vector<netaddr::IpAddress> demand_addrs;
  for (const auto& row : demand_rows) demand_addrs.push_back(row.first.address());
  const auto beacon_origins = ResolveOrigins(rib, beacon_addrs, executor);
  const auto demand_origins = ResolveOrigins(rib, demand_addrs, executor);

  // StableMap: the candidate extraction below iterates this map, so its
  // order must come from the dataset insertion sequence, not hashing.
  util::StableMap<asdb::AsNumber, core::AsAggregate> by_asn;
  auto slot = [&](asdb::AsNumber asn) -> core::AsAggregate& {
    core::AsAggregate& agg = by_asn[asn];
    agg.asn = asn;
    return agg;
  };

  // Beacon-side aggregation: observed blocks, hits, cellular detections.
  for (std::size_t i = 0; i < beacon_rows.size(); ++i) {
    if (beacon_origins[i] == 0) continue;
    const auto& [block, stats] = beacon_rows[i];
    core::AsAggregate& agg = slot(beacon_origins[i]);
    agg.beacon_hits += stats.hits;
    if (classified.RatioOf(block) != nullptr) {
      if (block.family() == netaddr::Family::kIpv4) ++agg.observed_blocks_v4;
      else ++agg.observed_blocks_v6;
    }
    if (classified.IsCellular(block)) {
      if (block.family() == netaddr::Family::kIpv4) ++agg.cell_blocks_v4;
      else ++agg.cell_blocks_v6;
      agg.cellular_blocks.push_back(block);
      agg.cell_demand_du += demand.DemandOf(block);
    }
  }

  // Demand-side aggregation covers blocks with no beacons at all.
  for (std::size_t i = 0; i < demand_rows.size(); ++i) {
    if (demand_origins[i] == 0) continue;
    core::AsAggregate& agg = slot(demand_origins[i]);
    agg.total_demand_du += demand_rows[i].second;
    ++agg.demand_blocks;
  }

  std::vector<core::AsAggregate> candidates;
  candidates.reserve(by_asn.size());
  for (auto& [asn, agg] : by_asn) {
    if (agg.cell_blocks_v4 + agg.cell_blocks_v6 == 0) continue;
    std::sort(agg.cellular_blocks.begin(), agg.cellular_blocks.end());
    candidates.push_back(std::move(agg));
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const core::AsAggregate& a, const core::AsAggregate& b) {
              return a.asn < b.asn;
            });
  return candidates;
}

}  // namespace cellspot::test_support
