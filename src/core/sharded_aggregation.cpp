#include "cellspot/core/sharded_aggregation.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "cellspot/exec/executor.hpp"
#include "cellspot/obs/metrics.hpp"
#include "cellspot/obs/trace.hpp"
#include "cellspot/util/stable_map.hpp"

namespace cellspot::core {

namespace {

using asdb::AsNumber;

struct BeaconItem {
  const netaddr::Prefix* block;
  const dataset::BeaconBlockStats* stats;
  AsNumber origin = 0;  // 0 is reserved: unrouted
};

struct DemandItem {
  const netaddr::Prefix* block;
  double du;
  AsNumber origin = 0;  // 0 is reserved: unrouted
};

/// Fill in every item's origin AS (the longest-prefix-match walk
/// dominates the stage) in parallel chunk batches.
template <typename Item>
void ResolveOrigins(const asdb::RoutingTable& rib, std::vector<Item>& items,
                    exec::Executor& executor) {
  constexpr std::size_t kGrain = 4096;
  std::vector<netaddr::IpAddress> addrs(items.size());
  std::vector<AsNumber> origins(items.size(), 0);
  for (std::size_t i = 0; i < items.size(); ++i) addrs[i] = items[i].block->address();
  executor.ParallelFor(items.size(), kGrain, [&](std::size_t begin, std::size_t end) {
    rib.OriginOfBatch(std::span<const netaddr::IpAddress>(addrs).subspan(begin, end - begin),
                      std::span<AsNumber>(origins).subspan(begin, end - begin));
  });
  for (std::size_t i = 0; i < items.size(); ++i) items[i].origin = origins[i];
}

/// Indices of the routed items, one list per shard, in item order.
template <typename Item>
std::vector<std::vector<std::uint32_t>> PartitionByShard(const std::vector<Item>& items,
                                                         std::size_t shards) {
  std::vector<std::vector<std::uint32_t>> idx(shards);
  for (std::uint32_t i = 0; i < items.size(); ++i) {
    if (items[i].origin == 0) continue;
    idx[ShardOfAs(items[i].origin, shards)].push_back(i);
  }
  return idx;
}

}  // namespace

std::size_t ShardOfAs(AsNumber asn, std::size_t shard_count) noexcept {
  if (shard_count <= 1) return 0;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::uint32_t v = asn;
  for (int i = 0; i < 4; ++i) {
    h ^= v & 0xFFU;
    h *= 0x100000001b3ULL;
    v >>= 8;
  }
  return static_cast<std::size_t>(h % shard_count);
}

std::vector<AsAggregate> AggregateCandidateAsesSharded(
    const asdb::RoutingTable& rib, const ClassifiedSubnets& classified,
    const dataset::BeaconDataset& beacons, const dataset::DemandDataset& demand,
    exec::Executor& executor, const AggregationConfig& config) {
  const std::size_t shards =
      config.shards != 0 ? config.shards : kAggregationShards;

  std::vector<BeaconItem> beacon_items;
  beacon_items.reserve(beacons.block_count());
  beacons.ForEach([&](const netaddr::Prefix& block, const dataset::BeaconBlockStats& stats) {
    beacon_items.push_back({&block, &stats});
  });
  std::vector<DemandItem> demand_items;
  demand_items.reserve(demand.block_count());
  demand.ForEach([&](const netaddr::Prefix& block, double du) {
    demand_items.push_back({&block, du});
  });
  (void)rib.Flat();  // compile once up front, not under the first chunk's lock
  ResolveOrigins(rib, beacon_items, executor);
  ResolveOrigins(rib, demand_items, executor);

  // Partition sequentially so every shard sees its items in dataset
  // iteration order — the order the per-AS floating-point folds below
  // depend on. Unrouted items belong to no AS and are skipped.
  const auto beacon_idx = PartitionByShard(beacon_items, shards);
  const auto demand_idx = PartitionByShard(demand_items, shards);

  // One chunk per shard: the chunk index *is* the shard id, so the
  // executor decides only when a shard runs, never what it holds.
  std::vector<std::vector<AsAggregate>> results(shards);
  executor.ParallelForChunks(
      shards, 1, [&](std::size_t /*begin*/, std::size_t /*end*/, std::size_t shard) {
        obs::TraceSpan span("aggregate.shard");
        // StableMap: candidate extraction iterates this map, so its
        // order must come from the item sequence, not hashing.
        util::StableMap<AsNumber, AsAggregate> by_asn;
        const auto slot = [&](AsNumber asn) -> AsAggregate& {
          AsAggregate& agg = by_asn[asn];
          agg.asn = asn;
          return agg;
        };

        // Beacon side: observed blocks, hits, cellular detections.
        for (const std::uint32_t i : beacon_idx[shard]) {
          const BeaconItem& item = beacon_items[i];
          const netaddr::Prefix& block = *item.block;
          AsAggregate& agg = slot(item.origin);
          agg.beacon_hits += item.stats->hits;
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
        // Demand side, which also covers blocks with no beacons at all.
        for (const std::uint32_t i : demand_idx[shard]) {
          AsAggregate& agg = slot(demand_items[i].origin);
          agg.total_demand_du += demand_items[i].du;
          ++agg.demand_blocks;
        }

        std::vector<AsAggregate>& candidates = results[shard];
        for (auto& [asn, agg] : by_asn) {
          if (agg.cell_blocks_v4 + agg.cell_blocks_v6 == 0) continue;
          std::sort(agg.cellular_blocks.begin(), agg.cellular_blocks.end());
          candidates.push_back(std::move(agg));
        }
        span.set_items(candidates.size());
      });

  // Canonical merge: concatenate in shard-index order, then one global
  // sort by ASN. Every AS lives wholly inside one shard, so the merge
  // moves finished aggregates around — it never re-folds a float.
  std::vector<AsAggregate> candidates;
  std::size_t total = 0;
  for (const auto& r : results) total += r.size();
  candidates.reserve(total);
  for (auto& r : results) {
    for (AsAggregate& agg : r) candidates.push_back(std::move(agg));
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const AsAggregate& a, const AsAggregate& b) { return a.asn < b.asn; });

  obs::MetricsRegistry::Global().gauge("aggregate.shards").Set(static_cast<double>(shards));
  return candidates;
}

}  // namespace cellspot::core
