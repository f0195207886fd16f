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

constexpr std::size_t kGrain = 4096;

/// Indices of the routed items, one list per shard, in item order.
template <typename Item>
std::vector<std::vector<std::uint32_t>> PartitionByShard(std::span<const Item> items,
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

std::vector<AsAggregate> AggregateCandidateItems(std::span<const BeaconItem> beacons,
                                                 std::span<const DemandItem> demand,
                                                 exec::Executor& executor,
                                                 const AggregationConfig& config) {
  const std::size_t shards =
      config.shards != 0 ? config.shards : kAggregationShards;

  // Partition sequentially so every shard sees its items in item order
  // — the order the per-AS floating-point folds below depend on.
  // Unrouted items belong to no AS and are skipped.
  const auto beacon_idx = PartitionByShard(beacons, shards);
  const auto demand_idx = PartitionByShard(demand, shards);

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
          const BeaconItem& item = beacons[i];
          AsAggregate& agg = slot(item.origin);
          const bool v4 = item.block->family() == netaddr::Family::kIpv4;
          agg.beacon_hits += item.hits;
          if (item.observed) ++(v4 ? agg.observed_blocks_v4 : agg.observed_blocks_v6);
          if (item.cellular) {
            ++(v4 ? agg.cell_blocks_v4 : agg.cell_blocks_v6);
            agg.cellular_blocks.push_back(*item.block);
            agg.cell_demand_du += item.cell_demand_du;
          }
        }
        // Demand side, which also covers blocks with no beacons at all.
        for (const std::uint32_t i : demand_idx[shard]) {
          AsAggregate& agg = slot(demand[i].origin);
          agg.total_demand_du += demand[i].du;
          ++agg.demand_blocks;
        }

        std::vector<AsAggregate>& candidates = results[shard];
        for (auto& [asn, agg] : by_asn) {
          if (agg.cell_blocks_v4 + agg.cell_blocks_v6 == 0) continue;
          std::sort(agg.cellular_blocks.begin(), agg.cellular_blocks.end());
          candidates.push_back(std::move(agg));
        }
        span.set_items(beacon_idx[shard].size() + demand_idx[shard].size());
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

std::vector<AsAggregate> AggregateCandidateAsesSharded(
    const asdb::RoutingTable& rib, const ClassifiedSubnets& classified,
    const dataset::BeaconDataset& beacons, const dataset::DemandDataset& demand,
    exec::Executor& executor, const AggregationConfig& config) {
  const auto beacon_rows = beacons.rows();
  const auto demand_rows = demand.rows();
  const std::vector<AsNumber> beacon_origins = ResolveOrigins(
      rib, beacon_rows.size(), [&](std::size_t i) { return beacon_rows[i].first.address(); },
      executor);
  const std::vector<AsNumber> demand_origins = ResolveOrigins(
      rib, demand_rows.size(), [&](std::size_t i) { return demand_rows[i].first.address(); },
      executor);

  // Item i from row i: the per-block probes run in parallel, and the
  // items keep the datasets' row order the fold depends on.
  std::vector<BeaconItem> beacon_items(beacon_rows.size());
  executor.ParallelFor(beacon_rows.size(), kGrain, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const auto& [block, stats] = beacon_rows[i];
      const bool cellular = classified.IsCellular(block);
      beacon_items[i] = {.block = &block,
                         .hits = stats.hits,
                         .cell_demand_du = cellular ? demand.DemandOf(block) : 0.0,
                         .origin = beacon_origins[i],
                         .observed = classified.RatioOf(block) != nullptr,
                         .cellular = cellular};
    }
  });
  std::vector<DemandItem> demand_items(demand_rows.size());
  executor.ParallelFor(demand_rows.size(), kGrain, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      demand_items[i] = {.du = demand_rows[i].second, .origin = demand_origins[i]};
    }
  });
  return AggregateCandidateItems(beacon_items, demand_items, executor, config);
}

}  // namespace cellspot::core
