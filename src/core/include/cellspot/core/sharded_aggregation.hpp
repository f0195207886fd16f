// Candidate-AS aggregation (§5, DESIGN.md §14): one fold over plain
// per-block items. Two builders produce the items — the dataset join
// (AggregateCandidateAsesSharded) and the stream daemon's slot walk
// (stream::StreamDaemon::ExportCandidates). The fold partitions the
// items by a deterministic hash of their origin AS, lets every shard
// fold its items into per-AS aggregates independently on the executor,
// then merges the per-shard candidate lists in canonical ASN order.
// Because each AS's items land wholly in one shard and keep their item
// order there, every per-AS floating-point fold runs in exactly the
// sequence a single sequential pass uses — the output is byte-identical
// at any shard × thread combination.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cellspot/core/as_pipeline.hpp"
#include "cellspot/exec/executor.hpp"

namespace cellspot::core {

/// Shard count used when AggregationConfig leaves it at 0.
inline constexpr std::size_t kAggregationShards = 8;

struct AggregationConfig {
  /// Number of aggregation shards; 0 picks kAggregationShards.
  /// Output is byte-identical at any value: tests and the bench vary
  /// it, every other caller passes {}.
  std::size_t shards = 0;
};

/// Deterministic shard key: FNV-1a-64 over the ASN's little-endian
/// bytes, reduced mod `shard_count`. Never reads global state — the
/// same (asn, shard_count) pair maps to the same shard on every
/// machine, which is what lets per-shard snapshot sections round-trip.
[[nodiscard]] std::size_t ShardOfAs(asdb::AsNumber asn, std::size_t shard_count) noexcept;

/// One BEACON block as the fold sees it: the block's classification,
/// and its DEMAND when it is cellular, already joined.
struct BeaconItem {
  const netaddr::Prefix* block = nullptr;  // outlives the fold
  std::uint64_t hits = 0;
  double cell_demand_du = 0.0;  // the block's DEMAND when cellular, else 0
  asdb::AsNumber origin = 0;    // 0 (reserved): unrouted
  bool observed = false;        // classified (enough API-enabled hits)
  bool cellular = false;
};

/// One DEMAND block as the fold sees it.
struct DemandItem {
  double du = 0.0;
  asdb::AsNumber origin = 0;  // 0 (reserved): unrouted
};

/// Rows per ResolveOrigins chunk, so per OriginOfBatch call.
inline constexpr std::size_t kResolveGrain = 4096;

/// Origin AS of rows 0..n-1, where row i's address is `address_of(i)`;
/// 0 (reserved) marks unrouted. Each executor chunk gathers its
/// addresses into a chunk-local buffer and resolves them with one
/// OriginOfBatch call, writing each origin at its row index. This is
/// the one batch origin lookup outside asdb.
template <typename AddressOf>
[[nodiscard]] std::vector<asdb::AsNumber> ResolveOrigins(const asdb::RoutingTable& rib,
                                                         std::size_t n,
                                                         const AddressOf& address_of,
                                                         exec::Executor& executor) {
  (void)rib.Flat();  // compile once up front, not under the first chunk's lock
  std::vector<asdb::AsNumber> origins(n, 0);
  executor.ParallelFor(n, kResolveGrain, [&](std::size_t begin, std::size_t end) {
    std::vector<netaddr::IpAddress> addrs(end - begin);
    for (std::size_t i = begin; i < end; ++i) addrs[i - begin] = address_of(i);
    rib.OriginOfBatch(addrs, std::span<asdb::AsNumber>(origins).subspan(begin, end - begin));
  });
  return origins;
}

/// The fold: every routed item into its origin AS's aggregate. Only
/// ASes with at least one cellular block are returned, sorted by ASN,
/// each with its cellular blocks sorted. Per-AS sums run in item order.
/// Emits one "aggregate.shard" trace span per shard, whose items are
/// the routed items it folded, and sets the "aggregate.shards" gauge.
[[nodiscard]] std::vector<AsAggregate> AggregateCandidateItems(
    std::span<const BeaconItem> beacons, std::span<const DemandItem> demand,
    exec::Executor& executor, const AggregationConfig& config = {});

/// Joins classification, beacons and demand by origin AS (via the RIB)
/// into items, item i from dataset row i, written in parallel; then
/// folds them — the §5 "straw-man" candidate set (1,263 ASes in the
/// paper).
[[nodiscard]] std::vector<AsAggregate> AggregateCandidateAsesSharded(
    const asdb::RoutingTable& rib, const ClassifiedSubnets& classified,
    const dataset::BeaconDataset& beacons, const dataset::DemandDataset& demand,
    exec::Executor& executor, const AggregationConfig& config = {});

}  // namespace cellspot::core
