// Candidate-AS aggregation (§5, DESIGN.md §14): partition the
// beacon/demand items by a deterministic hash of their origin AS, let
// every shard fold its items into per-AS aggregates independently on
// the executor, then merge the per-shard candidate lists in canonical
// ASN order. Because each AS's items land wholly in one shard and keep
// their dataset iteration order there, every per-AS floating-point fold
// runs in exactly the sequence a single sequential pass uses — the
// output is byte-identical at any shard × thread combination.
#pragma once

#include <cstddef>
#include <vector>

#include "cellspot/core/as_pipeline.hpp"

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

/// Joins classification, beacons and demand by origin AS (via the RIB).
/// Only ASes with at least one classified-cellular block are returned,
/// sorted by ASN — the §5 "straw-man" candidate set (1,263 ASes in the
/// paper). Emits one "aggregate.shard" trace span per shard and sets
/// the "aggregate.shards" gauge.
[[nodiscard]] std::vector<AsAggregate> AggregateCandidateAsesSharded(
    const asdb::RoutingTable& rib, const ClassifiedSubnets& classified,
    const dataset::BeaconDataset& beacons, const dataset::DemandDataset& demand,
    exec::Executor& executor, const AggregationConfig& config = {});

}  // namespace cellspot::core
