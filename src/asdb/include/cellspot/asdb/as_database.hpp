// In-memory AS registry plus a routing table mapping announced prefixes to
// their origin AS, the substrate for the paper's prefix-to-AS attribution.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "cellspot/asdb/as_record.hpp"
#include "cellspot/netaddr/flat_lpm.hpp"
#include "cellspot/netaddr/prefix.hpp"
#include "cellspot/util/ordered_mutex.hpp"
#include "cellspot/util/stable_map.hpp"

namespace cellspot::asdb {

/// Registry of AS records keyed by ASN.
class AsDatabase {
 public:
  /// Insert or replace a record. Throws std::invalid_argument on asn 0.
  void Upsert(AsRecord record);

  [[nodiscard]] const AsRecord* Find(AsNumber asn) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

  /// All records in insertion order.
  [[nodiscard]] std::span<const AsRecord> records() const noexcept { return records_; }

 private:
  [[nodiscard]] auto AsnAt() const noexcept {
    return [this](std::size_t i) { return records_[i].asn; };
  }

  std::vector<AsRecord> records_;
  util::PositionIndex<AsNumber> index_;  // positions in records_
};

/// Announced-prefix table with longest-prefix-match origin lookup.
///
/// The routes are one immutable vector of (prefix, origin) in Prefix
/// order, fixed at construction. Every longest-prefix lookup (OriginOf,
/// OriginOfBatch) runs against the compiled netaddr::FlatLpm, built
/// from that vector in one sweep on first use (Flat()) or adopted
/// precompiled from a memory-mapped snapshot (AdoptFlat). Concurrent
/// const lookups are safe.
class RoutingTable {
 public:
  using FlatRib = netaddr::FlatLpm<AsNumber>;
  using Route = std::pair<netaddr::Prefix, AsNumber>;

  RoutingTable() = default;

  /// The table of `announcements`, in any order. A later announcement
  /// of the same prefix overwrites an earlier one, mimicking a
  /// most-recent-RIB view. Sorts only when the input is not already in
  /// Prefix order.
  explicit RoutingTable(std::vector<Route> announcements);

  RoutingTable(const RoutingTable& other);
  RoutingTable& operator=(const RoutingTable& other);
  RoutingTable(RoutingTable&& other) noexcept;
  RoutingTable& operator=(RoutingTable&& other) noexcept;
  ~RoutingTable() = default;

  /// Origin AS of the most specific covering announcement, if any,
  /// from the compiled engine (built on first use).
  [[nodiscard]] std::optional<AsNumber> OriginOf(const netaddr::IpAddress& addr) const;

  /// Batch origin lookup over the compiled engine (built on first use):
  /// out[i] is the origin of addrs[i], or 0 — a reserved, never-announced
  /// ASN — when no announcement covers it. Spans must match in length.
  void OriginOfBatch(std::span<const netaddr::IpAddress> addrs,
                     std::span<AsNumber> out) const;

  /// Every route, one per distinct prefix, in Prefix order.
  [[nodiscard]] std::span<const Route> entries() const noexcept { return routes_; }

  [[nodiscard]] std::size_t size() const noexcept { return routes_.size(); }

  /// The compiled flat engine, building (and caching) it on first use.
  /// Logically const: the engine is a cache over the routes. A build is
  /// one 'lpm.build' span and counts 'lpm.build' and 'lpm.segments'.
  [[nodiscard]] const FlatRib& Flat() const;

  /// Adopt a precompiled engine — the warm-start path, typically a
  /// zero-copy view into a memory-mapped snapshot. The only check is
  /// the prefix count: returns false (and keeps the current state) when
  /// the engine holds a different number of prefixes than this table.
  /// An engine with the same count but other routes is adopted, so the
  /// caller must key it to the same RIB (the stage cache keys it by the
  /// world config that generated both).
  bool AdoptFlat(FlatRib flat) const;

  /// True once a compiled engine is serving lookups.
  [[nodiscard]] bool has_flat() const noexcept {
    return flat_ptr_.load(std::memory_order_acquire) != nullptr;
  }

 private:
  std::vector<Route> routes_;

  // Compiled-engine cache: flat_ owns, flat_ptr_ publishes (release on
  // store, acquire on load) so hot-path readers skip the mutex.
  mutable util::OrderedMutex flat_mu_{"asdb.RoutingTable.flat"};
  mutable std::shared_ptr<const FlatRib> flat_;
  mutable std::atomic<const FlatRib*> flat_ptr_{nullptr};
};

}  // namespace cellspot::asdb
