#include "cellspot/asdb/as_database.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "cellspot/obs/metrics.hpp"
#include "cellspot/obs/trace.hpp"

namespace cellspot::asdb {

std::string_view AsClassName(AsClass c) noexcept {
  switch (c) {
    case AsClass::kUnknown: return "Unknown";
    case AsClass::kEnterprise: return "Enterprise";
    case AsClass::kContent: return "Content";
    case AsClass::kTransitAccess: return "Transit/Access";
  }
  return "?";
}

std::string_view OperatorKindName(OperatorKind k) noexcept {
  switch (k) {
    case OperatorKind::kDedicatedCellular: return "DedicatedCellular";
    case OperatorKind::kMixed: return "Mixed";
    case OperatorKind::kFixedOnly: return "FixedOnly";
    case OperatorKind::kCloudHosting: return "CloudHosting";
    case OperatorKind::kMobileProxy: return "MobileProxy";
    case OperatorKind::kTransit: return "Transit";
  }
  return "?";
}

void AsDatabase::Upsert(AsRecord record) {
  if (record.asn == 0) throw std::invalid_argument("AsDatabase::Upsert: asn 0 is reserved");
  const auto [pos, inserted] = index_.Insert(record.asn, records_.size(), AsnAt());
  if (inserted) {
    records_.push_back(std::move(record));
  } else {
    records_[pos] = std::move(record);
  }
}

const AsRecord* AsDatabase::Find(AsNumber asn) const noexcept {
  const std::size_t pos = index_.Find(asn, AsnAt());
  return pos == index_.npos ? nullptr : &records_[pos];
}

RoutingTable::RoutingTable(std::vector<Route> announcements)
    : routes_(std::move(announcements)) {
  const auto by_prefix = [](const Route& a, const Route& b) { return a.first < b.first; };
  if (!std::ranges::is_sorted(routes_, by_prefix)) std::ranges::stable_sort(routes_, by_prefix);
  // Announcements of one prefix are now adjacent in input order; the
  // last of each run wins.
  std::size_t kept = 0;
  for (const Route& route : routes_) {
    if (kept > 0 && routes_[kept - 1].first == route.first) --kept;
    routes_[kept++] = route;
  }
  routes_.resize(kept);
}

RoutingTable::RoutingTable(const RoutingTable& other) : routes_(other.routes_) {
  // The compiled engine is a cache; a copy rebuilds its own on demand.
}

RoutingTable& RoutingTable::operator=(const RoutingTable& other) {
  if (this == &other) return *this;
  routes_ = other.routes_;
  flat_ptr_.store(nullptr, std::memory_order_release);
  flat_.reset();
  return *this;
}

RoutingTable::RoutingTable(RoutingTable&& other) noexcept
    : routes_(std::move(other.routes_)) {
  // Like every assignment, moving is not thread-safe against concurrent
  // lookups on `other`; no lock needed to transfer its cache.
  flat_ = std::move(other.flat_);
  flat_ptr_.store(flat_ ? flat_.get() : nullptr, std::memory_order_release);
  other.flat_ptr_.store(nullptr, std::memory_order_release);
}

RoutingTable& RoutingTable::operator=(RoutingTable&& other) noexcept {
  if (this == &other) return *this;
  routes_ = std::move(other.routes_);
  flat_ = std::move(other.flat_);
  flat_ptr_.store(flat_ ? flat_.get() : nullptr, std::memory_order_release);
  other.flat_ptr_.store(nullptr, std::memory_order_release);
  return *this;
}

std::optional<AsNumber> RoutingTable::OriginOf(const netaddr::IpAddress& addr) const {
  const AsNumber* found = Flat().LongestMatch(addr);
  if (found == nullptr) return std::nullopt;
  return *found;
}

void RoutingTable::OriginOfBatch(std::span<const netaddr::IpAddress> addrs,
                                 std::span<AsNumber> out) const {
  obs::MetricsRegistry::Global().counter("lpm.lookup").Increment(addrs.size());
  Flat().LongestMatchBatch(addrs, out, AsNumber{0});
}

const RoutingTable::FlatRib& RoutingTable::Flat() const {
  if (const FlatRib* published = flat_ptr_.load(std::memory_order_acquire)) {
    return *published;
  }
  std::scoped_lock lock(flat_mu_);
  if (!flat_) {
    obs::TraceSpan span("lpm.build");
    flat_ = std::make_shared<const FlatRib>(FlatRib::Build(routes_));
    auto& reg = obs::MetricsRegistry::Global();
    reg.counter("lpm.build").Increment();
    reg.gauge("lpm.segments").Set(static_cast<double>(flat_->segment_count()));
  }
  flat_ptr_.store(flat_.get(), std::memory_order_release);
  return *flat_;
}

bool RoutingTable::AdoptFlat(FlatRib flat) const {
  if (flat.size() != routes_.size()) return false;
  std::scoped_lock lock(flat_mu_);
  flat_ = std::make_shared<const FlatRib>(std::move(flat));
  flat_ptr_.store(flat_.get(), std::memory_order_release);
  obs::MetricsRegistry::Global().counter("lpm.adopt").Increment();
  return true;
}

}  // namespace cellspot::asdb
