// The synthetic Internet the reproduction runs against: countries,
// operators (ASes), their announced /24 and /48 blocks, per-block ground
// truth (cellular vs fixed access), expected demand and beacon behaviour.
//
// World::Generate is deterministic in the config seed. The CDN simulator
// (src/cdn) turns a World into BEACON and DEMAND logs; the core pipeline
// then re-discovers the structure encoded here, and the experiments
// compare what it finds against this ground truth.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cellspot/asdb/as_database.hpp"
#include "cellspot/netaddr/prefix.hpp"
#include "cellspot/simnet/world_config.hpp"
#include "cellspot/util/stable_map.hpp"

namespace cellspot::exec {
class Executor;
}

namespace cellspot::snapshot {
struct Access;
}

namespace cellspot::simnet {

/// One announced /24 (IPv4) or /48 (IPv6) block and its ground truth.
struct Subnet {
  netaddr::Prefix block;
  asdb::AsNumber asn = 0;
  std::uint16_t country = kNoCountryIndex;  // index into config().countries
  bool truth_cellular = false;     // true access technology of the block
  bool proxy_terminating = false;  // beacon labels reflect remote mobile clients
  bool in_demand_snapshot = true;  // appears in the one-week DEMAND window
  double demand_du = 0.0;          // expected platform demand (0 = allocated, inactive)
  double beacon_scale = 1.0;       // hit-volume multiplier (0 = no JS clients)
  double tether_rate = -1.0;       // cellular only; <0 = noise-model default
  double mobile_share = -1.0;      // fraction of hits from mobile devices;
                                   // set at generation (phones dominate
                                   // cellular blocks but also appear on
                                   // fixed lines via WiFi offload)

  static constexpr std::uint16_t kNoCountryIndex = 0xFFFF;
};

/// One autonomous system and its ground-truth business profile.
struct OperatorInfo {
  asdb::AsNumber asn = 0;
  asdb::OperatorKind kind = asdb::OperatorKind::kFixedOnly;
  std::uint16_t country = Subnet::kNoCountryIndex;
  std::string country_iso;  // empty for global infrastructure ASes
  geo::Continent continent = geo::Continent::kNorthAmerica;
  double cell_demand_du = 0.0;   // expected, ground truth
  double fixed_demand_du = 0.0;  // expected, ground truth
  double public_dns_fraction = 0.0;
  bool ipv6_cellular = false;
  char validation_label = 0;  // 'A'/'B'/'C' for the Table-3 carriers, else 0
  std::uint32_t subnet_begin = 0;  // contiguous range in World::subnets()
  std::uint32_t subnet_end = 0;
};

class World {
 public:
  /// Build the full world from a validated config. Deterministic in
  /// config.seed. Runs on the shared executor; the result is
  /// byte-identical at any thread count (countries are generated in
  /// parallel from precomputed RNG streams, then merged in a fixed
  /// order that performs every order-sensitive step — ASN assignment,
  /// block allocation, RIB announcement, shared-stream draws — exactly
  /// as the sequential generator did).
  [[nodiscard]] static World Generate(const WorldConfig& config);

  /// Same, on an explicit executor.
  [[nodiscard]] static World Generate(const WorldConfig& config, exec::Executor& executor);

  [[nodiscard]] const WorldConfig& config() const noexcept { return config_; }
  [[nodiscard]] const asdb::AsDatabase& as_db() const noexcept { return as_db_; }
  [[nodiscard]] const asdb::RoutingTable& rib() const noexcept { return rib_; }
  [[nodiscard]] std::span<const Subnet> subnets() const noexcept { return subnets_; }
  [[nodiscard]] std::span<const OperatorInfo> operators() const noexcept {
    return operators_;
  }

  [[nodiscard]] const OperatorInfo* FindOperator(asdb::AsNumber asn) const noexcept;

  /// The subnets announced by one operator (contiguous by construction).
  [[nodiscard]] std::span<const Subnet> SubnetsOf(const OperatorInfo& op) const;

  /// Ground-truth lookup by exact block; nullptr if not announced.
  [[nodiscard]] const Subnet* FindSubnet(const netaddr::Prefix& block) const noexcept;

  /// The three operators acting as the paper's ground-truth carriers
  /// (A: large mixed European, B: large dedicated U.S., C: mixed Middle
  /// East), chosen deterministically from the generated world.
  struct Carrier {
    asdb::AsNumber asn = 0;
    char label = 0;
  };
  [[nodiscard]] std::span<const Carrier> validation_carriers() const noexcept {
    return carriers_;
  }

  /// Profile of the country a subnet belongs to; nullptr for global
  /// infrastructure subnets.
  [[nodiscard]] const CountryProfile* CountryOf(const Subnet& s) const noexcept;

 private:
  WorldConfig config_;
  asdb::AsDatabase as_db_;
  asdb::RoutingTable rib_;
  std::vector<Subnet> subnets_;
  std::vector<OperatorInfo> operators_;
  util::PositionIndex<asdb::AsNumber> op_index_;       // positions in operators_
  util::PositionIndex<netaddr::Prefix> block_index_;  // positions in subnets_
  std::vector<Carrier> carriers_;

  [[nodiscard]] auto AsnAt() const noexcept {
    return [this](std::size_t i) { return operators_[i].asn; };
  }
  [[nodiscard]] auto BlockAt() const noexcept {
    return [this](std::size_t i) -> const netaddr::Prefix& { return subnets_[i].block; };
  }

  friend class WorldBuilder;
  friend struct snapshot::Access;  // binary snapshot serde (src/snapshot)
};

}  // namespace cellspot::simnet
