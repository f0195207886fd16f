#include "cellspot/snapshot/serde.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cellspot/exec/executor.hpp"
#include "cellspot/snapshot/binary_io.hpp"
#include "cellspot/util/error.hpp"

namespace cellspot::snapshot {

namespace {

// ---- section names (format v1) ---------------------------------------------

constexpr std::string_view kWorldConfigSection = "world.config";
constexpr std::string_view kWorldAsDbSection = "world.asdb";
constexpr std::string_view kWorldRibSection = "world.rib";
constexpr std::string_view kWorldSubnetsSection = "world.subnets";
constexpr std::string_view kWorldOperatorsSection = "world.operators";
constexpr std::string_view kWorldCarriersSection = "world.carriers";
constexpr std::string_view kBeaconBlocksSection = "beacon.blocks";
constexpr std::string_view kDemandBlocksSection = "demand.blocks";
constexpr std::string_view kClassifiedRatiosSection = "classified.ratios";
constexpr std::string_view kClassifiedCellularSection = "classified.cellular";

[[noreturn]] void Malformed(const std::string& what) {
  throw SnapshotError(what, SnapshotErrorReason::kMalformed);
}

// ---- shared field codecs ---------------------------------------------------

void PutPrefix(ByteWriter& w, const netaddr::Prefix& p) {
  w.U8(static_cast<std::uint8_t>(p.family()));
  w.U8(static_cast<std::uint8_t>(p.length()));
  const auto& bytes = p.address().bytes();
  const std::size_t n = p.family() == netaddr::Family::kIpv4 ? 4 : 16;
  w.Bytes(std::string_view(reinterpret_cast<const char*>(bytes.data()), n));
}

/// Rejects host bits set past the length: the Prefix constructor would
/// mask them silently, and the row would re-encode to other bytes.
netaddr::Prefix GetPrefix(ByteReader& r) {
  const std::uint8_t family = r.U8();
  const std::uint8_t length = r.U8();
  netaddr::IpAddress address;
  if (family == static_cast<std::uint8_t>(netaddr::Family::kIpv4)) {
    if (length > 32) Malformed("v4 prefix length " + std::to_string(length));
    const std::string_view raw = r.Bytes(4);
    const auto b = [&](int i) {
      return static_cast<std::uint32_t>(static_cast<std::uint8_t>(raw[i]));
    };
    address = netaddr::IpAddress::V4((b(0) << 24) | (b(1) << 16) | (b(2) << 8) | b(3));
  } else if (family == static_cast<std::uint8_t>(netaddr::Family::kIpv6)) {
    if (length > 128) Malformed("v6 prefix length " + std::to_string(length));
    const std::string_view raw = r.Bytes(16);
    std::array<std::uint8_t, 16> bytes{};
    for (std::size_t i = 0; i < 16; ++i) bytes[i] = static_cast<std::uint8_t>(raw[i]);
    address = netaddr::IpAddress::V6(bytes);
  } else {
    Malformed("unknown address family " + std::to_string(family));
  }
  const netaddr::Prefix prefix(address, length);
  if (prefix.address() != address) {
    Malformed("prefix " + address.ToString() + "/" + std::to_string(length) +
              " has host bits set");
  }
  return prefix;
}

double GetFiniteF64(ByteReader& r, std::string_view what) {
  const double v = r.F64();
  if (!std::isfinite(v)) Malformed(std::string(what) + " is not finite");
  return v;
}

geo::Continent GetContinent(ByteReader& r) {
  const std::uint8_t v = r.U8();
  if (v >= geo::kContinentCount) Malformed("continent code " + std::to_string(v));
  return static_cast<geo::Continent>(v);
}

template <typename Enum>
Enum GetEnum(ByteReader& r, std::uint8_t max_value, std::string_view what) {
  const std::uint8_t v = r.U8();
  if (v > max_value) Malformed(std::string(what) + " value " + std::to_string(v));
  return static_cast<Enum>(v);
}

/// Capacity to reserve for `count` rows of at least `min_row_bytes`
/// each: no more than the rest of the payload can hold, so a forged
/// count fails as a short read instead of a huge allocation.
std::size_t RowCapacity(const ByteReader& r, std::uint64_t count,
                        std::size_t min_row_bytes) {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(count, r.remaining() / min_row_bytes));
}

asdb::AsNumber GetAsn(ByteReader& r) {
  const std::uint64_t v = r.Varint();
  if (v == 0 || v > 0xFFFFFFFFULL) Malformed("asn " + std::to_string(v));
  return static_cast<asdb::AsNumber>(v);
}

/// Rejects a RIB origin without an AS database record. Routes in Prefix
/// order come in runs of one operator's blocks, so only a change of
/// origin costs a lookup.
class RecordedOrigins {
 public:
  explicit RecordedOrigins(const asdb::AsDatabase& db) : db_(db) {}

  void Check(asdb::AsNumber asn) {
    if (asn == last_) return;
    if (db_.Find(asn) == nullptr) {
      Malformed("RIB has announcements from ASNs outside the AS database");
    }
    last_ = asn;
  }

 private:
  const asdb::AsDatabase& db_;
  asdb::AsNumber last_ = 0;  // reserved, never a record
};

}  // namespace

// ---- Access ----------------------------------------------------------------

struct Access {
  static simnet::World DecodeWorld(const SnapshotImage& image);

  static void SetDemandTotal(dataset::DemandDataset& d, double total) {
    d.total_ = total;
  }
  static void Reserve(dataset::BeaconDataset& d, std::size_t rows) { d.blocks_.reserve(rows); }
  static void Reserve(dataset::DemandDataset& d, std::size_t rows) { d.blocks_.reserve(rows); }
  static util::StableMap<netaddr::Prefix, double>& Ratios(core::ClassifiedSubnets& c) {
    return c.ratios_;
  }
  static util::StableSet<netaddr::Prefix>& Cellular(core::ClassifiedSubnets& c) {
    return c.cellular_;
  }
};

// ---- WorldConfig -----------------------------------------------------------

std::string EncodeWorldConfig(const simnet::WorldConfig& c) {
  ByteWriter w;
  w.U64(c.seed);
  w.F64(c.scale);
  w.F64(c.demand_total_du);
  w.F64(c.beacon_hits_per_du);
  w.F64(c.demand_only_extra_v4);
  w.F64(c.v6_demand_coverage);
  w.F64(c.no_js_block_fraction);
  w.F64(c.noise.tether_wifi_given_cellular);
  w.F64(c.noise.switch_cellular_given_fixed);
  w.F64(c.noise.ethernet_given_fixed);
  w.F64(c.noise.exotic_label_rate);
  w.F64(c.proxy_cell_label_fraction);
  w.F64(c.tether_mean_tail);
  w.F64(c.tether_mean_heavy);
  w.F64(c.tether_mean_heavy_na_dedicated);
  w.F64(c.tether_sigma);
  w.F64(c.cgnat_heavy_demand_share_mixed);
  w.F64(c.cgnat_heavy_demand_share_dedicated);
  w.F64(c.cgnat_heavy_demand_share_floor);
  w.F64(c.tail_target_netinfo_hits);
  w.F64(c.cgnat_heavy_block_fraction);
  w.F64(c.inactive_cell_factor_mixed);
  w.F64(c.inactive_cell_factor_dedicated);
  w.I32(c.cloud_as_count);
  w.I32(c.proxy_as_count);
  w.I32(c.transit_as_count);
  w.F64(c.proxy_demand_du_each);
  w.F64(c.cloud_demand_du_each);
  w.F64(c.stray_cell_block_prob);
  w.F64(c.low_beacon_as_prob);
  w.I32(c.study_month.year);
  w.I32(c.study_month.month);
  w.F64(c.netinfo_coverage_scale);
  w.Varint(c.countries.size());
  for (const simnet::CountryProfile& p : c.countries) {
    w.String(p.iso2);
    w.U8(static_cast<std::uint8_t>(p.continent));
    w.F64(p.subscribers_m);
    w.F64(p.cell_demand_du);
    w.F64(p.fixed_demand_du);
    w.Bool(p.demand_pinned);
    w.I32(p.cellular_as_count);
    w.I32(p.fixed_as_count);
    w.F64(p.mixed_share);
    w.F64(p.public_dns_fraction);
    w.I32(p.v6_cellular_as_count);
    w.Bool(p.exclude_from_analysis);
  }
  for (const simnet::ContinentBlockTargets& t : c.continent_blocks) {
    w.F64(t.cell_v4);
    w.F64(t.active_v4);
    w.F64(t.cell_v6);
    w.F64(t.active_v6);
  }
  return std::move(w).Take();
}

simnet::WorldConfig DecodeWorldConfig(std::string_view payload) {
  ByteReader r(payload);
  simnet::WorldConfig c;
  c.seed = r.U64();
  c.scale = r.F64();
  c.demand_total_du = r.F64();
  c.beacon_hits_per_du = r.F64();
  c.demand_only_extra_v4 = r.F64();
  c.v6_demand_coverage = r.F64();
  c.no_js_block_fraction = r.F64();
  c.noise.tether_wifi_given_cellular = r.F64();
  c.noise.switch_cellular_given_fixed = r.F64();
  c.noise.ethernet_given_fixed = r.F64();
  c.noise.exotic_label_rate = r.F64();
  c.proxy_cell_label_fraction = r.F64();
  c.tether_mean_tail = r.F64();
  c.tether_mean_heavy = r.F64();
  c.tether_mean_heavy_na_dedicated = r.F64();
  c.tether_sigma = r.F64();
  c.cgnat_heavy_demand_share_mixed = r.F64();
  c.cgnat_heavy_demand_share_dedicated = r.F64();
  c.cgnat_heavy_demand_share_floor = r.F64();
  c.tail_target_netinfo_hits = r.F64();
  c.cgnat_heavy_block_fraction = r.F64();
  c.inactive_cell_factor_mixed = r.F64();
  c.inactive_cell_factor_dedicated = r.F64();
  c.cloud_as_count = r.I32();
  c.proxy_as_count = r.I32();
  c.transit_as_count = r.I32();
  c.proxy_demand_du_each = r.F64();
  c.cloud_demand_du_each = r.F64();
  c.stray_cell_block_prob = r.F64();
  c.low_beacon_as_prob = r.F64();
  c.study_month.year = r.I32();
  c.study_month.month = r.I32();
  c.netinfo_coverage_scale = r.F64();
  const std::uint64_t country_count = r.Varint();
  c.countries.reserve(RowCapacity(r, country_count, 56));
  for (std::uint64_t i = 0; i < country_count; ++i) {
    simnet::CountryProfile p;
    p.iso2 = std::string(r.String());
    p.continent = GetContinent(r);
    p.subscribers_m = r.F64();
    p.cell_demand_du = r.F64();
    p.fixed_demand_du = r.F64();
    p.demand_pinned = r.Bool();
    p.cellular_as_count = r.I32();
    p.fixed_as_count = r.I32();
    p.mixed_share = r.F64();
    p.public_dns_fraction = r.F64();
    p.v6_cellular_as_count = r.I32();
    p.exclude_from_analysis = r.Bool();
    c.countries.push_back(std::move(p));
  }
  for (simnet::ContinentBlockTargets& t : c.continent_blocks) {
    t.cell_v4 = r.F64();
    t.active_v4 = r.F64();
    t.cell_v6 = r.F64();
    t.active_v6 = r.F64();
  }
  r.ExpectEnd();
  try {
    c.Validate();
  } catch (const ConfigError& e) {
    Malformed(std::string("decoded world config fails validation: ") + e.what());
  }
  return c;
}

std::string EncodeClassifierConfig(const core::ClassifierConfig& c) {
  ByteWriter w;
  w.F64(c.threshold);
  w.U64(c.min_netinfo_hits);
  w.Bool(c.use_wilson_lower_bound);
  w.F64(c.wilson_z);
  return std::move(w).Take();
}

// ---- World -----------------------------------------------------------------

std::vector<Section> EncodeWorld(const simnet::World& world) {
  std::vector<Section> sections;

  sections.push_back({std::string(kWorldConfigSection), EncodeWorldConfig(world.config())});

  {
    ByteWriter w;
    w.Varint(world.as_db().size());
    for (const asdb::AsRecord& rec : world.as_db().records()) {
      w.Varint(rec.asn);
      w.String(rec.name);
      w.String(rec.country_iso);
      w.U8(static_cast<std::uint8_t>(rec.continent));
      w.U8(static_cast<std::uint8_t>(rec.cls));
      w.U8(static_cast<std::uint8_t>(rec.kind));
    }
    sections.push_back({std::string(kWorldAsDbSection), std::move(w).Take()});
  }

  {
    // Routes in the table's Prefix order, so a decode only checks the
    // order instead of sorting. Every origin has a database record by
    // construction; verify, so a violation surfaces at save time
    // instead of as a wrong RIB.
    ByteWriter w;
    w.Varint(world.rib().size());
    RecordedOrigins recorded(world.as_db());
    for (const auto& [prefix, asn] : world.rib().entries()) {
      recorded.Check(asn);
      w.Varint(asn);
      PutPrefix(w, prefix);
    }
    sections.push_back({std::string(kWorldRibSection), std::move(w).Take()});
  }

  {
    ByteWriter w;
    w.Varint(world.subnets().size());
    for (const simnet::Subnet& s : world.subnets()) {
      PutPrefix(w, s.block);
      w.Varint(s.asn);
      w.U16(s.country);
      std::uint8_t flags = 0;
      if (s.truth_cellular) flags |= 1U;
      if (s.proxy_terminating) flags |= 2U;
      if (s.in_demand_snapshot) flags |= 4U;
      w.U8(flags);
      w.F64(s.demand_du);
      w.F64(s.beacon_scale);
      w.F64(s.tether_rate);
      w.F64(s.mobile_share);
    }
    sections.push_back({std::string(kWorldSubnetsSection), std::move(w).Take()});
  }

  {
    ByteWriter w;
    w.Varint(world.operators().size());
    for (const simnet::OperatorInfo& op : world.operators()) {
      w.Varint(op.asn);
      w.U8(static_cast<std::uint8_t>(op.kind));
      w.U16(op.country);
      w.String(op.country_iso);
      w.U8(static_cast<std::uint8_t>(op.continent));
      w.F64(op.cell_demand_du);
      w.F64(op.fixed_demand_du);
      w.F64(op.public_dns_fraction);
      w.Bool(op.ipv6_cellular);
      w.U8(static_cast<std::uint8_t>(op.validation_label));
      w.U32(op.subnet_begin);
      w.U32(op.subnet_end);
    }
    sections.push_back({std::string(kWorldOperatorsSection), std::move(w).Take()});
  }

  {
    ByteWriter w;
    w.Varint(world.validation_carriers().size());
    for (const simnet::World::Carrier& c : world.validation_carriers()) {
      w.Varint(c.asn);
      w.U8(static_cast<std::uint8_t>(c.label));
    }
    sections.push_back({std::string(kWorldCarriersSection), std::move(w).Take()});
  }

  return sections;
}

simnet::World Access::DecodeWorld(const SnapshotImage& image) {
  simnet::World world;
  world.config_ = DecodeWorldConfig(image.Payload(kWorldConfigSection));

  {
    ByteReader r(image.Payload(kWorldAsDbSection));
    const std::uint64_t count = r.Varint();
    for (std::uint64_t i = 0; i < count; ++i) {
      asdb::AsRecord rec;
      rec.asn = GetAsn(r);
      rec.name = std::string(r.String());
      rec.country_iso = std::string(r.String());
      rec.continent = GetContinent(r);
      rec.cls = GetEnum<asdb::AsClass>(r, 3, "as class");
      rec.kind = GetEnum<asdb::OperatorKind>(r, 5, "operator kind");
      world.as_db_.Upsert(std::move(rec));
    }
    r.ExpectEnd();
    if (world.as_db_.size() != count) Malformed("duplicate ASNs in AS database");
  }

  {
    // Rows in any order decode (RoutingTable sorts what is not sorted),
    // so images written in another row order still load.
    ByteReader r(image.Payload(kWorldRibSection));
    const std::uint64_t count = r.Varint();
    std::vector<asdb::RoutingTable::Route> routes;
    routes.reserve(RowCapacity(r, count, 7));  // 1-byte asn + a v4 prefix
    RecordedOrigins recorded(world.as_db_);
    for (std::uint64_t i = 0; i < count; ++i) {
      const asdb::AsNumber asn = GetAsn(r);
      recorded.Check(asn);
      routes.emplace_back(GetPrefix(r), asn);
    }
    r.ExpectEnd();
    world.rib_ = asdb::RoutingTable(std::move(routes));
    if (world.rib_.size() != count) Malformed("duplicate prefixes in RIB");
  }

  {
    ByteReader r(image.Payload(kWorldSubnetsSection));
    const std::uint64_t count = r.Varint();
    world.subnets_.reserve(RowCapacity(r, count, 42));
    for (std::uint64_t i = 0; i < count; ++i) {
      simnet::Subnet s;
      s.block = GetPrefix(r);
      if (!netaddr::IsBlock(s.block)) {
        Malformed("subnet " + s.block.ToString() + " is not a /24 or /48 block");
      }
      s.asn = GetAsn(r);
      s.country = r.U16();
      const std::uint8_t flags = r.U8();
      if (flags > 7) Malformed("subnet flags " + std::to_string(flags));
      s.truth_cellular = (flags & 1U) != 0;
      s.proxy_terminating = (flags & 2U) != 0;
      s.in_demand_snapshot = (flags & 4U) != 0;
      s.demand_du = GetFiniteF64(r, "subnet demand_du");
      s.beacon_scale = GetFiniteF64(r, "subnet beacon_scale");
      s.tether_rate = GetFiniteF64(r, "subnet tether_rate");
      s.mobile_share = GetFiniteF64(r, "subnet mobile_share");
      world.subnets_.push_back(s);
    }
    r.ExpectEnd();
  }

  {
    ByteReader r(image.Payload(kWorldOperatorsSection));
    const std::uint64_t count = r.Varint();
    world.operators_.reserve(RowCapacity(r, count, 40));
    world.op_index_.reserve(RowCapacity(r, count, 40));
    for (std::uint64_t i = 0; i < count; ++i) {
      simnet::OperatorInfo op;
      op.asn = GetAsn(r);
      op.kind = GetEnum<asdb::OperatorKind>(r, 5, "operator kind");
      op.country = r.U16();
      op.country_iso = std::string(r.String());
      op.continent = GetContinent(r);
      op.cell_demand_du = GetFiniteF64(r, "operator cell_demand_du");
      op.fixed_demand_du = GetFiniteF64(r, "operator fixed_demand_du");
      op.public_dns_fraction = GetFiniteF64(r, "operator public_dns_fraction");
      op.ipv6_cellular = r.Bool();
      op.validation_label = static_cast<char>(r.U8());
      op.subnet_begin = r.U32();
      op.subnet_end = r.U32();
      if (op.subnet_begin > op.subnet_end ||
          op.subnet_end > world.subnets_.size()) {
        Malformed("operator " + std::to_string(op.asn) + " has subnet range [" +
                  std::to_string(op.subnet_begin) + ", " +
                  std::to_string(op.subnet_end) + ") outside " +
                  std::to_string(world.subnets_.size()) + " subnets");
      }
      world.op_index_.Insert(op.asn, world.operators_.size(), world.AsnAt());
      world.operators_.push_back(std::move(op));
    }
    r.ExpectEnd();
    if (world.op_index_.size() != world.operators_.size()) {
      Malformed("duplicate operator ASNs");
    }
  }

  {
    ByteReader r(image.Payload(kWorldCarriersSection));
    const std::uint64_t count = r.Varint();
    world.carriers_.reserve(RowCapacity(r, count, 2));
    for (std::uint64_t i = 0; i < count; ++i) {
      simnet::World::Carrier c;
      c.asn = GetAsn(r);
      c.label = static_cast<char>(r.U8());
      world.carriers_.push_back(c);
    }
    r.ExpectEnd();
  }

  world.block_index_.reserve(world.subnets_.size());
  for (std::size_t i = 0; i < world.subnets_.size(); ++i) {
    world.block_index_.Insert(world.subnets_[i].block, i, world.BlockAt());
  }
  if (world.block_index_.size() != world.subnets_.size()) {
    Malformed("duplicate subnet blocks");
  }
  return world;
}

simnet::World DecodeWorld(const SnapshotImage& image) { return Access::DecodeWorld(image); }

// ---- datasets --------------------------------------------------------------

std::vector<Section> EncodeDatasets(const dataset::BeaconDataset& beacons,
                                    const dataset::DemandDataset& demand) {
  std::vector<Section> sections;

  {
    ByteWriter w;
    w.Varint(beacons.block_count());
    for (const auto& [block, s] : beacons.rows()) {
      PutPrefix(w, block);
      w.Varint(s.hits);
      w.Varint(s.netinfo_hits);
      w.Varint(s.cellular_labels);
      w.Varint(s.wifi_labels);
      w.Varint(s.ethernet_labels);
      w.Varint(s.other_labels);
      w.Varint(s.mobile_browser_hits);
    }
    sections.push_back({std::string(kBeaconBlocksSection), std::move(w).Take()});
  }

  {
    ByteWriter w;
    w.Varint(demand.block_count());
    for (const auto& [block, du] : demand.rows()) {
      PutPrefix(w, block);
      w.F64(du);
    }
    // total() is not the float sum of the rows once Normalize() has run
    // (it is pinned to exactly kTotalDemandUnits); store it explicitly.
    w.F64(demand.total());
    sections.push_back({std::string(kDemandBlocksSection), std::move(w).Take()});
  }

  return sections;
}

std::pair<dataset::BeaconDataset, dataset::DemandDataset> DecodeDatasets(
    const SnapshotImage& image) {
  dataset::BeaconDataset beacons;
  {
    ByteReader r(image.Payload(kBeaconBlocksSection));
    const std::uint64_t count = r.Varint();
    // Smallest row: family, length, 4 address bytes, seven 1-byte varints.
    Access::Reserve(beacons, RowCapacity(r, count, 13));
    for (std::uint64_t i = 0; i < count; ++i) {
      const netaddr::Prefix block = GetPrefix(r);
      dataset::BeaconBlockStats s;
      s.hits = r.Varint();
      s.netinfo_hits = r.Varint();
      s.cellular_labels = r.Varint();
      s.wifi_labels = r.Varint();
      s.ethernet_labels = r.Varint();
      s.other_labels = r.Varint();
      s.mobile_browser_hits = r.Varint();
      try {
        beacons.Add(block, s);  // re-checks the dataset invariants
      } catch (const std::invalid_argument& e) {
        Malformed(e.what());
      }
    }
    r.ExpectEnd();
    if (beacons.block_count() != count) Malformed("duplicate beacon blocks");
  }

  dataset::DemandDataset demand;
  {
    ByteReader r(image.Payload(kDemandBlocksSection));
    const std::uint64_t count = r.Varint();
    // Smallest row: family, length, 4 address bytes, one f64.
    Access::Reserve(demand, RowCapacity(r, count, 14));
    for (std::uint64_t i = 0; i < count; ++i) {
      const netaddr::Prefix block = GetPrefix(r);
      const double du = GetFiniteF64(r, "demand du");
      try {
        demand.Add(block, du);
      } catch (const std::invalid_argument& e) {
        Malformed(e.what());
      }
    }
    const double total = GetFiniteF64(r, "demand total");
    if (total < 0.0) Malformed("negative demand total");
    r.ExpectEnd();
    if (demand.block_count() != count) Malformed("duplicate demand blocks");
    Access::SetDemandTotal(demand, total);
  }

  return {std::move(beacons), std::move(demand)};
}

// ---- classification output -------------------------------------------------

namespace {

/// Decoded rows of one shard, validated entry by entry but not yet
/// folded into the result object.
struct ClassifiedFragment {
  std::vector<std::pair<netaddr::Prefix, double>> ratios;
  std::vector<netaddr::Prefix> cellular;
};

ClassifiedFragment DecodeClassifiedFragment(std::string_view ratios_payload,
                                            std::string_view cellular_payload) {
  ClassifiedFragment fragment;
  {
    ByteReader r(ratios_payload);
    const std::uint64_t count = r.Varint();
    fragment.ratios.reserve(RowCapacity(r, count, 14));
    for (std::uint64_t i = 0; i < count; ++i) {
      const netaddr::Prefix block = GetPrefix(r);
      const double ratio = GetFiniteF64(r, "cellular ratio");
      if (ratio < 0.0 || ratio > 1.0) {
        Malformed("cellular ratio " + std::to_string(ratio) + " outside [0, 1]");
      }
      fragment.ratios.emplace_back(block, ratio);
    }
    r.ExpectEnd();
  }
  {
    ByteReader r(cellular_payload);
    const std::uint64_t count = r.Varint();
    fragment.cellular.reserve(RowCapacity(r, count, 6));
    for (std::uint64_t i = 0; i < count; ++i) {
      fragment.cellular.push_back(GetPrefix(r));
    }
    r.ExpectEnd();
  }
  return fragment;
}

/// Fold fragments into a ClassifiedSubnets in fragment order: all
/// ratio rows first (cross-shard duplicate detection), then all
/// cellular rows (each must have a ratio). Ordered concatenation is
/// what makes the decoded object's iteration order — and therefore its
/// re-encoding — identical to the source's.
core::ClassifiedSubnets FoldClassifiedFragments(std::span<ClassifiedFragment> fragments) {
  core::ClassifiedSubnets out;
  std::size_t total_ratios = 0;
  std::size_t total_cellular = 0;
  for (const ClassifiedFragment& f : fragments) {
    total_ratios += f.ratios.size();
    total_cellular += f.cellular.size();
  }
  Access::Ratios(out).reserve(total_ratios);
  Access::Cellular(out).reserve(total_cellular);
  for (const ClassifiedFragment& f : fragments) {
    for (const auto& [block, ratio] : f.ratios) {
      if (!Access::Ratios(out).Emplace(block, ratio)) {
        Malformed("duplicate classified block " + block.ToString());
      }
    }
  }
  for (const ClassifiedFragment& f : fragments) {
    for (const netaddr::Prefix& block : f.cellular) {
      if (Access::Ratios(out).Find(block) == nullptr) {
        Malformed("cellular block " + block.ToString() + " has no recorded ratio");
      }
      if (!Access::Cellular(out).Insert(block)) {
        Malformed("duplicate cellular block " + block.ToString());
      }
    }
  }
  return out;
}

std::string ShardSectionName(std::string_view base, std::size_t shard) {
  return std::string(base) + "." + std::to_string(shard);
}

/// Append the `shard_count` sections "<base>.<k>" of one row kind:
/// shard k holds rows [k*n/shards, (k+1)*n/shards) of `rows` in
/// iteration order — a contiguous even split, so concatenating the
/// shards in index order is exactly the original row order. Each
/// payload is a varint row count followed by the rows `put` writes.
template <typename Row, typename Put>
void AppendShardSections(std::vector<Section>& sections, std::string_view base,
                         std::span<const Row> rows, std::size_t shard_count, Put&& put) {
  std::size_t begin = 0;
  for (std::size_t k = 0; k < shard_count; ++k) {
    const std::size_t end = (k + 1) * rows.size() / shard_count;
    ByteWriter body;
    for (std::size_t i = begin; i < end; ++i) put(body, rows[i]);
    ByteWriter framed;
    framed.Varint(end - begin);
    framed.Bytes(std::move(body).Take());
    sections.push_back({ShardSectionName(base, k), std::move(framed).Take()});
    begin = end;
  }
}

}  // namespace

core::ClassifiedSubnets DecodeClassified(const SnapshotImage& image,
                                         exec::Executor* executor) {
  std::uint64_t shard_count = 0;
  std::uint64_t want_ratios = 0;
  std::uint64_t want_cellular = 0;
  {
    ByteReader r(image.Payload(kClassifiedShardsSection));
    shard_count = r.Varint();
    want_ratios = r.Varint();
    want_cellular = r.Varint();
    r.ExpectEnd();
  }
  if (shard_count == 0) Malformed("classified shard count is 0");
  if (shard_count > 65536) {
    Malformed("implausible classified shard count " + std::to_string(shard_count));
  }

  // Resolve every shard's payload up front (missing sections throw
  // here, on the calling thread), then decode the fragments — in
  // parallel when an executor is given. Exceptions inside the pool
  // are captured per shard and rethrown after the join.
  std::vector<std::pair<std::string_view, std::string_view>> payloads(shard_count);
  for (std::size_t k = 0; k < shard_count; ++k) {
    payloads[k] = {image.Payload(ShardSectionName(kClassifiedRatiosSection, k)),
                   image.Payload(ShardSectionName(kClassifiedCellularSection, k))};
  }
  std::vector<ClassifiedFragment> fragments(shard_count);
  std::vector<std::string> shard_errors(shard_count);
  const auto decode_shard = [&](std::size_t k) {
    try {
      fragments[k] = DecodeClassifiedFragment(payloads[k].first, payloads[k].second);
    } catch (const SnapshotError& e) {
      shard_errors[k] = e.what();
    }
  };
  if (executor != nullptr) {
    executor->ParallelForChunks(
        shard_count, 1,
        [&](std::size_t /*begin*/, std::size_t /*end*/, std::size_t k) { decode_shard(k); });
  } else {
    for (std::size_t k = 0; k < shard_count; ++k) decode_shard(k);
  }
  for (std::size_t k = 0; k < shard_count; ++k) {
    if (!shard_errors[k].empty()) {
      Malformed("classified shard " + std::to_string(k) + ": " + shard_errors[k]);
    }
  }

  core::ClassifiedSubnets out = FoldClassifiedFragments(fragments);
  if (out.ratios().size() != want_ratios || out.cellular().size() != want_cellular) {
    Malformed("classified shard manifest counts (" + std::to_string(want_ratios) + ", " +
              std::to_string(want_cellular) + ") disagree with decoded rows (" +
              std::to_string(out.ratios().size()) + ", " +
              std::to_string(out.cellular().size()) + ")");
  }
  return out;
}

std::vector<Section> EncodeClassified(const core::ClassifiedSubnets& classified) {
  return EncodeClassifiedSharded(classified, kClassifiedStoreShards);
}

std::vector<Section> EncodeClassifiedSharded(const core::ClassifiedSubnets& classified,
                                             std::size_t shard_count) {
  if (shard_count == 0) shard_count = 1;
  std::vector<Section> sections;
  sections.reserve(1 + 2 * shard_count);
  {
    ByteWriter w;
    w.Varint(shard_count);
    w.Varint(classified.ratios().size());
    w.Varint(classified.cellular().size());
    sections.push_back({std::string(kClassifiedShardsSection), std::move(w).Take()});
  }
  AppendShardSections(sections, kClassifiedRatiosSection, classified.ratios(), shard_count,
                      [](ByteWriter& w, const auto& row) {
                        PutPrefix(w, row.first);
                        w.F64(row.second);
                      });
  AppendShardSections(sections, kClassifiedCellularSection, classified.cellular(),
                      shard_count, [](ByteWriter& w, const netaddr::Prefix& block) {
                        PutPrefix(w, block);
                      });
  return sections;
}

std::vector<Section> EncodeRibLpm(const asdb::RoutingTable& rib) {
  return {{std::string(kLpmRibSection), rib.Flat().Encode()}};
}

asdb::RoutingTable::FlatRib DecodeRibLpm(const SnapshotImage& image) {
  try {
    return asdb::RoutingTable::FlatRib::View(image.Payload(kLpmRibSection),
                                             image.keepalive());
  } catch (const netaddr::FlatLpmError& e) {
    Malformed(std::string(kLpmRibSection) + ": " + e.what());
  }
}

}  // namespace cellspot::snapshot
