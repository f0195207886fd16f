#include "cellspot/dns/dns_simulator.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "cellspot/obs/trace.hpp"
#include "cellspot/util/rng.hpp"

namespace cellspot::dns {

namespace {

using asdb::OperatorKind;

bool ServesClients(OperatorKind kind) {
  return kind == OperatorKind::kDedicatedCellular || kind == OperatorKind::kMixed ||
         kind == OperatorKind::kFixedOnly;
}

/// Resolver addresses come from 198.18.0.0/15 (excluded from world
/// allocation), one address per resolver.
netaddr::IpAddress ResolverAddress(std::uint32_t ordinal) {
  return netaddr::IpAddress::V4(0xC6120000U + ordinal);
}

}  // namespace

DnsSimulator::DnsSimulator(const simnet::World& world, std::uint64_t seed_offset) {
  obs::TraceSpan span("dns.simulate");
  Build(world, world.config().seed ^ (0xD75ULL + seed_offset));
  span.set_items(resolvers_.size());
}

void DnsSimulator::Build(const simnet::World& world, std::uint64_t seed) {
  util::Rng root(seed);

  // Public services first, so operator loops can accumulate into them.
  std::array<std::size_t, kPublicDnsServiceCount> public_index{};
  for (PublicDnsService s : AllPublicDnsServices()) {
    ResolverStats stats;
    stats.address = PublicDnsAnycast(s);
    stats.asn = 0;
    stats.public_service = s;
    stats.role = ResolverRole::kShared;
    public_index[static_cast<std::size_t>(s)] = resolvers_.size();
    resolvers_.push_back(stats);
  }

  std::uint32_t next_ordinal = 1;
  for (const simnet::OperatorInfo& op : world.operators()) {
    if (!ServesClients(op.kind)) continue;
    const double total_du = op.cell_demand_du + op.fixed_demand_du;
    if (total_du <= 0.0) continue;
    util::Rng rng = root.Fork(op.asn);

    // Fleet size grows with the square root of demand: national
    // incumbents run tens of resolver sites, small mobile-first carriers
    // a handful — so the resolver *population* of Fig 9 is dominated by
    // the big mixed incumbents.
    const int fleet = std::clamp(
        2 + static_cast<int>(std::sqrt(total_du) / 2.0), 2, 48);

    // Role mix (§6.3, Fig 9): in mixed networks ~60% of resolvers serve
    // both populations and the rest split evenly.
    std::vector<ResolverStats> fleet_stats;
    std::vector<double> cell_weight;   // how much cellular demand each attracts
    std::vector<double> fixed_weight;
    for (int r = 0; r < fleet; ++r) {
      ResolverStats stats;
      stats.address = ResolverAddress(next_ordinal++);
      stats.asn = op.asn;
      switch (op.kind) {
        case OperatorKind::kMixed: {
          const double u = rng.UniformDouble();
          stats.role = u < 0.6 ? ResolverRole::kShared
                               : (u < 0.8 ? ResolverRole::kCellularOnly
                                          : ResolverRole::kFixedOnly);
          break;
        }
        case OperatorKind::kDedicatedCellular:
          stats.role = ResolverRole::kCellularOnly;
          break;
        default:
          stats.role = ResolverRole::kFixedOnly;
          break;
      }
      const double size = 0.5 + rng.UniformDouble();  // capacity variation
      cell_weight.push_back(stats.role != ResolverRole::kFixedOnly ? size : 0.0);
      fixed_weight.push_back(stats.role != ResolverRole::kCellularOnly ? size : 0.0);
      fleet_stats.push_back(stats);
    }

    // Guarantee someone serves each population present.
    if (op.cell_demand_du > 0.0 &&
        std::accumulate(cell_weight.begin(), cell_weight.end(), 0.0) <= 0.0) {
      fleet_stats.front().role = ResolverRole::kShared;
      cell_weight.front() = 1.0;
    }
    if (op.fixed_demand_du > 0.0 &&
        std::accumulate(fixed_weight.begin(), fixed_weight.end(), 0.0) <= 0.0) {
      fleet_stats.back().role = ResolverRole::kShared;
      fixed_weight.back() = 1.0;
    }

    // Cellular demand: a configured share goes to public services (the
    // operator points its gateways there); the rest spreads over the
    // operator's cellular-serving resolvers.
    OperatorDnsUsage usage;
    usage.asn = op.asn;
    usage.cell_demand_du = op.cell_demand_du;
    double public_share = 0.0;
    if (op.cell_demand_du > 0.0) {
      public_share = std::clamp(
          op.public_dns_fraction * (0.8 + 0.4 * rng.UniformDouble()), 0.0, 1.0);
      // Service split: Google dominates, with operator-specific jitter.
      double g = 0.70 + 0.15 * (rng.UniformDouble() - 0.5);
      double o = 0.20 + 0.10 * (rng.UniformDouble() - 0.5);
      double l = std::max(0.0, 1.0 - g - o);
      const double public_du = op.cell_demand_du * public_share;
      usage.public_share[0] = public_share * g;
      usage.public_share[1] = public_share * o;
      usage.public_share[2] = public_share * l;
      resolvers_[public_index[0]].cell_du += public_du * g;
      resolvers_[public_index[1]].cell_du += public_du * o;
      resolvers_[public_index[2]].cell_du += public_du * l;
    }
    if (op.cell_demand_du > 0.0 || op.kind != OperatorKind::kFixedOnly) {
      usage_.push_back(usage);
    }

    const double cell_du = op.cell_demand_du * (1.0 - public_share);
    const double cw_sum = std::accumulate(cell_weight.begin(), cell_weight.end(), 0.0);
    const double fw_sum = std::accumulate(fixed_weight.begin(), fixed_weight.end(), 0.0);
    // A small slice of fixed-line users also runs public DNS by hand.
    const double fixed_public = op.fixed_demand_du * 0.02;
    resolvers_[public_index[0]].fixed_du += fixed_public * 0.8;
    resolvers_[public_index[1]].fixed_du += fixed_public * 0.2;
    const double fixed_du = op.fixed_demand_du - fixed_public;

    for (std::size_t r = 0; r < fleet_stats.size(); ++r) {
      if (cw_sum > 0.0) fleet_stats[r].cell_du = cell_du * cell_weight[r] / cw_sum;
      if (fw_sum > 0.0) fleet_stats[r].fixed_du = fixed_du * fixed_weight[r] / fw_sum;
      resolvers_.push_back(fleet_stats[r]);
    }
  }
}

std::vector<ResolverStats> DnsSimulator::ResolversOf(asdb::AsNumber asn) const {
  std::vector<ResolverStats> out;
  for (const ResolverStats& r : resolvers_) {
    if (r.asn == asn) out.push_back(r);
  }
  return out;
}

}  // namespace cellspot::dns
