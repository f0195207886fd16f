#include "cellspot/dns/dns_simulator.hpp"

#include <gtest/gtest.h>

#include <map>

#include "cellspot/obs/metrics.hpp"

namespace cellspot::dns {
namespace {

using asdb::OperatorKind;

const simnet::World& TinyWorld() {
  static const simnet::World world = simnet::World::Generate(simnet::WorldConfig::Tiny());
  return world;
}

const DnsSimulator& TinySim() {
  static const DnsSimulator sim(TinyWorld());
  return sim;
}

TEST(PublicDns, NamesAndAddresses) {
  EXPECT_EQ(PublicDnsServiceName(PublicDnsService::kGoogleDns), "GoogleDNS");
  EXPECT_EQ(PublicDnsAnycast(PublicDnsService::kGoogleDns).ToString(), "8.8.8.8");
  EXPECT_EQ(PublicDnsAnycast(PublicDnsService::kOpenDns).ToString(), "208.67.222.222");
  EXPECT_EQ(PublicDnsAnycast(PublicDnsService::kLevel3).ToString(), "4.2.2.2");
}

TEST(ResolverStats, CellularFraction) {
  ResolverStats r;
  EXPECT_DOUBLE_EQ(r.CellularFraction(), 0.0);
  r.cell_du = 1.0;
  r.fixed_du = 3.0;
  EXPECT_DOUBLE_EQ(r.CellularFraction(), 0.25);
}

TEST(DnsSimulator, RecordsOneSimulateSpanPerConstruction) {
  const simnet::World& world = TinyWorld();
  auto& reg = obs::MetricsRegistry::Global();
  reg.ResetForTest();
  const DnsSimulator sim(world);
  const obs::MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_EQ(snap.spans[0].path, "dns.simulate");
  EXPECT_EQ(snap.spans[0].count, 1u);
  EXPECT_EQ(snap.spans[0].items, sim.resolvers().size());
}

TEST(DnsSimulator, Deterministic) {
  const DnsSimulator a(TinyWorld());
  const DnsSimulator b(TinyWorld());
  ASSERT_EQ(a.resolvers().size(), b.resolvers().size());
  for (std::size_t i = 0; i < a.resolvers().size(); i += 13) {
    EXPECT_EQ(a.resolvers()[i].address, b.resolvers()[i].address);
    EXPECT_DOUBLE_EQ(a.resolvers()[i].cell_du, b.resolvers()[i].cell_du);
  }
}

TEST(DnsSimulator, PublicServicesAlwaysPresent) {
  const auto resolvers = TinySim().resolvers();
  int public_count = 0;
  for (const ResolverStats& r : resolvers) {
    if (r.public_service.has_value()) {
      ++public_count;
      EXPECT_EQ(r.asn, 0u);
    } else {
      EXPECT_NE(r.asn, 0u);
    }
  }
  EXPECT_EQ(public_count, 3);
}

TEST(DnsSimulator, DemandConservedAcrossResolvers) {
  const auto& world = TinyWorld();
  double op_total = 0.0;
  for (const simnet::OperatorInfo& op : world.operators()) {
    if (op.kind == OperatorKind::kDedicatedCellular ||
        op.kind == OperatorKind::kMixed || op.kind == OperatorKind::kFixedOnly) {
      op_total += op.cell_demand_du + op.fixed_demand_du;
    }
  }
  double resolver_total = 0.0;
  for (const ResolverStats& r : TinySim().resolvers()) resolver_total += r.TotalDemand();
  EXPECT_NEAR(resolver_total / op_total, 1.0, 1e-6);
}

TEST(DnsSimulator, RoleConstraintsHold) {
  for (const ResolverStats& r : TinySim().resolvers()) {
    if (r.public_service.has_value()) continue;
    if (r.role == ResolverRole::kCellularOnly) {
      EXPECT_DOUBLE_EQ(r.fixed_du, 0.0);
    }
    if (r.role == ResolverRole::kFixedOnly) {
      EXPECT_DOUBLE_EQ(r.cell_du, 0.0);
    }
  }
}

TEST(DnsSimulator, MixedOperatorsShareResolvers) {
  const auto& world = TinyWorld();
  int shared = 0;
  int total = 0;
  for (const simnet::OperatorInfo& op : world.operators()) {
    if (op.kind != OperatorKind::kMixed) continue;
    for (const ResolverStats& r : TinySim().ResolversOf(op.asn)) {
      ++total;
      if (r.role == ResolverRole::kShared) ++shared;
    }
  }
  ASSERT_GT(total, 0);
  // Fig 9: ~60% of resolvers in mixed networks serve both populations.
  EXPECT_NEAR(static_cast<double>(shared) / total, 0.6, 0.12);
}

TEST(DnsSimulator, DedicatedOperatorsResolveMostlyCellular) {
  // A dedicated carrier's fleet is cellular-only apart from at most one
  // shared resolver absorbing its tiny corporate fixed arm.
  const auto& world = TinyWorld();
  for (const simnet::OperatorInfo& op : world.operators()) {
    if (op.kind != OperatorKind::kDedicatedCellular) continue;
    int shared = 0;
    for (const ResolverStats& r : TinySim().ResolversOf(op.asn)) {
      EXPECT_NE(r.role, ResolverRole::kFixedOnly);
      if (r.role == ResolverRole::kShared) ++shared;
    }
    EXPECT_LE(shared, 1);
  }
}

TEST(DnsSimulator, OperatorUsageTracksConfiguredPublicFraction) {
  const auto& world = TinyWorld();
  std::map<asdb::AsNumber, double> configured;
  for (const simnet::OperatorInfo& op : world.operators()) {
    configured[op.asn] = op.public_dns_fraction;
  }
  int checked = 0;
  for (const OperatorDnsUsage& u : TinySim().operator_usage()) {
    if (u.cell_demand_du <= 0.0) continue;
    const double total = u.TotalPublicShare();
    EXPECT_GE(total, 0.0);
    EXPECT_LE(total, 1.0);
    // Within the +-20% jitter applied per operator.
    EXPECT_NEAR(total, configured[u.asn], configured[u.asn] * 0.25 + 1e-9);
    ++checked;
  }
  EXPECT_GT(checked, 5);
}

TEST(DnsSimulator, AlgeriaStyleOperatorsForwardToPublic) {
  // DZ profile configures ~97% public DNS; its operators' usage must
  // reflect that (the Fig 10 extreme).
  const auto& world = TinyWorld();
  bool found = false;
  for (const simnet::OperatorInfo& op : world.operators()) {
    if (op.country_iso != "DZ" || op.cell_demand_du <= 0.0) continue;
    for (const OperatorDnsUsage& u : TinySim().operator_usage()) {
      if (u.asn != op.asn) continue;
      EXPECT_GT(u.TotalPublicShare(), 0.7);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(DnsSimulator, GoogleDominatesPublicShare) {
  for (const OperatorDnsUsage& u : TinySim().operator_usage()) {
    if (u.TotalPublicShare() < 0.05) continue;
    EXPECT_GT(u.public_share[0], u.public_share[1]);  // Google > OpenDNS
    EXPECT_GT(u.public_share[0], u.public_share[2]);  // Google > Level3
  }
}

}  // namespace
}  // namespace cellspot::dns
