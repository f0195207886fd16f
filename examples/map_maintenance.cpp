// Scenario: operating the cellular-address map over time (the paper's
// §8 future-work question). A CDN builds the map once, then must decide
// how often to refresh it: every month of churn, this example reports how
// much of the *current* cellular traffic the stale map still covers, and
// how large the stale map's false surface has grown (blocks it lists that
// no longer carry cellular traffic).
//
//   $ ./map_maintenance [months]
#include <cstdio>
#include <unordered_set>

#include "cellspot/core/classifier.hpp"
#include "cellspot/evolution/churn.hpp"
#include "cellspot/util/strings.hpp"

using namespace cellspot;

int main(int argc, char** argv) {
  int months = 12;
  if (argc > 1) {
    if (const auto parsed = util::ParseUint(argv[1]); parsed && *parsed <= 60) {
      months = static_cast<int>(*parsed);
    }
  }

  const simnet::World world =
      simnet::World::Generate(simnet::WorldConfig::Paper(0.01));
  evolution::TemporalSimulator sim(world);
  const core::SubnetClassifier classifier;

  // Month-0 map: what the CDN deploys.
  const core::ClassifiedSubnets base = classifier.Classify(sim.GenerateBeacons());
  std::unordered_set<netaddr::Prefix> deployed(base.cellular().begin(), base.cellular().end());
  std::printf("deployed cellular map: %zu blocks\n\n", deployed.size());
  std::printf("%-6s %-22s %-22s %-14s\n", "month", "traffic still covered",
              "stale map entries", "fresh map size");

  for (int m = 1; m <= months; ++m) {
    sim.AdvanceMonth();
    const auto beacons = sim.GenerateBeacons();
    const auto demand = sim.GenerateDemand();
    const auto fresh = classifier.Classify(beacons);

    double covered = 0.0;
    double total = 0.0;
    for (const netaddr::Prefix& block : fresh.cellular()) {
      const double du = demand.DemandOf(block);
      total += du;
      if (deployed.contains(block)) covered += du;
    }
    std::size_t stale = 0;
    for (const netaddr::Prefix& block : deployed) {
      if (!fresh.IsCellular(block)) ++stale;
    }
    std::printf("%-6d %-22s %-22s %-14zu\n", m,
                util::FormatPercent(total > 0 ? covered / total : 1.0, 1).c_str(),
                (util::FormatWithCommas(stale) + " of " +
                 util::FormatWithCommas(deployed.size()))
                    .c_str(),
                fresh.cellular().size());
  }

  std::printf("\nReading: 'traffic still covered' decays slowly (the CGNAT core is\n"
              "stable), while stale entries accumulate — refresh cadence should be\n"
              "driven by the stale-entry budget, not by covered traffic.\n");
  return 0;
}
