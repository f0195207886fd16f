// Capstone harness: every numbered finding of the paper (§6.4 and §7.3),
// plus the Table 3, Table 5 and Fig 12 anchors that paper_shapes_test
// pins, re-measured one line each.
//
//   bench_findings_summary                   the shared world (seed 20161224)
//   bench_findings_summary --seeds 1,2,42    one RunExperiment per seed at
//                                            CELLSPOT_SCALE: the median and
//                                            the min–max of every row
//
// A single seed cannot tell a regression from seed noise; the spread
// over several seeds can.
#include <algorithm>
#include <functional>
#include <map>

#include "bench_common.hpp"
#include "cellspot/core/validation.hpp"
#include "cellspot/dns/dns_simulator.hpp"

using namespace cellspot;
using namespace cellspot::bench;

namespace {

/// One row: the measured quantities and how a row renders them, so the
/// seed spread can render the per-quantity medians, minima and maxima
/// the same way as one measurement.
struct Finding {
  std::string label;
  std::string paper;
  std::vector<double> values;
  std::function<std::string(const std::vector<double>&)> render;
};

/// A count that may be a median of an even number of seeds.
std::string Count(double v) {
  return v == static_cast<double>(static_cast<std::uint64_t>(v))
             ? Num(static_cast<std::uint64_t>(v))
             : Dbl(v, 1);
}

std::string RenderPct(const std::vector<double>& v) { return Pct(v[0]); }

std::vector<Finding> Measure(const analysis::Experiment& e) {
  const dns::DnsSimulator dns_sim(e.world);
  std::vector<Finding> rows;

  // §6.4 Finding 1: mixed majority.
  const auto mixed = analysis::MixedOperatorReport(e);
  rows.push_back({"1. Cellular ASes that are mixed", "58.6%",
                  {static_cast<double>(mixed.mixed_count) /
                   static_cast<double>(mixed.mixed_count + mixed.dedicated_count)},
                  RenderPct});

  // §6.4 Finding 2: demand centralised in a few networks.
  const auto ranked = analysis::RankAsesByCellDemand(e);
  double top10 = 0.0;
  for (std::size_t i = 0; i < 10 && i < ranked.size(); ++i) {
    top10 += ranked[i].share_of_global_cell;
  }
  rows.push_back({"2. Top-10 ASes' share of cellular demand", "38%", {top10}, RenderPct});

  // §6.4 Finding 3: concentration in few addresses.
  const simnet::OperatorInfo* carrier_a = analysis::FindCarrier(e, 'A');
  if (carrier_a != nullptr) {
    const auto conc = analysis::SubnetConcentrationReport(e, carrier_a->asn);
    rows.push_back({"3. /24s carrying 99% of a mixed carrier's cell demand",
                    "~25 (Gini near 1)",
                    {static_cast<double>(conc.blocks_for_99pct_cell), conc.cellular_gini},
                    [](const std::vector<double>& v) {
                      return Count(v[0]) + " (Gini " + Dbl(v[1], 2) + ")";
                    }});
  }

  // §6.4 Finding 4: resolver sharing.
  const auto resolver_cdf = analysis::ResolverSharingReport(e, dns_sim);
  rows.push_back({"4. Shared resolvers in mixed networks", "~60%",
                  {resolver_cdf.At(0.99) - resolver_cdf.At(0.01)}, RenderPct});

  // §6.4 Finding 5: public DNS outside the U.S.
  double us_public = 0.0;
  double intl_max = 0.0;
  for (const analysis::PublicDnsRow& row : analysis::PublicDnsReport(e, dns_sim)) {
    const double total = row.share[0] + row.share[1] + row.share[2];
    if (row.label.rfind("US", 0) == 0) us_public = std::max(us_public, total);
    else intl_max = std::max(intl_max, total);
  }
  rows.push_back({"5. Public DNS: US max vs intl max", "<2% vs 97%", {us_public, intl_max},
                  [](const std::vector<double>& v) { return Pct(v[0]) + " vs " + Pct(v[1]); }});

  // §7.3 Finding 1: global share, Africa/Asia fractions.
  const auto all_countries = analysis::CountryDemandReport(e);
  double cell = 0.0;
  double total = 0.0;
  for (const auto& cd : all_countries) {
    if (cd.excluded) continue;
    cell += cd.cell_du;
    total += cd.total_du;
  }
  rows.push_back({"7.1 Cellular share of global demand", "16.2%", {cell / total}, RenderPct});

  // §7.3 Finding 2: country concentration.
  auto countries = all_countries;
  std::erase_if(countries, [](const auto& cd) { return cd.excluded; });
  std::sort(countries.begin(), countries.end(),
            [](const auto& a, const auto& b) { return a.cell_du > b.cell_du; });
  double top5 = 0.0;
  double top20 = 0.0;
  double global_cell = 0.0;
  for (std::size_t i = 0; i < countries.size(); ++i) {
    global_cell += countries[i].cell_du;
    if (i < 5) top5 += countries[i].cell_du;
    if (i < 20) top20 += countries[i].cell_du;
  }
  rows.push_back({"7.2 Top-5 / top-20 countries' cellular demand", "55.7% / 80%",
                  {top5 / global_cell, top20 / global_cell},
                  [](const std::vector<double>& v) { return Pct(v[0]) + " / " + Pct(v[1]); }});

  // §7.3 Finding 3: cellular-primary countries exist.
  std::size_t primary = 0;
  for (const auto& cd : countries) {
    if (cd.total_du > 5.0 && cd.CellFraction() > 0.6) ++primary;
  }
  rows.push_back({"7.3 Countries with cellular as primary connectivity",
                  "several (GH, LA, ID, ...)", {static_cast<double>(primary)},
                  [](const std::vector<double>& v) { return Count(v[0]) + " countries"; }});

  // Table 5: the filter funnel.
  const auto render_count = [](const std::vector<double>& v) { return Count(v[0]); };
  rows.push_back({"T5. Candidate ASes (straw man)", "1,263",
                  {static_cast<double>(e.filtered.input_count)}, render_count});
  rows.push_back({"T5. Kept ASes after the filters", "668",
                  {static_cast<double>(e.filtered.kept.size())}, render_count});

  // Table 3: validation against Carriers A and B.
  const auto render_pr = [](const std::vector<double>& v) {
    return Dbl(v[0], 2) + " / " + Dbl(v[1], 2);
  };
  const struct {
    char label;
    const char* cidr;
    const char* demand;
  } kCarriers[] = {{'A', "0.97 / 0.10", "0.99 / 0.82"}, {'B', "1.00 / 0.99", "1.00 / 0.99"}};
  for (const auto& carrier : kCarriers) {
    const simnet::OperatorInfo* op = analysis::FindCarrier(e, carrier.label);
    if (op == nullptr) continue;
    const std::string name = std::string("T3. Carrier ") + carrier.label;
    const auto v = core::Validate(analysis::BuildCarrierTruth(e.world, op->asn, name),
                                  e.classified, e.demand);
    rows.push_back({name + " CIDR precision / recall", carrier.cidr,
                    {v.by_cidr.Precision(), v.by_cidr.Recall()}, render_pr});
    rows.push_back({name + " demand precision / recall", carrier.demand,
                    {v.by_demand.Precision(), v.by_demand.Recall()}, render_pr});
  }

  // Fig 12: the cellular-fraction anchors.
  const struct {
    const char* iso;
    const char* paper;
  } kAnchors[] = {{"GH", "95.9%"}, {"LA", "87.1%"}, {"ID", "63%"}, {"FR", "12.1%"}};
  for (const auto& anchor : kAnchors) {
    for (const auto& cd : all_countries) {
      if (cd.iso != anchor.iso) continue;
      rows.push_back({std::string("F12. ") + anchor.iso + " cellular fraction of demand",
                      anchor.paper, {cd.CellFraction()}, RenderPct});
    }
  }
  return rows;
}

std::uint64_t Run() {
  const analysis::Experiment& e = analysis::SharedPaperExperiment();
  PrintHeader("Findings summary", "Paper findings (§6.4, §7.3) vs this reproduction");
  util::TextTable t({"Finding", "Paper", "Measured"});
  const std::vector<Finding> rows = Measure(e);
  for (const Finding& f : rows) t.AddRow({f.label, f.paper, f.render(f.values)});
  std::printf("%s", t.Render().c_str());
  return rows.size();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t k = v.size();
  return k % 2 == 1 ? v[k / 2] : (v[k / 2 - 1] + v[k / 2]) / 2.0;
}

/// Every row over one RunExperiment per seed: the per-quantity median
/// and min–max, rendered the way the row renders one measurement. A row
/// a seed cannot produce (FindCarrier finds no such operator) counts
/// only its seeds, shown as "n/K".
void RunSeedSpread(const std::vector<std::uint64_t>& seeds) {
  const double scale = analysis::PaperScaleFromEnv(0.05);
  std::vector<std::string> order;
  std::map<std::string, std::vector<Finding>> by_label;
  for (const std::uint64_t seed : seeds) {
    simnet::WorldConfig config = simnet::WorldConfig::Paper(scale);
    config.seed = seed;
    for (Finding& f : Measure(analysis::RunExperiment(config))) {
      auto& seen = by_label[f.label];
      if (seen.empty()) order.push_back(f.label);
      seen.push_back(std::move(f));
    }
  }

  std::string seed_list;
  for (const std::uint64_t seed : seeds) {
    seed_list += (seed_list.empty() ? "" : ",") + std::to_string(seed);
  }
  std::printf("=================================================================\n");
  std::printf("Findings summary — seed spread over %zu seeds\n", seeds.size());
  std::printf("World: scale %.3g (CELLSPOT_SCALE overrides), seeds %s\n", scale,
              seed_list.c_str());
  std::printf("=================================================================\n");
  util::TextTable t({"Finding", "Paper", "Median", "Min – max", "Seeds"});
  for (const std::string& label : order) {
    const std::vector<Finding>& runs = by_label[label];
    const std::size_t parts = runs.front().values.size();
    std::vector<double> median(parts);
    std::vector<double> lo(parts);
    std::vector<double> hi(parts);
    for (std::size_t i = 0; i < parts; ++i) {
      std::vector<double> v;
      for (const Finding& f : runs) v.push_back(f.values[i]);
      median[i] = Median(v);
      lo[i] = *std::min_element(v.begin(), v.end());
      hi[i] = *std::max_element(v.begin(), v.end());
    }
    const Finding& f = runs.front();
    t.AddRow({label, f.paper, f.render(median), f.render(lo) + " – " + f.render(hi),
              std::to_string(runs.size()) + "/" + std::to_string(seeds.size())});
  }
  std::printf("%s", t.Render().c_str());
}

/// `--seeds a,b,c` (or `--seeds=a,b,c`); empty when absent. False on a
/// malformed list.
bool ParseSeeds(int argc, char** argv, std::vector<std::uint64_t>& seeds) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    std::string_view list;
    if (arg == "--seeds" && i + 1 < argc) {
      list = argv[++i];
    } else if (arg.starts_with("--seeds=")) {
      list = arg.substr(8);
    } else {
      continue;
    }
    for (const std::string_view item : util::Split(list, ',')) {
      const auto seed = util::ParseUint(item);
      if (!seed) {
        std::fprintf(stderr, "--seeds: expected comma-separated integers, got '%.*s'\n",
                     static_cast<int>(list.size()), list.data());
        return false;
      }
      seeds.push_back(*seed);
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::uint64_t> seeds;
  if (!ParseSeeds(argc, argv, seeds)) return 2;
  if (seeds.empty()) return RunBench(argc, argv, "findings_summary", Run);
  BenchArgs args;  // --threads
  if (!ParseBenchArgs(argc, argv, args)) return 2;
  RunSeedSpread(seeds);
  return 0;
}
