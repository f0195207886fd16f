#include "cellspot/analysis/export.hpp"

#include <fstream>
#include <stdexcept>

#include "cellspot/cdn/netinfo_series.hpp"
#include "cellspot/core/validation.hpp"
#include "cellspot/obs/trace.hpp"
#include "cellspot/util/strings.hpp"

namespace cellspot::analysis {

namespace {

std::string Fmt(double v) { return util::FormatDouble(v, 6); }

void WriteCdfPoints(util::TableSink& sink, const std::string& series,
                    const util::EmpiricalCdf& cdf) {
  for (const auto& [x, f] : cdf.points()) {
    sink.Row({series, Fmt(x), Fmt(f)});
  }
}

/// Every figure writer funnels through here: one sink per figure, so a
/// format switch re-renders the identical series.
std::unique_ptr<util::TableSink> Open(std::ostream& out, util::TableFormat format,
                                      std::string title,
                                      const std::vector<std::string>& header) {
  auto sink = util::MakeTableSink(format, out, std::move(title));
  sink->Begin(header);
  return sink;
}

}  // namespace

void WriteFig1Csv(std::ostream& out, util::TableFormat format) {
  auto sink = Open(out, format, "Fig 1: NetInfo API adoption",
                   {"month", "chrome_mobile", "android_webkit", "firefox_mobile",
                    "chrome_desktop", "total"});
  const auto series =
      cdn::SimulateAdoptionSeries({2015, 9}, {2017, 6}, 5'000'000, 20161224);
  for (const cdn::AdoptionPoint& p : series) {
    using netinfo::Browser;
    sink->Row({p.month.ToString(),
               Fmt(p.browser_fraction[static_cast<int>(Browser::kChromeMobile)]),
               Fmt(p.browser_fraction[static_cast<int>(Browser::kAndroidWebkit)]),
               Fmt(p.browser_fraction[static_cast<int>(Browser::kFirefoxMobile)]),
               Fmt(p.browser_fraction[static_cast<int>(Browser::kChromeDesktop)]),
               Fmt(p.total)});
  }
  sink->End();
}

void WriteFig2Csv(const Experiment& exp, std::ostream& out, util::TableFormat format,
                  exec::Executor& executor) {
  auto sink = Open(out, format, "Fig 2: cellular-ratio CDF", {"series", "ratio", "cdf"});
  const auto r = RatioCdfReport(exp, executor);
  WriteCdfPoints(*sink, "v4_subnets", r.v4_subnets);
  WriteCdfPoints(*sink, "v6_subnets", r.v6_subnets);
  WriteCdfPoints(*sink, "v4_demand", r.v4_demand);
  WriteCdfPoints(*sink, "v6_demand", r.v6_demand);
  sink->End();
}

void WriteFig3Csv(const Experiment& exp, std::ostream& out, util::TableFormat format) {
  auto sink = Open(out, format, "Fig 3: threshold sweep",
                   {"carrier", "threshold", "f1_cidr", "f1_demand", "precision",
                    "recall"});
  for (char label : {'A', 'B', 'C'}) {
    const simnet::OperatorInfo* op = FindCarrier(exp, label);
    if (op == nullptr) continue;
    const auto truth = BuildCarrierTruth(exp.world, op->asn, std::string(1, label));
    for (const core::SweepPoint& p :
         core::ThresholdSweep(truth, exp.beacons, exp.demand, 50)) {
      sink->Row({std::string(1, label), Fmt(p.threshold), Fmt(p.f1_cidr),
                 Fmt(p.f1_demand), Fmt(p.precision), Fmt(p.recall)});
    }
  }
  sink->End();
}

void WriteFig4Csv(const Experiment& exp, std::ostream& out, util::TableFormat format) {
  auto sink = Open(out, format, "Fig 4: candidate ASes", {"series", "value", "cdf"});
  const auto d = CandidateAsReport(exp);
  WriteCdfPoints(*sink, "cell_demand_du", d.cell_demand);
  WriteCdfPoints(*sink, "beacon_hits", d.beacon_hits);
  sink->End();
}

void WriteFig5Csv(const Experiment& exp, std::ostream& out, util::TableFormat format) {
  auto sink = Open(out, format, "Fig 5: mixed operators",
                   {"asn", "cfd", "cell_subnet_fraction"});
  for (const core::AsAggregate& as : exp.filtered.kept) {
    sink->Row({std::to_string(as.asn), Fmt(as.Cfd()), Fmt(as.CellSubnetFraction())});
  }
  sink->End();
}

void WriteFig6Csv(const Experiment& exp, std::ostream& out, util::TableFormat format,
                  exec::Executor& executor) {
  auto sink = Open(out, format, "Fig 6: operator breakdown",
                   {"carrier", "ratio", "demand_du"});
  for (char label : {'B', 'A'}) {  // (a) dedicated US, (b) mixed EU
    const simnet::OperatorInfo* op = FindCarrier(exp, label);
    if (op == nullptr) continue;
    for (const OperatorBlockPoint& p : OperatorRatioBreakdown(exp, op->asn, executor)) {
      sink->Row({std::string(1, label), Fmt(p.ratio), Fmt(p.demand_du)});
    }
  }
  sink->End();
}

void WriteFig7Csv(const Experiment& exp, std::ostream& out, util::TableFormat format) {
  auto sink = Open(out, format, "Fig 7: ranked AS demand",
                   {"rank", "asn", "country", "share_of_global_cell", "mixed"});
  const auto ranked = RankAsesByCellDemand(exp);
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    sink->Row({std::to_string(i + 1), std::to_string(ranked[i].asn),
               ranked[i].country_iso, Fmt(ranked[i].share_of_global_cell),
               ranked[i].mixed ? "1" : "0"});
  }
  sink->End();
}

void WriteFig8Csv(const Experiment& exp, std::ostream& out, util::TableFormat format,
                  exec::Executor& executor) {
  auto sink = Open(out, format, "Fig 8: subnet concentration",
                   {"series", "rank", "demand_du"});
  const simnet::OperatorInfo* op = FindCarrier(exp, 'A');
  if (op == nullptr) {
    sink->End();
    return;
  }
  const auto conc = SubnetConcentrationReport(exp, op->asn, executor);
  for (std::size_t i = 0; i < conc.cellular_demands.size(); ++i) {
    sink->Row({"cellular", std::to_string(i + 1), Fmt(conc.cellular_demands[i])});
  }
  for (std::size_t i = 0; i < conc.fixed_demands.size(); ++i) {
    sink->Row({"fixed", std::to_string(i + 1), Fmt(conc.fixed_demands[i])});
  }
  sink->End();
}

void WriteFig9Csv(const Experiment& exp, const dns::DnsSimulator& dns, std::ostream& out,
                  util::TableFormat format) {
  auto sink = Open(out, format, "Fig 9: resolver sharing", {"cellular_fraction", "cdf"});
  const util::EmpiricalCdf cdf = ResolverSharingReport(exp, dns);
  for (const auto& [x, f] : cdf.points()) {
    sink->Row({Fmt(x), Fmt(f)});
  }
  sink->End();
}

void WriteFig10Csv(const Experiment& exp, const dns::DnsSimulator& dns, std::ostream& out,
                   util::TableFormat format) {
  auto sink = Open(out, format, "Fig 10: public DNS share",
                   {"operator", "asn", "google_dns", "open_dns", "level3"});
  for (const PublicDnsRow& row : PublicDnsReport(exp, dns)) {
    sink->Row({row.label, std::to_string(row.asn), Fmt(row.share[0]), Fmt(row.share[1]),
               Fmt(row.share[2])});
  }
  sink->End();
}

void WriteCountryCsv(const Experiment& exp, std::ostream& out, util::TableFormat format,
                     exec::Executor& executor) {
  auto sink = Open(out, format, "Fig 11/12: country demand",
                   {"iso", "continent", "cell_du", "total_du", "cell_fraction",
                    "excluded"});
  for (const CountryDemand& cd : CountryDemandReport(exp, executor)) {
    sink->Row({cd.iso, std::string(geo::ContinentCode(cd.continent)), Fmt(cd.cell_du),
               Fmt(cd.total_du), Fmt(cd.CellFraction()), cd.excluded ? "1" : "0"});
  }
  sink->End();
}

std::vector<std::string> ExportAllFigures(const Experiment& exp,
                                          const dns::DnsSimulator& dns,
                                          const std::string& dir,
                                          util::TableFormat format,
                                          exec::Executor& executor) {
  obs::TraceSpan span("analysis.export");
  const char* ext = format == util::TableFormat::kCsv    ? ".csv"
                    : format == util::TableFormat::kJson ? ".json"
                                                         : ".txt";
  std::vector<std::string> written;
  auto save = [&](const std::string& name, auto writer_fn) {
    const std::string path = dir + "/" + name + ext;
    std::ofstream out(path);
    if (!out) throw std::runtime_error("ExportAllFigures: cannot write " + path);
    writer_fn(out);
    written.push_back(path);
    span.AddItems(1);
  };
  save("fig01_netinfo_adoption", [&](std::ostream& o) { WriteFig1Csv(o, format); });
  save("fig02_ratio_cdf", [&](std::ostream& o) { WriteFig2Csv(exp, o, format, executor); });
  save("fig03_threshold_sweep", [&](std::ostream& o) { WriteFig3Csv(exp, o, format); });
  save("fig04_candidate_ases", [&](std::ostream& o) { WriteFig4Csv(exp, o, format); });
  save("fig05_mixed_operators", [&](std::ostream& o) { WriteFig5Csv(exp, o, format); });
  save("fig06_operator_breakdown",
       [&](std::ostream& o) { WriteFig6Csv(exp, o, format, executor); });
  save("fig07_ranked_as_demand", [&](std::ostream& o) { WriteFig7Csv(exp, o, format); });
  save("fig08_subnet_concentration",
       [&](std::ostream& o) { WriteFig8Csv(exp, o, format, executor); });
  save("fig09_resolver_sharing",
       [&](std::ostream& o) { WriteFig9Csv(exp, dns, o, format); });
  save("fig10_public_dns", [&](std::ostream& o) { WriteFig10Csv(exp, dns, o, format); });
  save("fig11_fig12_countries",
       [&](std::ostream& o) { WriteCountryCsv(exp, o, format, executor); });
  return written;
}

}  // namespace cellspot::analysis
