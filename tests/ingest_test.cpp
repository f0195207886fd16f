// Fault-tolerant ingestion: the ingest report/policy machinery, lenient
// loader behavior, and the end-to-end guarantee that a corrupted beacon
// log ingested leniently reproduces the clean classification.
#include "cellspot/util/ingest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "cellspot/asdb/serialization.hpp"
#include "cellspot/cdn/beacon_generator.hpp"
#include "cellspot/cdn/beacon_log.hpp"
#include "cellspot/core/classifier.hpp"
#include "cellspot/dataset/beacon_dataset.hpp"
#include "cellspot/dataset/demand_dataset.hpp"
#include "cellspot/faultsim/stream_corruptor.hpp"
#include "cellspot/simnet/world.hpp"
#include "cellspot/util/csv.hpp"

namespace cellspot {
namespace {

using util::IngestLimits;
using util::IngestPolicy;
using util::IngestReport;

// ---- ParseError context ----------------------------------------------------

TEST(ParseError, CarriesCategoryAndLineNumber) {
  const ParseError plain("bad things");
  EXPECT_EQ(plain.category(), ParseErrorCategory::kOther);
  EXPECT_FALSE(plain.line_number().has_value());

  const ParseError categorized("bad asn", ParseErrorCategory::kBadNumber);
  EXPECT_EQ(categorized.category(), ParseErrorCategory::kBadNumber);

  const ParseError located("bad asn", ParseErrorCategory::kBadNumber, 42);
  ASSERT_TRUE(located.line_number().has_value());
  EXPECT_EQ(*located.line_number(), 42u);
  EXPECT_STREQ(located.what(), "line 42: bad asn");

  const ParseError legacy("bad row", 7);
  EXPECT_EQ(*legacy.line_number(), 7u);
  EXPECT_EQ(legacy.category(), ParseErrorCategory::kOther);
}

// ---- IngestReport ----------------------------------------------------------

TEST(IngestReport, StrictRethrowsWithLineNumber) {
  IngestReport report;  // default strict
  try {
    report.RecordError(ParseError("bad day 'x'", ParseErrorCategory::kBadNumber),
                       "x,1.2.3.4,chrome-mobile,-", 13);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.category(), ParseErrorCategory::kBadNumber);
    ASSERT_TRUE(e.line_number().has_value());
    EXPECT_EQ(*e.line_number(), 13u);
    EXPECT_TRUE(std::string(e.what()).starts_with("line 13:"));
  }
}

TEST(IngestReport, SkipCountsPerCategoryAndKeepsExemplars) {
  IngestReport report(IngestPolicy::kSkip, IngestLimits{.max_error_rate = 1.0,
                                                        .max_exemplars = 2});
  for (std::size_t i = 1; i <= 5; ++i) {
    report.RecordError(ParseError("bad", ParseErrorCategory::kBadAddress),
                       "line-" + std::to_string(i), i);
  }
  report.RecordError(ParseError("short", ParseErrorCategory::kTruncatedLine), "x", 6);
  report.RecordOk();

  EXPECT_EQ(report.lines_rejected(), 6u);
  EXPECT_EQ(report.lines_ok(), 1u);
  EXPECT_EQ(report.count(ParseErrorCategory::kBadAddress), 5u);
  EXPECT_EQ(report.count(ParseErrorCategory::kTruncatedLine), 1u);
  ASSERT_EQ(report.exemplars(ParseErrorCategory::kBadAddress).size(), 2u);
  EXPECT_EQ(report.exemplars(ParseErrorCategory::kBadAddress)[0].line, "line-1");
  EXPECT_EQ(report.exemplars(ParseErrorCategory::kBadAddress)[0].line_no, 1u);
  EXPECT_NEAR(report.error_rate(), 6.0 / 7.0, 1e-12);
}

TEST(IngestReport, BudgetEnforcedEvenWhenLenient) {
  IngestReport report(IngestPolicy::kSkip, IngestLimits{.max_error_rate = 0.5});
  report.RecordOk();
  report.RecordError(ParseError("bad"), "raw", 2);
  EXPECT_NO_THROW(report.CheckBudget());  // 1/2 == budget, not above it
  report.RecordError(ParseError("bad"), "raw", 3);
  EXPECT_THROW(report.CheckBudget(), util::IngestBudgetError);
}

TEST(IngestReport, QuarantineWritesRejectedLinesVerbatim) {
  std::ostringstream quarantine;
  IngestReport report(IngestPolicy::kQuarantine, {}, &quarantine);
  report.RecordError(ParseError("bad"), "first,raw,line", 1);
  report.RecordError(ParseError("bad"), "second \"raw\" line", 9);
  EXPECT_EQ(quarantine.str(), "first,raw,line\nsecond \"raw\" line\n");
}

TEST(IngestReport, RenderTableListsCategoriesAndTotals) {
  IngestReport report(IngestPolicy::kSkip, {});
  report.RecordOk();
  report.RecordError(ParseError("bad ip", ParseErrorCategory::kBadAddress), "raw", 3);
  const std::string table = report.RenderTable();
  EXPECT_NE(table.find("bad-address"), std::string::npos);
  EXPECT_NE(table.find("line 3"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);
}

TEST(IngestLines, SkipsBlankLinesAndRoutesErrors) {
  std::istringstream in("good\n\n  \nboom\ngood\n");
  IngestReport report(IngestPolicy::kSkip, {});
  std::vector<std::size_t> good_lines;
  util::IngestLines(in, report, [&](std::size_t line_no, std::string_view line) {
    if (line != "good") throw ParseError("not good");
    good_lines.push_back(line_no);
  });
  EXPECT_EQ(report.lines_ok(), 2u);
  EXPECT_EQ(report.lines_rejected(), 2u);  // "  " and "boom"
  EXPECT_EQ(good_lines, (std::vector<std::size_t>{1, 5}));
}

// ---- lenient loaders -------------------------------------------------------

TEST(ReadCsv, LenientSkipsUnterminatedQuote) {
  std::istringstream in("a,b\n\"oops\nc,d\n");
  IngestReport report(IngestPolicy::kSkip, {});
  const auto rows = util::ReadCsv(in, {.report = &report});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "d");
  EXPECT_EQ(report.count(ParseErrorCategory::kUnterminatedQuote), 1u);
}

TEST(BeaconDatasetLoad, LenientSkipsBadRows) {
  std::istringstream in(
      "block,hits,netinfo_hits,cellular,wifi,ethernet,other,mobile_browser\n"
      "10.0.0.0/24,10,5,4,1,0,0,6\n"
      "not-a-prefix,10,5,4,1,0,0,6\n"
      "10.0.1.0/24,10,5\n"
      "10.0.2.0/24,10,5,nine,1,0,0,6\n"
      "10.0.3.0/24,10,20,4,1,0,0,6\n"  // netinfo_hits > hits
      "10.0.4.0/24,8,4,4,0,0,0,2\n");
  IngestReport report(IngestPolicy::kSkip, {});
  const auto loaded = dataset::BeaconDataset::LoadCsv(in, {.report = &report});
  EXPECT_EQ(loaded.block_count(), 2u);
  EXPECT_EQ(report.count(ParseErrorCategory::kBadAddress), 1u);
  EXPECT_EQ(report.count(ParseErrorCategory::kTruncatedLine), 1u);
  EXPECT_EQ(report.count(ParseErrorCategory::kBadNumber), 1u);
  EXPECT_EQ(report.count(ParseErrorCategory::kInconsistentRecord), 1u);
  EXPECT_EQ(report.lines_rejected(), 4u);
}

TEST(DemandDatasetLoad, LenientSkipsBadRows) {
  std::istringstream in(
      "block,demand_du\n"
      "10.0.0.0/24,5.5\n"
      "10.0.1.0/24,not-a-number\n"
      "10.0.2.0/24,-3.0\n"  // negative demand is inconsistent
      "10.0.3.0/24,1.5\n");
  IngestReport report(IngestPolicy::kSkip, {});
  const auto loaded = dataset::DemandDataset::LoadCsv(in, {.report = &report});
  EXPECT_EQ(loaded.block_count(), 2u);
  EXPECT_EQ(report.count(ParseErrorCategory::kBadNumber), 1u);
  EXPECT_EQ(report.count(ParseErrorCategory::kInconsistentRecord), 1u);
}

TEST(AsDatabaseLoad, LenientSkipsBadRowsAndMissingHeader) {
  // No header: the first data row is consumed by the header check and
  // rejected; the remaining rows still load.
  std::istringstream in(
      "1,GoodAS,US,NA,Transit/Access,Mixed\n"
      "2,BadContinent,US,XX,Transit/Access,Mixed\n"
      "3,BadKind,US,NA,Transit/Access,flying-saucer\n"
      "4,AlsoGood,DE,EU,Content,FixedOnly\n");
  IngestReport report(IngestPolicy::kSkip, {});
  const auto db = asdb::LoadAsDatabaseCsv(in, {.report = &report});
  EXPECT_EQ(report.count(ParseErrorCategory::kBadHeader), 1u);
  EXPECT_EQ(report.count(ParseErrorCategory::kBadEnumValue), 2u);
  EXPECT_EQ(db.Find(4) != nullptr, true);
  EXPECT_EQ(db.Find(1), nullptr);  // eaten by the header slot
}

TEST(AsDatabaseLoad, EmptyStreamThrowsEvenWhenLenient) {
  std::istringstream in("");
  IngestReport report(IngestPolicy::kSkip, {});
  EXPECT_THROW((void)asdb::LoadAsDatabaseCsv(in, {.report = &report}), ParseError);
}

TEST(RoutingTableLoad, LenientSkipsBadRows) {
  std::istringstream in(
      "prefix,asn\n"
      "10.0.0.0/24,1\n"
      "10.0.1.0/24,zero\n"
      "garbage/99,1\n"
      "10.0.2.0/24,2\n");
  IngestReport report(IngestPolicy::kSkip, {});
  const auto rib = asdb::LoadRoutingTableCsv(in, {.report = &report});
  EXPECT_EQ(report.count(ParseErrorCategory::kBadNumber), 1u);
  EXPECT_EQ(report.count(ParseErrorCategory::kBadAddress), 1u);
  EXPECT_TRUE(rib.OriginOf(netaddr::IpAddress::Parse("10.0.2.9")).has_value());
}

// ---- LoadOptions -----------------------------------------------------------

TEST(LoadOptions, InlinePolicyNeedsNoExternalReport) {
  std::istringstream in("a,b\n\"oops\nc,d\n");
  const auto rows = util::ReadCsv(in, {.policy = IngestPolicy::kSkip});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "d");
}

TEST(LoadOptions, InlineQuarantineStream) {
  std::istringstream in("a,b\n\"oops\nc,d\n");
  std::ostringstream quarantine;
  const auto rows = util::ReadCsv(
      in, {.policy = IngestPolicy::kQuarantine, .quarantine = &quarantine});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(quarantine.str(), "\"oops\n");
}

TEST(LoadOptions, InlineBudgetEnforced) {
  std::istringstream in("\"oops\n\"oops\nc,d\n");  // 2 of 3 lines rejected
  EXPECT_THROW(
      (void)util::ReadCsv(in, {.policy = IngestPolicy::kSkip,
                               .limits = {.max_error_rate = 0.5}}),
      util::IngestBudgetError);
}

TEST(LoadOptions, ExternalReportWinsOverInlineFields) {
  // The report's own (strict) policy governs, not the inline kSkip.
  std::istringstream in("\"oops\n");
  IngestReport report;  // strict
  EXPECT_THROW(
      (void)util::ReadCsv(in, {.policy = IngestPolicy::kSkip, .report = &report}),
      ParseError);
}

TEST(LoadOptions, ExternalReportAccumulatesAcrossCalls) {
  // LoadOptions{.report = &report} is the migration target of the old
  // (istream, IngestReport&) overloads: one report spans many loads.
  std::istringstream in("a,b\n\"oops\nc,d\n");
  IngestReport report(IngestPolicy::kSkip, {});
  const auto rows = util::ReadCsv(in, {.report = &report});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(report.count(ParseErrorCategory::kUnterminatedQuote), 1u);
  std::istringstream in2("\"oops again\n");
  EXPECT_TRUE(util::ReadCsv(in2, {.report = &report}).empty());
  EXPECT_EQ(report.count(ParseErrorCategory::kUnterminatedQuote), 2u);
}

// ---- end-to-end: corrupted beacon log --------------------------------------

std::string TinyBeaconLog() {
  static const std::string log = [] {
    const simnet::World world = simnet::World::Generate(simnet::WorldConfig::Tiny());
    const cdn::BeaconGenerator generator(world);
    std::string out;
    (void)generator.StreamHits(
        [&](const netaddr::Prefix&, const cdn::BeaconHit& hit) {
          out += cdn::FormatBeaconLogLine(hit);
          out += '\n';
        },
        20000);
    return out;
  }();
  return log;
}

// Corrupt ~1% of lines with record-destroying faults, but keep the
// original records alongside the corrupted copies so clean data survives.
std::string CorruptedTinyLog(faultsim::CorruptionStats* stats = nullptr) {
  faultsim::StreamCorruptor corruptor(faultsim::FaultMix::Destructive(0.01), 99,
                                      /*preserve_originals=*/true);
  std::istringstream in(TinyBeaconLog());
  std::ostringstream out;
  const auto pass = corruptor.Corrupt(in, out);
  if (stats != nullptr) *stats = pass;
  return out.str();
}

TEST(CorruptedIngest, SkipPolicyReproducesCleanClassification) {
  std::istringstream clean_in(TinyBeaconLog());
  const auto clean = cdn::AggregateBeaconLog(clean_in);

  faultsim::CorruptionStats stats;
  std::istringstream dirty_in(CorruptedTinyLog(&stats));
  ASSERT_GT(stats.total_faults(), 0u);
  IngestReport report(IngestPolicy::kSkip, IngestLimits{.max_error_rate = 0.05});
  const auto dirty = cdn::AggregateBeaconLog(dirty_in, {.report = &report});

  // Every injected fault was rejected; every clean record survived.
  EXPECT_EQ(report.lines_rejected(), stats.total_faults());
  EXPECT_EQ(dirty.block_count(), clean.block_count());
  EXPECT_EQ(dirty.total_hits(), clean.total_hits());
  EXPECT_EQ(dirty.total_netinfo_hits(), clean.total_netinfo_hits());

  const core::ClassifiedSubnets dirty_classified = core::SubnetClassifier().Classify(dirty);
  const core::ClassifiedSubnets clean_classified = core::SubnetClassifier().Classify(clean);
  EXPECT_TRUE(std::ranges::equal(dirty_classified.cellular(), clean_classified.cellular()));
  EXPECT_TRUE(std::ranges::equal(dirty_classified.ratios(), clean_classified.ratios()));
}

TEST(CorruptedIngest, QuarantineCollectsExactlyTheRejectedLines) {
  const std::string dirty = CorruptedTinyLog();

  // Expected quarantine: the non-blank lines ParseBeaconLogLine rejects.
  std::string expected;
  {
    std::istringstream in(dirty);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      try {
        (void)cdn::ParseBeaconLogLine(line);
      } catch (const ParseError&) {
        expected += line;
        expected += '\n';
      }
    }
  }
  ASSERT_FALSE(expected.empty());

  std::ostringstream quarantine;
  IngestReport report(IngestPolicy::kQuarantine,
                      IngestLimits{.max_error_rate = 0.05}, &quarantine);
  std::istringstream in(dirty);
  const auto dataset = cdn::AggregateBeaconLog(in, {.report = &report});
  EXPECT_GT(dataset.block_count(), 0u);
  EXPECT_EQ(quarantine.str(), expected);

  // Replay: the quarantined lines are all still rejects (nothing lost by
  // skipping them) — replaying after an upstream fix would re-ingest.
  std::istringstream replay(quarantine.str());
  IngestReport replay_report(IngestPolicy::kSkip, {});
  const auto replayed = cdn::AggregateBeaconLog(replay, {.report = &replay_report});
  EXPECT_EQ(replayed.block_count(), 0u);
  EXPECT_EQ(replay_report.lines_ok(), 0u);
  EXPECT_EQ(replay_report.lines_rejected(), report.lines_rejected());
}

TEST(CorruptedIngest, StrictModeFailsWithLineNumber) {
  std::istringstream in(CorruptedTinyLog());
  try {
    (void)cdn::AggregateBeaconLog(in);
    FAIL() << "expected ParseError on a corrupted stream";
  } catch (const ParseError& e) {
    EXPECT_TRUE(e.line_number().has_value());
    EXPECT_TRUE(std::string(e.what()).starts_with("line "));
  }
}

TEST(CorruptedIngest, ExceedingTheBudgetThrows) {
  std::istringstream in(CorruptedTinyLog());
  IngestReport report(IngestPolicy::kSkip, IngestLimits{.max_error_rate = 0.0001});
  EXPECT_THROW((void)cdn::AggregateBeaconLog(in, {.report = &report}), util::IngestBudgetError);
}

// ---- wrong-header recovery --------------------------------------------------
// A file with a wrong (not just missing) header must (a) name the
// offending header text in the strict error, and (b) in skip mode,
// consume the bad header once and then load every data row after it —
// in every CSV loader.

TEST(WrongHeader, StrictErrorNamesTheOffendingHeader) {
  std::istringstream in("asn,nome,pais,continente,clase,tipo\n");
  try {
    (void)asdb::LoadAsDatabaseCsv(in);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.category(), ParseErrorCategory::kBadHeader);
    const std::string what = e.what();
    EXPECT_NE(what.find("asn,nome,pais,continente,clase,tipo"), std::string::npos)
        << "error must quote the header it saw: " << what;
    EXPECT_NE(what.find("asn,name,country,continent,class,kind"), std::string::npos)
        << "error must name the header it wanted: " << what;
  }
}

TEST(WrongHeader, AsDatabaseRecoversInSkipMode) {
  std::istringstream in(
      "asn;name;country;continent;class;kind\n"
      "1,GoodAS,US,NA,Transit/Access,Mixed\n"
      "2,AlsoGood,DE,EU,Content,FixedOnly\n");
  IngestReport report(IngestPolicy::kSkip, {});
  const auto db = asdb::LoadAsDatabaseCsv(in, {.report = &report});
  EXPECT_EQ(report.count(ParseErrorCategory::kBadHeader), 1u);
  EXPECT_EQ(db.size(), 2u);
  EXPECT_NE(db.Find(1), nullptr);
  EXPECT_NE(db.Find(2), nullptr);
}

TEST(WrongHeader, RoutingTableRecoversInSkipMode) {
  std::istringstream in(
      "prefix,origin_asn\n"
      "10.0.0.0/24,1\n"
      "10.0.1.0/24,2\n");
  IngestReport report(IngestPolicy::kSkip, {});
  const auto rib = asdb::LoadRoutingTableCsv(in, {.report = &report});
  EXPECT_EQ(report.count(ParseErrorCategory::kBadHeader), 1u);
  EXPECT_EQ(rib.size(), 2u);
  EXPECT_EQ(report.lines_ok(), 2u);
}

TEST(WrongHeader, BeaconDatasetRecoversInSkipMode) {
  std::istringstream in(
      "block,hits,netinfo,cellular,wifi,ethernet,other,mobile\n"
      "10.0.0.0/24,10,8,6,2,0,0,5\n"
      "10.0.1.0/24,4,4,0,4,0,0,1\n");
  IngestReport report(IngestPolicy::kSkip, {});
  const auto loaded = dataset::BeaconDataset::LoadCsv(in, {.report = &report});
  EXPECT_EQ(report.count(ParseErrorCategory::kBadHeader), 1u);
  EXPECT_EQ(loaded.block_count(), 2u);
  EXPECT_EQ(report.lines_ok(), 2u);
}

TEST(WrongHeader, DemandDatasetRecoversInSkipMode) {
  std::istringstream in(
      "block,demand\n"
      "10.0.0.0/24,12.5\n"
      "10.0.1.0/24,0.5\n");
  IngestReport report(IngestPolicy::kSkip, {});
  const auto loaded = dataset::DemandDataset::LoadCsv(in, {.report = &report});
  EXPECT_EQ(report.count(ParseErrorCategory::kBadHeader), 1u);
  EXPECT_EQ(loaded.block_count(), 2u);
  EXPECT_EQ(report.lines_ok(), 2u);
}

}  // namespace
}  // namespace cellspot
