#include "cellspot/asdb/serialization.hpp"

#include <istream>
#include <ostream>
#include <utility>
#include <vector>

#include "cellspot/util/csv.hpp"
#include "cellspot/util/error.hpp"
#include "cellspot/util/parse.hpp"

namespace cellspot::asdb {

namespace {

constexpr std::string_view kAsDbHeader = "asn,name,country,continent,class,kind";
constexpr std::string_view kRibHeader = "prefix,asn";

}  // namespace

std::optional<AsClass> AsClassFromName(std::string_view name) noexcept {
  for (AsClass c : {AsClass::kUnknown, AsClass::kEnterprise, AsClass::kContent,
                    AsClass::kTransitAccess}) {
    if (AsClassName(c) == name) return c;
  }
  return std::nullopt;
}

std::optional<OperatorKind> OperatorKindFromName(std::string_view name) noexcept {
  for (OperatorKind k :
       {OperatorKind::kDedicatedCellular, OperatorKind::kMixed, OperatorKind::kFixedOnly,
        OperatorKind::kCloudHosting, OperatorKind::kMobileProxy, OperatorKind::kTransit}) {
    if (OperatorKindName(k) == name) return k;
  }
  return std::nullopt;
}

void SaveAsDatabaseCsv(const AsDatabase& db, std::ostream& out) {
  util::CsvWriter writer(out);
  writer.WriteRow({"asn", "name", "country", "continent", "class", "kind"});
  for (const AsRecord& r : db.records()) {
    writer.WriteRow({std::to_string(r.asn), r.name, r.country_iso,
                     std::string(geo::ContinentCode(r.continent)),
                     std::string(AsClassName(r.cls)),
                     std::string(OperatorKindName(r.kind))});
  }
}

namespace {

AsDatabase LoadAsDatabaseCsvImpl(std::istream& in, util::IngestReport& report) {
  AsDatabase db;
  bool saw_header = false;
  util::IngestLines(in, report, [&](std::size_t, std::string_view line) {
    const auto row = util::ParseCsvLine(line);
    if (!saw_header) {
      saw_header = true;  // consumed even when wrong, so data rows still parse
      if (util::JoinCsvLine(row) != kAsDbHeader) {
        throw ParseError("AS database CSV: missing or wrong header (got '" +
                             util::JoinCsvLine(row) + "', want '" +
                             std::string(kAsDbHeader) + "')",
                         ParseErrorCategory::kBadHeader);
      }
      return;
    }
    if (row.size() != 6) {
      throw ParseError("AS database CSV: expected 6 columns, got " +
                           std::to_string(row.size()),
                       row.size() < 6 ? ParseErrorCategory::kTruncatedLine
                                      : ParseErrorCategory::kBadFieldCount);
    }
    AsRecord record;
    const auto asn = util::TryParseNumber<AsNumber>(row[0]);
    if (!asn || *asn == 0) {
      throw ParseError("AS database CSV: bad asn '" + row[0] + "'",
                       ParseErrorCategory::kBadNumber);
    }
    record.asn = *asn;
    record.name = row[1];
    record.country_iso = row[2];
    const auto continent = geo::ContinentFromCode(row[3]);
    if (!continent) {
      throw ParseError("AS database CSV: bad continent '" + row[3] + "'",
                       ParseErrorCategory::kBadEnumValue);
    }
    record.continent = *continent;
    const auto cls = AsClassFromName(row[4]);
    if (!cls) {
      throw ParseError("AS database CSV: bad class '" + row[4] + "'",
                       ParseErrorCategory::kBadEnumValue);
    }
    record.cls = *cls;
    const auto kind = OperatorKindFromName(row[5]);
    if (!kind) {
      throw ParseError("AS database CSV: bad kind '" + row[5] + "'",
                       ParseErrorCategory::kBadEnumValue);
    }
    record.kind = *kind;
    db.Upsert(std::move(record));
  });
  if (!saw_header) {
    throw ParseError("AS database CSV: missing header (empty input)",
                     ParseErrorCategory::kBadHeader);
  }
  return db;
}

}  // namespace

AsDatabase LoadAsDatabaseCsv(std::istream& in, const util::LoadOptions& options) {
  util::ScopedLoadReport scoped(options);
  return LoadAsDatabaseCsvImpl(in, scoped.get());
}

void SaveRoutingTableCsv(const RoutingTable& rib, std::ostream& out) {
  util::CsvWriter writer(out);
  writer.WriteRow({"prefix", "asn"});
  for (const auto& [prefix, asn] : rib.entries()) {
    writer.WriteRow({prefix.ToString(), std::to_string(asn)});
  }
}

namespace {

RoutingTable LoadRoutingTableCsvImpl(std::istream& in, util::IngestReport& report) {
  std::vector<RoutingTable::Route> announcements;
  bool saw_header = false;
  util::IngestLines(in, report, [&](std::size_t, std::string_view line) {
    const auto row = util::ParseCsvLine(line);
    if (!saw_header) {
      saw_header = true;  // consumed even when wrong, so data rows still parse
      if (util::JoinCsvLine(row) != kRibHeader) {
        throw ParseError("RIB CSV: missing or wrong header (got '" +
                             util::JoinCsvLine(row) + "', want '" +
                             std::string(kRibHeader) + "')",
                         ParseErrorCategory::kBadHeader);
      }
      return;
    }
    if (row.size() != 2) {
      throw ParseError("RIB CSV: expected 2 columns, got " +
                           std::to_string(row.size()),
                       row.size() < 2 ? ParseErrorCategory::kTruncatedLine
                                      : ParseErrorCategory::kBadFieldCount);
    }
    const auto asn = util::TryParseNumber<AsNumber>(row[1]);
    if (!asn || *asn == 0) {
      throw ParseError("RIB CSV: bad asn '" + row[1] + "'",
                       ParseErrorCategory::kBadNumber);
    }
    announcements.emplace_back(netaddr::Prefix::Parse(row[0]), *asn);
  });
  if (!saw_header) {
    throw ParseError("RIB CSV: missing header (empty input)",
                     ParseErrorCategory::kBadHeader);
  }
  return RoutingTable(std::move(announcements));
}

}  // namespace

RoutingTable LoadRoutingTableCsv(std::istream& in, const util::LoadOptions& options) {
  util::ScopedLoadReport scoped(options);
  return LoadRoutingTableCsvImpl(in, scoped.get());
}

}  // namespace cellspot::asdb
