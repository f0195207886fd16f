// CSV persistence for the AS database and routing table, so the pipeline
// can run fully decoupled from the simulator (e.g. the cellspot CLI
// consuming a real RIB dump and CAIDA classification file).
#pragma once

#include <iosfwd>

#include "cellspot/asdb/as_database.hpp"
#include "cellspot/util/ingest.hpp"

namespace cellspot::asdb {

/// asn,name,country_iso,continent_code,class,kind
void SaveAsDatabaseCsv(const AsDatabase& db, std::ostream& out);

/// Inverse of SaveAsDatabaseCsv. Row-level faults go through the ingest
/// policy in `options` — strict by default, so bad rows throw
/// cellspot::ParseError. A missing/garbled header is itself one rejected
/// line; an empty stream always throws.
[[nodiscard]] AsDatabase LoadAsDatabaseCsv(std::istream& in,
                                           const util::LoadOptions& options = {});

/// prefix,asn — one route per row, in the table's Prefix order.
void SaveRoutingTableCsv(const RoutingTable& rib, std::ostream& out);

/// Inverse of SaveRoutingTableCsv; rows may come in any order, and a
/// later row for the same prefix overwrites an earlier one. Same
/// ingest-policy contract as LoadAsDatabaseCsv.
[[nodiscard]] RoutingTable LoadRoutingTableCsv(std::istream& in,
                                               const util::LoadOptions& options = {});

/// Textual names used in the CSV round trip.
[[nodiscard]] std::optional<AsClass> AsClassFromName(std::string_view name) noexcept;
[[nodiscard]] std::optional<OperatorKind> OperatorKindFromName(std::string_view name) noexcept;

}  // namespace cellspot::asdb
