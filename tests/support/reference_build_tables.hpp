// Reference table join for the differential tests: the row-by-row join
// query::BuildTables replaced. Each block is joined into a JoinedRow in
// parallel (rendered block text, family and country strings, every
// probe), then the rows are appended one by one through TableBuilder,
// so every string column is a first-appearance dictionary and `block`
// is a str column. Rendered through query::RenderTable, its tables must
// match query::BuildTables byte for byte at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cellspot/exec/executor.hpp"
#include "cellspot/geo/continent.hpp"
#include "cellspot/query/source.hpp"
#include "cellspot/query/table.hpp"
#include "cellspot/util/stable_map.hpp"

namespace cellspot::test_support {

namespace reference_join {

constexpr std::size_t kGrain = 2048;

/// Per-row join results, computed in parallel and appended sequentially.
struct JoinedRow {
  std::string block;
  std::string_view family;
  std::uint64_t asn = 0;  // 0 = unrouted
  std::string_view country;
  std::string_view continent;
  double du = 0.0;
  double ratio = 0.0;
  bool cellular = false;
  bool kept = false;
  bool excluded = false;
  bool in_beacon = false;
};

struct JoinContext {
  const query::ArtifactRefs* refs = nullptr;
  util::StableSet<asdb::AsNumber> kept_asns;
  util::StableSet<std::string> excluded_isos;
};

inline JoinContext MakeJoinContext(const query::ArtifactRefs& refs) {
  JoinContext ctx;
  ctx.refs = &refs;
  if (refs.filtered != nullptr) {
    for (const core::AsAggregate& as : refs.filtered->kept) ctx.kept_asns.Insert(as.asn);
  }
  for (const std::string& iso : refs.excluded_isos) ctx.excluded_isos.Insert(iso);
  return ctx;
}

/// `origin` is the block's pre-resolved origin AS (0 = unrouted).
inline JoinedRow JoinBlock(const JoinContext& ctx, const netaddr::Prefix& block,
                           asdb::AsNumber origin) {
  const query::ArtifactRefs& refs = *ctx.refs;
  JoinedRow row;
  row.block = block.ToString();
  row.family = block.family() == netaddr::Family::kIpv4 ? "v4" : "v6";
  if (origin != 0) {
    row.asn = origin;
    row.kept = ctx.kept_asns.Contains(origin);
    if (refs.as_db != nullptr) {
      if (const asdb::AsRecord* rec = refs.as_db->Find(origin); rec != nullptr) {
        row.country = rec->country_iso;
        row.continent = geo::ContinentCode(rec->continent);
        row.excluded = ctx.excluded_isos.Contains(rec->country_iso);
      }
    }
  }
  row.du = refs.demand->DemandOf(block);
  if (const double* ratio = refs.classified->RatioOf(block); ratio != nullptr) {
    row.ratio = *ratio;
  }
  row.cellular = refs.classified->IsCellular(block);
  row.in_beacon = refs.beacons->Find(block) != nullptr;
  return row;
}

/// Joins `blocks` in parallel; each row lands at its own index.
inline std::vector<JoinedRow> JoinAll(const JoinContext& ctx,
                                      const std::vector<netaddr::Prefix>& blocks,
                                      exec::Executor& executor) {
  const asdb::RoutingTable* rib = ctx.refs->rib;
  std::vector<netaddr::IpAddress> addrs(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) addrs[i] = blocks[i].address();
  std::vector<JoinedRow> rows(blocks.size());
  executor.ParallelFor(blocks.size(), kGrain, [&](std::size_t begin, std::size_t end) {
    std::vector<asdb::AsNumber> origins(end - begin, 0);
    if (rib != nullptr) {
      rib->OriginOfBatch(std::span<const netaddr::IpAddress>(addrs).subspan(begin, end - begin),
                         origins);
    }
    for (std::size_t i = begin; i < end; ++i) {
      rows[i] = JoinBlock(ctx, blocks[i], origins[i - begin]);
    }
  });
  return rows;
}

/// The five leading columns every joined table shares.
struct JoinColumns {
  std::size_t block, family, asn, country, continent;
};

inline JoinColumns AddJoinColumns(query::TableBuilder& b) {
  return {b.AddColumn("block", query::ColumnType::kStr),
          b.AddColumn("family", query::ColumnType::kStr),
          b.AddColumn("asn", query::ColumnType::kU64),
          b.AddColumn("country", query::ColumnType::kStr),
          b.AddColumn("continent", query::ColumnType::kStr)};
}

inline void AppendJoined(query::TableBuilder& b, const JoinedRow& row, const JoinColumns& c) {
  b.AppendStr(c.block, row.block);
  b.AppendStr(c.family, row.family);
  b.AppendU64(c.asn, row.asn);
  b.AppendStr(c.country, row.country);
  b.AppendStr(c.continent, row.continent);
}

inline query::Table BeaconTable(const JoinContext& ctx, exec::Executor& executor) {
  std::vector<netaddr::Prefix> blocks;
  std::vector<dataset::BeaconBlockStats> stats;
  for (const auto& [block, s] : ctx.refs->beacons->rows()) {
    blocks.push_back(block);
    stats.push_back(s);
  }
  const std::vector<JoinedRow> rows = JoinAll(ctx, blocks, executor);

  query::TableBuilder b;
  const JoinColumns join = AddJoinColumns(b);
  const std::size_t c_hits = b.AddColumn("hits", query::ColumnType::kU64);
  const std::size_t c_netinfo = b.AddColumn("netinfo_hits", query::ColumnType::kU64);
  const std::size_t c_cell_l = b.AddColumn("cellular_labels", query::ColumnType::kU64);
  const std::size_t c_wifi_l = b.AddColumn("wifi_labels", query::ColumnType::kU64);
  const std::size_t c_eth_l = b.AddColumn("ethernet_labels", query::ColumnType::kU64);
  const std::size_t c_other_l = b.AddColumn("other_labels", query::ColumnType::kU64);
  const std::size_t c_mobile = b.AddColumn("mobile_browser_hits", query::ColumnType::kU64);
  const std::size_t c_ratio = b.AddColumn("ratio", query::ColumnType::kF64);
  const std::size_t c_du = b.AddColumn("du", query::ColumnType::kF64);
  const std::size_t c_cellular = b.AddColumn("cellular", query::ColumnType::kU64);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JoinedRow& row = rows[i];
    const dataset::BeaconBlockStats& s = stats[i];
    AppendJoined(b, row, join);
    b.AppendU64(c_hits, s.hits);
    b.AppendU64(c_netinfo, s.netinfo_hits);
    b.AppendU64(c_cell_l, s.cellular_labels);
    b.AppendU64(c_wifi_l, s.wifi_labels);
    b.AppendU64(c_eth_l, s.ethernet_labels);
    b.AppendU64(c_other_l, s.other_labels);
    b.AppendU64(c_mobile, s.mobile_browser_hits);
    b.AppendF64(c_ratio, s.CellularRatio());
    b.AppendF64(c_du, row.du);
    b.AppendU64(c_cellular, row.cellular ? 1 : 0);
  }
  return b.Finish();
}

inline query::Table DemandTable(const JoinContext& ctx, exec::Executor& executor) {
  std::vector<netaddr::Prefix> blocks;
  std::vector<double> dus;
  for (const auto& [block, du] : ctx.refs->demand->rows()) {
    blocks.push_back(block);
    dus.push_back(du);
  }
  const std::vector<JoinedRow> rows = JoinAll(ctx, blocks, executor);

  query::TableBuilder b;
  const JoinColumns join = AddJoinColumns(b);
  const std::size_t c_du = b.AddColumn("du", query::ColumnType::kF64);
  const std::size_t c_cellular = b.AddColumn("cellular", query::ColumnType::kU64);
  const std::size_t c_kept = b.AddColumn("kept", query::ColumnType::kU64);
  const std::size_t c_excluded = b.AddColumn("excluded", query::ColumnType::kU64);
  const std::size_t c_in_beacon = b.AddColumn("in_beacon", query::ColumnType::kU64);
  const std::size_t c_cell_du = b.AddColumn("cell_du", query::ColumnType::kF64);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JoinedRow& row = rows[i];
    AppendJoined(b, row, join);
    b.AppendF64(c_du, dus[i]);
    b.AppendU64(c_cellular, row.cellular ? 1 : 0);
    b.AppendU64(c_kept, row.kept ? 1 : 0);
    b.AppendU64(c_excluded, row.excluded ? 1 : 0);
    b.AppendU64(c_in_beacon, row.in_beacon ? 1 : 0);
    b.AppendF64(c_cell_du, row.kept && row.cellular ? dus[i] : 0.0);
  }
  return b.Finish();
}

inline query::Table ClassifiedTable(const JoinContext& ctx, exec::Executor& executor) {
  std::vector<netaddr::Prefix> blocks;
  std::vector<double> ratios;
  for (const auto& [block, ratio] : ctx.refs->classified->ratios()) {
    blocks.push_back(block);
    ratios.push_back(ratio);
  }
  const std::vector<JoinedRow> rows = JoinAll(ctx, blocks, executor);

  query::TableBuilder b;
  const JoinColumns join = AddJoinColumns(b);
  const std::size_t c_ratio = b.AddColumn("ratio", query::ColumnType::kF64);
  const std::size_t c_du = b.AddColumn("du", query::ColumnType::kF64);
  const std::size_t c_cellular = b.AddColumn("cellular", query::ColumnType::kU64);
  const std::size_t c_kept = b.AddColumn("kept", query::ColumnType::kU64);
  const std::size_t c_excluded = b.AddColumn("excluded", query::ColumnType::kU64);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JoinedRow& row = rows[i];
    AppendJoined(b, row, join);
    b.AppendF64(c_ratio, ratios[i]);
    b.AppendF64(c_du, row.du);
    b.AppendU64(c_cellular, row.cellular ? 1 : 0);
    b.AppendU64(c_kept, row.kept ? 1 : 0);
    b.AppendU64(c_excluded, row.excluded ? 1 : 0);
  }
  return b.Finish();
}

}  // namespace reference_join

/// The three joined tables, built row by row.
inline query::TableSet ReferenceBuildTables(const query::ArtifactRefs& refs,
                                            exec::Executor& executor) {
  const reference_join::JoinContext ctx = reference_join::MakeJoinContext(refs);
  query::TableSet tables;
  tables.beacon = reference_join::BeaconTable(ctx, executor);
  tables.demand = reference_join::DemandTable(ctx, executor);
  tables.classified = reference_join::ClassifiedTable(ctx, executor);
  return tables;
}

}  // namespace cellspot::test_support
