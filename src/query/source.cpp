#include "cellspot/query/source.hpp"

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cellspot/core/sharded_aggregation.hpp"
#include "cellspot/exec/executor.hpp"
#include "cellspot/obs/metrics.hpp"
#include "cellspot/obs/trace.hpp"
#include "cellspot/snapshot/serde.hpp"
#include "cellspot/snapshot/snapshot.hpp"
#include "cellspot/stream/checkpoint.hpp"
#include "cellspot/stream/daemon.hpp"
#include "cellspot/util/stable_map.hpp"

namespace fs = std::filesystem;

namespace cellspot::query {
namespace {

constexpr std::size_t kGrain = 2048;

void RecordDecode(obs::TraceSpan& span) {
  obs::MetricsRegistry::Global().latency("query.decode").Record(span.elapsed_ms());
}

std::string_view FamilyName(netaddr::Family f) noexcept {
  return f == netaddr::Family::kIpv4 ? "v4" : "v6";
}

/// Join candidates/filter outcome onto a freshly decoded bundle.
void FinishBundle(SnapshotBundle& bundle, const BundleOptions& options,
                  exec::Executor& executor) {
  bundle.candidates = core::AggregateCandidateAsesSharded(
      bundle.world.rib(), bundle.classified, bundle.beacons, bundle.demand, executor);
  bundle.filtered = core::ApplyAsFilters(bundle.candidates, bundle.world.as_db(),
                                         options.filters);
}

[[noreturn]] void BadSource(const std::string& what) {
  throw QueryError(what, QueryErrorCode::kBadSource);
}

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
  const ArtifactRefs* refs = nullptr;
  util::StableSet<asdb::AsNumber> kept_asns;
  util::StableSet<std::string> excluded_isos;
};

JoinContext MakeJoinContext(const ArtifactRefs& refs) {
  JoinContext ctx;
  ctx.refs = &refs;
  if (refs.filtered != nullptr) {
    for (const core::AsAggregate& as : refs.filtered->kept) ctx.kept_asns.Insert(as.asn);
  }
  for (const std::string& iso : refs.excluded_isos) ctx.excluded_isos.Insert(iso);
  return ctx;
}

/// `origin` is the block's pre-resolved origin AS (0 = unrouted); the
/// batch LPM lookup happens in JoinAll so the hot per-row path here
/// never walks the routing table.
JoinedRow JoinBlock(const JoinContext& ctx, const netaddr::Prefix& block,
                    asdb::AsNumber origin) {
  const ArtifactRefs& refs = *ctx.refs;
  JoinedRow row;
  row.block = block.ToString();
  row.family = FamilyName(block.family());
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

/// Run the join for `blocks` in parallel; results land at their row's
/// index, so output order is the artifact's iteration order at any
/// thread count. Each chunk resolves its origins in one batch LPM call
/// before joining row by row.
std::vector<JoinedRow> JoinAll(const JoinContext& ctx,
                               const std::vector<netaddr::Prefix>& blocks,
                               exec::Executor& executor) {
  const asdb::RoutingTable* rib = ctx.refs->rib;
  std::vector<netaddr::IpAddress> addrs(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) addrs[i] = blocks[i].address();
  if (rib != nullptr) {
    (void)rib->Flat();  // compile once, not under the first chunk
  }
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

void AppendJoined(TableBuilder& b, const JoinedRow& row,
                  const std::size_t cols[5]) {
  b.AppendStr(cols[0], row.block);
  b.AppendStr(cols[1], row.family);
  b.AppendU64(cols[2], row.asn);
  b.AppendStr(cols[3], row.country);
  b.AppendStr(cols[4], row.continent);
}

Table BuildBeaconTable(const ArtifactRefs& refs, const JoinContext& ctx,
                       exec::Executor& executor) {
  std::vector<netaddr::Prefix> blocks;
  std::vector<const dataset::BeaconBlockStats*> stats;
  refs.beacons->ForEach([&](const netaddr::Prefix& block,
                            const dataset::BeaconBlockStats& s) {
    blocks.push_back(block);
    stats.push_back(&s);
  });
  const std::vector<JoinedRow> rows = JoinAll(ctx, blocks, executor);

  TableBuilder b;
  const std::size_t join_cols[5] = {
      b.AddColumn("block", ColumnType::kStr), b.AddColumn("family", ColumnType::kStr),
      b.AddColumn("asn", ColumnType::kU64), b.AddColumn("country", ColumnType::kStr),
      b.AddColumn("continent", ColumnType::kStr)};
  const std::size_t c_hits = b.AddColumn("hits", ColumnType::kU64);
  const std::size_t c_netinfo = b.AddColumn("netinfo_hits", ColumnType::kU64);
  const std::size_t c_cell_l = b.AddColumn("cellular_labels", ColumnType::kU64);
  const std::size_t c_wifi_l = b.AddColumn("wifi_labels", ColumnType::kU64);
  const std::size_t c_eth_l = b.AddColumn("ethernet_labels", ColumnType::kU64);
  const std::size_t c_other_l = b.AddColumn("other_labels", ColumnType::kU64);
  const std::size_t c_mobile = b.AddColumn("mobile_browser_hits", ColumnType::kU64);
  const std::size_t c_ratio = b.AddColumn("ratio", ColumnType::kF64);
  const std::size_t c_du = b.AddColumn("du", ColumnType::kF64);
  const std::size_t c_cellular = b.AddColumn("cellular", ColumnType::kU64);

  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JoinedRow& row = rows[i];
    const dataset::BeaconBlockStats& s = *stats[i];
    AppendJoined(b, row, join_cols);
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

Table BuildDemandTable(const ArtifactRefs& refs, const JoinContext& ctx,
                       exec::Executor& executor) {
  std::vector<netaddr::Prefix> blocks;
  std::vector<double> dus;
  refs.demand->ForEach([&](const netaddr::Prefix& block, double du) {
    blocks.push_back(block);
    dus.push_back(du);
  });
  const std::vector<JoinedRow> rows = JoinAll(ctx, blocks, executor);

  TableBuilder b;
  const std::size_t join_cols[5] = {
      b.AddColumn("block", ColumnType::kStr), b.AddColumn("family", ColumnType::kStr),
      b.AddColumn("asn", ColumnType::kU64), b.AddColumn("country", ColumnType::kStr),
      b.AddColumn("continent", ColumnType::kStr)};
  const std::size_t c_du = b.AddColumn("du", ColumnType::kF64);
  const std::size_t c_cellular = b.AddColumn("cellular", ColumnType::kU64);
  const std::size_t c_kept = b.AddColumn("kept", ColumnType::kU64);
  const std::size_t c_excluded = b.AddColumn("excluded", ColumnType::kU64);
  const std::size_t c_in_beacon = b.AddColumn("in_beacon", ColumnType::kU64);
  const std::size_t c_cell_du = b.AddColumn("cell_du", ColumnType::kF64);

  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JoinedRow& row = rows[i];
    AppendJoined(b, row, join_cols);
    b.AppendF64(c_du, dus[i]);
    b.AppendU64(c_cellular, row.cellular ? 1 : 0);
    b.AppendU64(c_kept, row.kept ? 1 : 0);
    b.AppendU64(c_excluded, row.excluded ? 1 : 0);
    b.AppendU64(c_in_beacon, row.in_beacon ? 1 : 0);
    // du when this block counts toward a kept AS's cellular demand,
    // else exactly +0.0 — summing it reproduces the conditional
    // accumulation in analysis::CountryDemandReport bit-for-bit.
    b.AppendF64(c_cell_du, row.kept && row.cellular ? dus[i] : 0.0);
  }
  return b.Finish();
}

Table BuildClassifiedTable(const ArtifactRefs& refs, const JoinContext& ctx,
                           exec::Executor& executor) {
  std::vector<netaddr::Prefix> blocks;
  std::vector<double> ratios;
  for (const auto& [block, ratio] : refs.classified->ratios()) {
    blocks.push_back(block);
    ratios.push_back(ratio);
  }
  const std::vector<JoinedRow> rows = JoinAll(ctx, blocks, executor);

  TableBuilder b;
  const std::size_t join_cols[5] = {
      b.AddColumn("block", ColumnType::kStr), b.AddColumn("family", ColumnType::kStr),
      b.AddColumn("asn", ColumnType::kU64), b.AddColumn("country", ColumnType::kStr),
      b.AddColumn("continent", ColumnType::kStr)};
  const std::size_t c_ratio = b.AddColumn("ratio", ColumnType::kF64);
  const std::size_t c_du = b.AddColumn("du", ColumnType::kF64);
  const std::size_t c_cellular = b.AddColumn("cellular", ColumnType::kU64);
  const std::size_t c_kept = b.AddColumn("kept", ColumnType::kU64);
  const std::size_t c_excluded = b.AddColumn("excluded", ColumnType::kU64);

  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JoinedRow& row = rows[i];
    AppendJoined(b, row, join_cols);
    b.AppendF64(c_ratio, ratios[i]);
    b.AppendF64(c_du, row.du);
    b.AppendU64(c_cellular, row.cellular ? 1 : 0);
    b.AppendU64(c_kept, row.kept ? 1 : 0);
    b.AppendU64(c_excluded, row.excluded ? 1 : 0);
  }
  return b.Finish();
}

}  // namespace

SnapshotBundle LoadBundleFromFiles(const fs::path& world_path,
                                   const fs::path& datasets_path,
                                   const fs::path& classified_path,
                                   const BundleOptions& options,
                                   exec::Executor& executor) {
  obs::TraceSpan span("query.decode");
  SnapshotBundle bundle;
  bundle.world = snapshot::DecodeWorld(snapshot::ReadSnapshotFile(world_path));
  auto datasets = snapshot::DecodeDatasets(snapshot::ReadSnapshotFile(datasets_path));
  bundle.beacons = std::move(datasets.first);
  bundle.demand = std::move(datasets.second);
  if (classified_path.empty()) {
    bundle.classified =
        core::SubnetClassifier(options.classifier).Classify(bundle.beacons, executor);
  } else {
    bundle.classified =
        snapshot::DecodeClassified(snapshot::ReadSnapshotFile(classified_path), &executor);
  }
  FinishBundle(bundle, options, executor);
  RecordDecode(span);
  return bundle;
}

SnapshotBundle LoadBundleFromDir(const fs::path& dir, const BundleOptions& options,
                                 exec::Executor& executor) {
  std::vector<std::string> names;
  try {
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      if (entry.is_regular_file()) names.push_back(entry.path().filename().string());
    }
  } catch (const fs::filesystem_error& e) {
    BadSource("cannot scan snapshot directory '" + dir.string() + "': " + e.what());
  }
  std::sort(names.begin(), names.end());

  const auto pick = [&](std::string_view prefix) -> std::string {
    std::string found;
    for (const std::string& name : names) {
      if (name.size() <= prefix.size() + 5) continue;
      if (name.compare(0, prefix.size(), prefix) != 0) continue;
      if (name.compare(name.size() - 5, 5, ".snap") != 0) continue;
      if (!found.empty()) {
        BadSource("ambiguous snapshot directory '" + dir.string() + "': both '" + found +
                  "' and '" + name + "' match " + std::string(prefix) + "*.snap");
      }
      found = name;
    }
    return found;
  };

  const std::string world = pick("world.");
  const std::string datasets = pick("datasets.");
  const std::string classified = pick("classified.");
  if (world.empty() || datasets.empty()) {
    BadSource("snapshot directory '" + dir.string() +
              "' needs one world.*.snap and one datasets.*.snap");
  }
  return LoadBundleFromFiles(dir / world, dir / datasets,
                             classified.empty() ? fs::path{} : dir / classified, options,
                             executor);
}

SnapshotBundle LoadBundleFromCheckpoint(const fs::path& world_path,
                                        const fs::path& checkpoint_dir,
                                        const BundleOptions& options,
                                        exec::Executor& executor) {
  obs::TraceSpan span("query.decode");
  SnapshotBundle bundle;
  bundle.world = snapshot::DecodeWorld(snapshot::ReadSnapshotFile(world_path));
  {
    stream::CheckpointStore store(
        checkpoint_dir,
        stream::StreamDaemon::ConfigHash(bundle.world.config(), options.classifier));
    stream::StreamDaemon daemon(bundle.world, options.classifier, {}, &store);
    if (!daemon.TryRestore()) {
      BadSource("no usable stream checkpoint in '" + checkpoint_dir.string() +
                "' for this world/classifier config");
    }
    bundle.beacons = daemon.ExportBeacons();
    bundle.demand = daemon.ExportDemand();
    bundle.classified = daemon.ExportClassified();
  }
  FinishBundle(bundle, options, executor);
  RecordDecode(span);
  return bundle;
}

ArtifactRefs MakeArtifactRefs(const SnapshotBundle& bundle) {
  ArtifactRefs refs;
  refs.rib = &bundle.world.rib();
  refs.as_db = &bundle.world.as_db();
  refs.beacons = &bundle.beacons;
  refs.demand = &bundle.demand;
  refs.classified = &bundle.classified;
  refs.filtered = &bundle.filtered;
  for (const simnet::CountryProfile& country : bundle.world.config().countries) {
    if (country.exclude_from_analysis) refs.excluded_isos.push_back(country.iso2);
  }
  return refs;
}

const Table& TableSet::Find(std::string_view name) const {
  if (name == "beacon") return beacon;
  if (name == "demand") return demand;
  if (name == "classified") return classified;
  throw QueryError("unknown table '" + std::string(name) +
                       "' (have: beacon, demand, classified)",
                   QueryErrorCode::kUnknownTable);
}

TableSet BuildTables(const ArtifactRefs& refs, exec::Executor& executor) {
  if (refs.beacons == nullptr || refs.demand == nullptr || refs.classified == nullptr) {
    BadSource("table join needs beacon, demand and classified artifacts");
  }
  obs::TraceSpan span("query.decode");
  const JoinContext ctx = MakeJoinContext(refs);
  TableSet tables;
  tables.beacon = BuildBeaconTable(refs, ctx, executor);
  tables.demand = BuildDemandTable(refs, ctx, executor);
  tables.classified = BuildClassifiedTable(refs, ctx, executor);
  span.set_items(tables.beacon.row_count() + tables.demand.row_count() +
                 tables.classified.row_count());
  RecordDecode(span);
  return tables;
}

TableSet BuildTables(const SnapshotBundle& bundle, exec::Executor& executor) {
  return BuildTables(MakeArtifactRefs(bundle), executor);
}

}  // namespace cellspot::query
