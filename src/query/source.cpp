#include "cellspot/query/source.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "cellspot/core/sharded_aggregation.hpp"
#include "cellspot/exec/executor.hpp"
#include "cellspot/obs/metrics.hpp"
#include "cellspot/obs/trace.hpp"
#include "cellspot/snapshot/serde.hpp"
#include "cellspot/snapshot/snapshot.hpp"
#include "cellspot/snapshot/stage_cache.hpp"
#include "cellspot/stream/checkpoint.hpp"
#include "cellspot/stream/daemon.hpp"
#include "cellspot/util/stable_map.hpp"

namespace fs = std::filesystem;

namespace cellspot::query {
namespace {

constexpr std::size_t kGrain = 2048;

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

/// Map and decode one snapshot file under the stage cache's span name,
/// 'snapshot.load.<artifact>', with the file's bytes as items and added
/// to 'snapshot.bytes_read'.
template <typename Decode>
auto LoadArtifact(std::string_view artifact, const fs::path& path, Decode decode) {
  obs::TraceSpan span("snapshot.load." + std::string(artifact));
  const snapshot::SnapshotImage image = snapshot::ReadSnapshotFile(path);
  auto out = decode(image);
  span.set_items(image.size_bytes());
  obs::MetricsRegistry::Global().counter("snapshot.bytes_read").Increment(image.size_bytes());
  return out;
}

/// What the join knows about one AS, built once per AsRecord: codes
/// into the country and continent dictionaries and the §7.1 flag.
struct AsCodes {
  std::uint32_t country = 0;  // 0 = "" (unrouted, recordless or no ISO)
  std::uint32_t continent = 0;
  bool excluded = false;
};

/// A string dictionary under construction: `values` in insertion order,
/// code 0 = "".
struct Dictionary {
  std::vector<std::string> values{""};
  util::StableMap<std::string, std::uint32_t> codes{{"", 0}};

  std::uint32_t Code(const std::string& value) {
    if (codes.Emplace(value, static_cast<std::uint32_t>(values.size()))) values.push_back(value);
    return *codes.Find(value);
  }
};

struct JoinContext {
  const ArtifactRefs* refs = nullptr;
  util::StableSet<asdb::AsNumber> kept_asns;
  std::vector<AsCodes> as_codes;  // parallel to refs->as_db->records()
  Dictionary countries;
  Dictionary continents;
};

JoinContext MakeJoinContext(const ArtifactRefs& refs) {
  JoinContext ctx;
  ctx.refs = &refs;
  if (refs.filtered != nullptr) {
    for (const core::AsAggregate& as : refs.filtered->kept) ctx.kept_asns.Insert(as.asn);
  }
  util::StableSet<std::string> excluded;
  for (const std::string& iso : refs.excluded_isos) excluded.Insert(iso);
  if (refs.as_db != nullptr) {
    for (const asdb::AsRecord& rec : refs.as_db->records()) {
      ctx.as_codes.push_back({ctx.countries.Code(rec.country_iso),
                              ctx.continents.Code(std::string(geo::ContinentCode(rec.continent))),
                              excluded.Contains(rec.country_iso)});
    }
  }
  return ctx;
}

/// One row's origin AS as the join sees it.
struct Origin {
  asdb::AsNumber asn = 0;  // 0 = unrouted
  AsCodes codes{};         // all zero without an AsRecord
  bool kept = false;
};

/// Size each vector to `n` zeroed rows, one vector per task: first
/// touching a fresh column's pages costs more than writing its values,
/// and spread over the workers the page faults overlap.
template <typename... Vectors>
void SizeColumns(std::size_t n, exec::Executor& executor, Vectors&... vectors) {
  const std::function<void()> resize[] = {[&vectors, n] { vectors.resize(n); }...};
  executor.ParallelFor(sizeof...(vectors), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) resize[i]();
  });
}

Column U64Column(std::string name, std::vector<std::uint64_t> values) {
  return {.name = std::move(name), .type = ColumnType::kU64, .u64 = std::move(values)};
}

Column F64Column(std::string name, std::vector<double> values) {
  return {.name = std::move(name), .type = ColumnType::kF64, .f64 = std::move(values)};
}

/// Joins an artifact's (block, value) rows in parallel: the origins
/// come from core::ResolveOrigins, then each chunk writes row i's
/// leading columns (block, family, asn, country, continent) and calls
/// `rest(i, row, origin)` for the table's own columns, every value at
/// its row index, so the table is identical at any thread count.
/// Returns the leading columns.
template <typename Row, typename Rest>
std::vector<Column> Join(const JoinContext& ctx, std::span<const Row> rows,
                         exec::Executor& executor, Rest rest) {
  const std::size_t n = rows.size();
  std::vector<netaddr::Prefix> blocks;
  std::vector<std::uint32_t> family, country, continent;
  std::vector<std::uint64_t> asn;
  SizeColumns(n, executor, blocks, family, country, continent, asn);
  const asdb::AsDatabase* as_db = ctx.refs->as_db;
  const std::vector<asdb::AsNumber> origins =
      ctx.refs->rib != nullptr
          ? core::ResolveOrigins(
                *ctx.refs->rib, n, [&](std::size_t i) { return rows[i].first.address(); },
                executor)
          : std::vector<asdb::AsNumber>(n, 0);
  executor.ParallelFor(n, kGrain, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      Origin origin{.asn = origins[i]};
      if (origin.asn != 0) {
        origin.kept = ctx.kept_asns.Contains(origin.asn);
        const asdb::AsRecord* rec = as_db != nullptr ? as_db->Find(origin.asn) : nullptr;
        if (rec != nullptr) origin.codes = ctx.as_codes[rec - as_db->records().data()];
      }
      blocks[i] = rows[i].first;
      family[i] = blocks[i].family() == netaddr::Family::kIpv4 ? 0 : 1;
      asn[i] = origin.asn;
      country[i] = origin.codes.country;
      continent[i] = origin.codes.continent;
      rest(i, rows[i], origin);
    }
  });
  std::vector<Column> columns;
  columns.push_back({.name = "block", .type = ColumnType::kPrefix, .prefix = std::move(blocks)});
  columns.push_back({.name = "family", .type = ColumnType::kStr, .codes = std::move(family),
                     .dict = {"v4", "v6"}});
  columns.push_back(U64Column("asn", std::move(asn)));
  columns.push_back({.name = "country", .type = ColumnType::kStr, .codes = std::move(country),
                     .dict = ctx.countries.values});
  columns.push_back({.name = "continent", .type = ColumnType::kStr,
                     .codes = std::move(continent), .dict = ctx.continents.values});
  return columns;
}

Table BuildBeaconTable(const JoinContext& ctx, exec::Executor& executor) {
  const ArtifactRefs& refs = *ctx.refs;
  const auto rows = refs.beacons->rows();
  std::vector<std::uint64_t> hits, netinfo, cell_l, wifi_l, eth_l, other_l, mobile, cellular;
  std::vector<double> ratio, du;
  SizeColumns(rows.size(), executor, hits, netinfo, cell_l, wifi_l, eth_l, other_l, mobile,
              cellular, ratio, du);
  std::vector<Column> columns = Join(
      ctx, rows, executor,
      [&](std::size_t i, const dataset::BeaconDataset::Row& row, const Origin&) {
        const auto& [block, s] = row;
        hits[i] = s.hits;
        netinfo[i] = s.netinfo_hits;
        cell_l[i] = s.cellular_labels;
        wifi_l[i] = s.wifi_labels;
        eth_l[i] = s.ethernet_labels;
        other_l[i] = s.other_labels;
        mobile[i] = s.mobile_browser_hits;
        ratio[i] = s.CellularRatio();
        du[i] = refs.demand->DemandOf(block);
        cellular[i] = refs.classified->IsCellular(block) ? 1 : 0;
      });
  columns.push_back(U64Column("hits", std::move(hits)));
  columns.push_back(U64Column("netinfo_hits", std::move(netinfo)));
  columns.push_back(U64Column("cellular_labels", std::move(cell_l)));
  columns.push_back(U64Column("wifi_labels", std::move(wifi_l)));
  columns.push_back(U64Column("ethernet_labels", std::move(eth_l)));
  columns.push_back(U64Column("other_labels", std::move(other_l)));
  columns.push_back(U64Column("mobile_browser_hits", std::move(mobile)));
  columns.push_back(F64Column("ratio", std::move(ratio)));
  columns.push_back(F64Column("du", std::move(du)));
  columns.push_back(U64Column("cellular", std::move(cellular)));
  return Table(std::move(columns));
}

Table BuildDemandTable(const JoinContext& ctx, exec::Executor& executor) {
  const ArtifactRefs& refs = *ctx.refs;
  const auto rows = refs.demand->rows();
  std::vector<std::uint64_t> cellular, kept, excluded, in_beacon;
  std::vector<double> du, cell_du;
  SizeColumns(rows.size(), executor, du, cellular, kept, excluded, in_beacon, cell_du);
  std::vector<Column> columns = Join(
      ctx, rows, executor,
      [&](std::size_t i, const dataset::DemandDataset::Row& row, const Origin& origin) {
        const auto& [block, block_du] = row;
        du[i] = block_du;
        const bool is_cellular = refs.classified->IsCellular(block);
        cellular[i] = is_cellular ? 1 : 0;
        kept[i] = origin.kept ? 1 : 0;
        excluded[i] = origin.codes.excluded ? 1 : 0;
        in_beacon[i] = refs.beacons->Find(block) != nullptr ? 1 : 0;
        // du when this block counts toward a kept AS's cellular demand,
        // else exactly +0.0 — summing it reproduces the conditional
        // accumulation in analysis::CountryDemandReport bit-for-bit.
        cell_du[i] = origin.kept && is_cellular ? block_du : 0.0;
      });
  columns.push_back(F64Column("du", std::move(du)));
  columns.push_back(U64Column("cellular", std::move(cellular)));
  columns.push_back(U64Column("kept", std::move(kept)));
  columns.push_back(U64Column("excluded", std::move(excluded)));
  columns.push_back(U64Column("in_beacon", std::move(in_beacon)));
  columns.push_back(F64Column("cell_du", std::move(cell_du)));
  return Table(std::move(columns));
}

Table BuildClassifiedTable(const JoinContext& ctx, exec::Executor& executor) {
  const ArtifactRefs& refs = *ctx.refs;
  const auto rows = refs.classified->ratios();
  std::vector<std::uint64_t> cellular, kept, excluded;
  std::vector<double> ratio, du;
  SizeColumns(rows.size(), executor, ratio, du, cellular, kept, excluded);
  std::vector<Column> columns = Join(
      ctx, rows, executor,
      [&](std::size_t i, const std::pair<netaddr::Prefix, double>& row, const Origin& origin) {
        const auto& [block, block_ratio] = row;
        ratio[i] = block_ratio;
        du[i] = refs.demand->DemandOf(block);
        cellular[i] = refs.classified->IsCellular(block) ? 1 : 0;
        kept[i] = origin.kept ? 1 : 0;
        excluded[i] = origin.codes.excluded ? 1 : 0;
      });
  columns.push_back(F64Column("ratio", std::move(ratio)));
  columns.push_back(F64Column("du", std::move(du)));
  columns.push_back(U64Column("cellular", std::move(cellular)));
  columns.push_back(U64Column("kept", std::move(kept)));
  columns.push_back(U64Column("excluded", std::move(excluded)));
  return Table(std::move(columns));
}

/// LoadBundleFromFiles, plus, for a non-empty `cache_dir`, the stage
/// cache's entries for the decoded world: its compiled engine, adopted
/// by the RIB, and the classified entry for `options.classifier`, which
/// stands in for `classified_path`.
SnapshotBundle LoadFiles(const fs::path& world_path, const fs::path& datasets_path,
                         fs::path classified_path, const fs::path& cache_dir,
                         const BundleOptions& options, exec::Executor& executor) {
  obs::TraceSpan span("query.load_bundle");
  SnapshotBundle bundle;
  bundle.world = LoadArtifact("world", world_path, snapshot::DecodeWorld);
  if (!cache_dir.empty()) {
    // A missing, foreign or damaged lpm entry is the cache's usual miss
    // (counted; a damaged file is quarantined), and the RIB compiles on
    // first use instead.
    snapshot::StageCache cache(cache_dir);
    if (auto flat = cache.TryLoadLpm(bundle.world.config())) {
      (void)bundle.world.rib().AdoptFlat(std::move(*flat));
    }
    // The classified entry is only probed, not TryLoad'ed: an absent one
    // is classified below, a damaged one stays a SnapshotError.
    classified_path = cache.ClassifiedPath(bundle.world.config(), options.classifier);
    std::error_code ec;
    if (!fs::exists(classified_path, ec)) classified_path.clear();
  }
  auto datasets = LoadArtifact("datasets", datasets_path, snapshot::DecodeDatasets);
  bundle.beacons = std::move(datasets.first);
  bundle.demand = std::move(datasets.second);
  if (classified_path.empty()) {
    bundle.classified =
        core::SubnetClassifier(options.classifier).Classify(bundle.beacons, executor);
  } else {
    bundle.classified = LoadArtifact("classified", classified_path,
                                     [&](const snapshot::SnapshotImage& image) {
                                       return snapshot::DecodeClassified(image, &executor);
                                     });
  }
  FinishBundle(bundle, options, executor);
  return bundle;
}

}  // namespace

SnapshotBundle LoadBundleFromFiles(const fs::path& world_path,
                                   const fs::path& datasets_path,
                                   const fs::path& classified_path,
                                   const BundleOptions& options,
                                   exec::Executor& executor) {
  return LoadFiles(world_path, datasets_path, classified_path, {}, options, executor);
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
  if (world.empty() || datasets.empty()) {
    BadSource("snapshot directory '" + dir.string() +
              "' needs one world.*.snap and one datasets.*.snap");
  }
  // The world and datasets are found by pattern rather than by the
  // stage cache's keys: a directory holds whatever config wrote it, and
  // the query learns that config only from the world it decodes. The
  // lpm and classified entries are then looked up under its keys.
  return LoadFiles(dir / world, dir / datasets, {}, dir, options, executor);
}

SnapshotBundle LoadBundleFromCheckpoint(const fs::path& world_path,
                                        const fs::path& checkpoint_dir,
                                        const BundleOptions& options,
                                        exec::Executor& executor) {
  obs::TraceSpan span("query.load_bundle");
  SnapshotBundle bundle;
  bundle.world = LoadArtifact("world", world_path, snapshot::DecodeWorld);
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
  obs::TraceSpan span("query.build_tables");
  const JoinContext ctx = MakeJoinContext(refs);
  TableSet tables;
  tables.beacon = BuildBeaconTable(ctx, executor);
  tables.demand = BuildDemandTable(ctx, executor);
  tables.classified = BuildClassifiedTable(ctx, executor);
  span.set_items(tables.beacon.row_count() + tables.demand.row_count() +
                 tables.classified.row_count());
  return tables;
}

TableSet BuildTables(const SnapshotBundle& bundle, exec::Executor& executor) {
  return BuildTables(MakeArtifactRefs(bundle), executor);
}

}  // namespace cellspot::query
