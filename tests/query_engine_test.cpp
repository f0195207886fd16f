// End-to-end query engine goldens: every preset, evaluated from a COLD
// snapshot load (never the live pipeline), must reproduce the
// analysis::reports numbers byte-for-byte at 1/2/8 threads; corrupt or
// truncated snapshot input must fail with a categorized SnapshotError /
// QueryError, never a crash; a stream checkpoint is a first-class query
// source whose exports equal the batch artifacts; and a stage-cache
// directory serves its compiled LPM engine (a damaged one is a cache
// miss) and the classified entry its classifier options key, with one
// span per step of the open.
#include "cellspot/query/presets.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cellspot/analysis/experiment.hpp"
#include "cellspot/analysis/export.hpp"
#include "cellspot/analysis/pipeline.hpp"
#include "cellspot/analysis/reports.hpp"
#include "cellspot/cdn/event_stream.hpp"
#include "cellspot/core/classifier.hpp"
#include "cellspot/exec/executor.hpp"
#include "cellspot/faultsim/stream_corruptor.hpp"
#include "cellspot/obs/metrics.hpp"
#include "cellspot/query/engine.hpp"
#include "cellspot/snapshot/serde.hpp"
#include "cellspot/snapshot/snapshot.hpp"
#include "cellspot/snapshot/stage_cache.hpp"
#include "cellspot/stream/checkpoint.hpp"
#include "cellspot/stream/daemon.hpp"
#include "cellspot/util/sink.hpp"

namespace cellspot::query {
namespace {

namespace fs = std::filesystem;

const analysis::Experiment& TinyExp() {
  static const analysis::Experiment exp =
      analysis::RunExperiment(simnet::WorldConfig::Tiny());
  return exp;
}

fs::path FreshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// world.snap / datasets.snap / classified.snap for the tiny experiment.
struct SnapshotFiles {
  fs::path world;
  fs::path datasets;
  fs::path classified;
};

SnapshotFiles WriteTinySnapshots(const fs::path& dir) {
  const analysis::Experiment& exp = TinyExp();
  SnapshotFiles files{dir / "world.tiny.snap", dir / "datasets.tiny.snap",
                      dir / "classified.tiny.snap"};
  snapshot::WriteSnapshotFile(files.world, snapshot::EncodeWorld(exp.world));
  snapshot::WriteSnapshotFile(files.datasets,
                              snapshot::EncodeDatasets(exp.beacons, exp.demand));
  snapshot::WriteSnapshotFile(files.classified,
                              snapshot::EncodeClassified(exp.classified));
  return files;
}

std::string RenderCsv(const Table& t) {
  std::stringstream out;
  const auto sink = util::MakeTableSink(util::TableFormat::kCsv, out);
  RenderTable(t, *sink);
  return out.str();
}

std::string ReadBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteBytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(QueryPresets, ByteIdenticalToReportsAtOneTwoEightThreads) {
  const fs::path dir = FreshDir("query_presets_golden");
  const SnapshotFiles files = WriteTinySnapshots(dir);
  const analysis::Experiment& exp = TinyExp();

  // The reference bytes, produced by the analysis report/export path.
  std::stringstream fig2_ref;
  analysis::WriteFig2Csv(exp, fig2_ref);
  std::stringstream country_ref;
  analysis::WriteCountryCsv(exp, country_ref);
  const analysis::DatasetSummary summary = analysis::SummarizeDatasets(exp);

  for (const unsigned threads : {1u, 2u, 8u}) {
    exec::Executor executor(threads);
    // Cold load: decode the snapshots, never touch the pipeline.
    const SnapshotBundle bundle = LoadBundleFromFiles(
        files.world, files.datasets, files.classified, BundleOptions{}, executor);
    const TableSet tables = BuildTables(bundle, executor);

    const Table table2 = RunPreset(Preset::kTable2, tables, executor);
    ASSERT_EQ(table2.row_count(), 6u) << threads;
    const Column* value = table2.FindColumn("value");
    EXPECT_EQ(value->f64[0], static_cast<double>(summary.beacon_v4_blocks));
    EXPECT_EQ(value->f64[1], static_cast<double>(summary.beacon_v6_blocks));
    EXPECT_EQ(value->f64[2], static_cast<double>(summary.demand_v4_blocks));
    EXPECT_EQ(value->f64[3], static_cast<double>(summary.demand_v6_blocks));
    EXPECT_EQ(value->f64[4], summary.beacon_coverage_of_demand_v4) << threads;
    EXPECT_EQ(value->f64[5], summary.beacon_coverage_of_demand_weight) << threads;

    EXPECT_EQ(RenderCsv(RunPreset(Preset::kFig2Cdf, tables, executor)), fig2_ref.str())
        << "fig2_cdf diverged at " << threads << " threads";
    EXPECT_EQ(RenderCsv(RunPreset(Preset::kCountryShare, tables, executor)),
              country_ref.str())
        << "country_share diverged at " << threads << " threads";
  }
}

TEST(QueryPresets, RecomputedClassificationEqualsSnapshot) {
  const fs::path dir = FreshDir("query_presets_reclassify");
  const SnapshotFiles files = WriteTinySnapshots(dir);
  exec::Executor executor(2);
  const SnapshotBundle with = LoadBundleFromFiles(files.world, files.datasets,
                                                  files.classified, BundleOptions{},
                                                  executor);
  // Empty classified path: classification recomputed from the beacons.
  const SnapshotBundle without =
      LoadBundleFromFiles(files.world, files.datasets, "", BundleOptions{}, executor);
  EXPECT_EQ(snapshot::EncodeSnapshot(snapshot::EncodeClassified(with.classified)),
            snapshot::EncodeSnapshot(snapshot::EncodeClassified(without.classified)));
  const TableSet a = BuildTables(with, executor);
  const TableSet b = BuildTables(without, executor);
  EXPECT_EQ(RenderCsv(RunPreset(Preset::kCountryShare, a, executor)),
            RenderCsv(RunPreset(Preset::kCountryShare, b, executor)));
}

TEST(QuerySource, DirectoryResolutionAndAmbiguity) {
  const fs::path dir = FreshDir("query_source_dir");
  const SnapshotFiles files = WriteTinySnapshots(dir);
  exec::Executor executor(2);
  const SnapshotBundle bundle = LoadBundleFromDir(dir, BundleOptions{}, executor);
  EXPECT_EQ(snapshot::EncodeSnapshot(snapshot::EncodeClassified(bundle.classified)),
            snapshot::EncodeSnapshot(snapshot::EncodeClassified(TinyExp().classified)));

  // A second world snapshot makes the directory ambiguous.
  fs::copy_file(files.world, dir / "world.other.snap");
  try {
    (void)LoadBundleFromDir(dir, BundleOptions{}, executor);
    FAIL() << "expected QueryError";
  } catch (const QueryError& e) {
    EXPECT_EQ(e.code(), QueryErrorCode::kBadSource);
  }

  // An empty directory has no snapshots at all.
  try {
    (void)LoadBundleFromDir(FreshDir("query_source_empty"), BundleOptions{}, executor);
    FAIL() << "expected QueryError";
  } catch (const QueryError& e) {
    EXPECT_EQ(e.code(), QueryErrorCode::kBadSource);
  }
}

TEST(QuerySource, CorruptSnapshotsFailCategorizedNeverCrash) {
  const fs::path dir = FreshDir("query_source_corrupt");
  const SnapshotFiles files = WriteTinySnapshots(dir);
  exec::Executor executor(2);
  const std::string good = ReadBytes(files.datasets);
  const fs::path bad = dir / "bad.snap";

  const auto load = [&] {
    (void)LoadBundleFromFiles(files.world, bad, "", BundleOptions{}, executor);
  };
  const auto reason_of = [&]() -> snapshot::SnapshotErrorReason {
    try {
      load();
    } catch (const snapshot::SnapshotError& e) {
      return e.reason();
    }
    ADD_FAILURE() << "expected SnapshotError";
    return snapshot::SnapshotErrorReason::kIo;
  };

  WriteBytes(bad, good.substr(0, good.size() / 2));
  EXPECT_EQ(reason_of(), snapshot::SnapshotErrorReason::kTruncated);

  std::string flipped = good;
  flipped[flipped.size() / 2] = static_cast<char>(flipped[flipped.size() / 2] ^ 0x5A);
  WriteBytes(bad, flipped);
  EXPECT_EQ(reason_of(), snapshot::SnapshotErrorReason::kChecksum);

  WriteBytes(bad, "XSPT" + good.substr(4));
  EXPECT_EQ(reason_of(), snapshot::SnapshotErrorReason::kBadMagic);

  fs::remove(bad);
  EXPECT_EQ(reason_of(), snapshot::SnapshotErrorReason::kIo);

  // StreamCorruptor damage (the chaos harness' garbler): any categorized
  // SnapshotError is acceptable, a crash or silent success is not.
  faultsim::FaultMix mix;
  mix.garble_bytes = 1.0;
  faultsim::StreamCorruptor corruptor(mix, /*seed=*/7);
  std::istringstream in(good);
  std::ostringstream garbled;
  (void)corruptor.Corrupt(in, garbled);
  WriteBytes(bad, garbled.str());
  EXPECT_THROW(load(), snapshot::SnapshotError);
}

TEST(QuerySource, StreamCheckpointIsAQuerySource) {
  const fs::path dir = FreshDir("query_source_ckpt");
  const SnapshotFiles files = WriteTinySnapshots(dir);
  const fs::path ckpt_dir = dir / "ckpt";
  exec::Executor executor(2);

  // Ingest a short stream and checkpoint the daemon's state. The store
  // is keyed by the same config hash LoadBundleFromCheckpoint derives
  // from the world snapshot.
  stream::CheckpointStore store(
      ckpt_dir,
      stream::StreamDaemon::ConfigHash(TinyExp().world.config(), {}));
  stream::DaemonConfig daemon_config;
  daemon_config.backpressure = stream::BackpressurePolicy::kBlock;
  stream::StreamDaemon daemon(TinyExp().world, {}, daemon_config, &store);
  std::thread producer([&] {
    const cdn::EventStreamGenerator generator(TinyExp().world,
                                              cdn::EventStreamConfig{.rounds = 2});
    for (std::string& frame : generator.GenerateFrames()) {
      (void)daemon.queue().Push(std::move(frame));
    }
    daemon.queue().Close();
  });
  daemon.RunUntilClosed();
  producer.join();
  ASSERT_TRUE(daemon.Checkpoint());

  const SnapshotBundle bundle =
      LoadBundleFromCheckpoint(files.world, ckpt_dir, BundleOptions{}, executor);
  EXPECT_EQ(snapshot::EncodeSnapshot(
                snapshot::EncodeDatasets(bundle.beacons, bundle.demand)),
            snapshot::EncodeSnapshot(snapshot::EncodeDatasets(daemon.ExportBeacons(),
                                                              daemon.ExportDemand())));
  EXPECT_EQ(snapshot::EncodeSnapshot(snapshot::EncodeClassified(bundle.classified)),
            snapshot::EncodeSnapshot(snapshot::EncodeClassified(daemon.ExportClassified())));

  // The joined tables answer plans directly from the restored state.
  const TableSet tables = BuildTables(bundle, executor);
  Plan plan;
  plan.aggregates.push_back({AggKind::kCount, "", 0.5, "n"});
  const Table out = Engine(tables.demand, executor).Run(plan);
  EXPECT_EQ(out.FindColumn("n")->u64[0], bundle.demand.block_count());

  // No usable checkpoint: wrong directory is a categorized bad-source.
  try {
    (void)LoadBundleFromCheckpoint(files.world, dir / "no_ckpt", BundleOptions{},
                                   executor);
    FAIL() << "expected QueryError";
  } catch (const QueryError& e) {
    EXPECT_EQ(e.code(), QueryErrorCode::kBadSource);
  }
}

// ---- a stage-cache directory as the source ----------------------------------

std::uint64_t CounterValue(std::string_view name) {
  for (const auto& c : obs::MetricsRegistry::Global().Snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

/// Occurrences and summed items of every span whose leaf is `leaf`,
/// wherever it nests.
std::pair<std::uint64_t, std::uint64_t> LeafSpan(std::string_view leaf) {
  std::uint64_t count = 0;
  std::uint64_t items = 0;
  for (const auto& s : obs::MetricsRegistry::Global().Snapshot().spans) {
    const std::string_view path = s.path;
    const std::size_t slash = path.rfind('/');
    if (path.substr(slash == std::string_view::npos ? 0 : slash + 1) != leaf) continue;
    count += s.count;
    items += s.items;
  }
  return {count, items};
}

/// A directory written by the pipeline's stage cache: world, datasets,
/// classified and the compiled lpm entry for the Tiny world.
fs::path WritePipelineDir(const std::string& name) {
  const fs::path dir = FreshDir(name);
  analysis::Pipeline pipeline(
      {.world = simnet::WorldConfig::Tiny(), .snapshot_dir = dir.string()});
  (void)pipeline.Run();
  return dir;
}

/// Every preset and every joined table, rendered to CSV.
std::string RenderAll(const SnapshotBundle& bundle, exec::Executor& executor) {
  const TableSet tables = BuildTables(bundle, executor);
  std::string out;
  for (const Preset preset : {Preset::kTable2, Preset::kFig2Cdf, Preset::kCountryShare}) {
    out += RenderCsv(RunPreset(preset, tables, executor));
  }
  for (const char* name : {"beacon", "demand", "classified"}) out += RenderCsv(tables.Find(name));
  return out;
}

TEST(QuerySource, OneOpenRecordsOneSpanPerStep) {
  const fs::path dir = WritePipelineDir("query_source_spans");
  const snapshot::StageCache cache(dir);
  const simnet::WorldConfig config = simnet::WorldConfig::Tiny();
  exec::Executor executor(2);

  obs::MetricsRegistry::Global().ResetForTest();
  const SnapshotBundle bundle = LoadBundleFromDir(dir, BundleOptions{}, executor);
  const TableSet tables = BuildTables(bundle, executor);

  for (const char* step : {"query.load_bundle", "query.build_tables"}) {
    EXPECT_EQ(LeafSpan(step).first, 1u) << step;
  }
  EXPECT_EQ(LeafSpan("query.build_tables").second,
            tables.beacon.row_count() + tables.demand.row_count() +
                tables.classified.row_count());
  EXPECT_EQ(LeafSpan("query.decode").first, 0u);
  std::uint64_t file_bytes = 0;
  for (const auto& [artifact, path] :
       {std::pair{"world", cache.WorldPath(config)},
        std::pair{"datasets", cache.DatasetsPath(config)},
        std::pair{"classified", cache.ClassifiedPath(config, {})},
        std::pair{"lpm", cache.LpmPath(config)}}) {
    const auto [count, items] = LeafSpan("snapshot.load." + std::string(artifact));
    EXPECT_EQ(count, 1u) << artifact;
    EXPECT_EQ(items, fs::file_size(path)) << artifact;
    file_bytes += fs::file_size(path);
  }
  EXPECT_EQ(CounterValue("snapshot.bytes_read"), file_bytes);
}

TEST(QuerySource, DirectoryAdoptsTheCachedLpmEngine) {
  const fs::path dir = WritePipelineDir("query_source_adopt");
  const fs::path lpm = snapshot::StageCache(dir).LpmPath(simnet::WorldConfig::Tiny());
  ASSERT_TRUE(fs::exists(lpm));
  exec::Executor executor(2);

  obs::MetricsRegistry::Global().ResetForTest();
  const std::string adopted = RenderAll(LoadBundleFromDir(dir, BundleOptions{}, executor),
                                        executor);
  EXPECT_EQ(CounterValue("lpm.adopt"), 1u);
  EXPECT_EQ(CounterValue("lpm.build"), 0u);
  EXPECT_EQ(CounterValue("snapshot.miss"), 0u);

  // The same directory without the lpm entry compiles the RIB instead.
  const fs::path bare = FreshDir("query_source_adopt_bare");
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path() != lpm) fs::copy_file(entry.path(), bare / entry.path().filename());
  }
  obs::MetricsRegistry::Global().ResetForTest();
  EXPECT_EQ(RenderAll(LoadBundleFromDir(bare, BundleOptions{}, executor), executor), adopted);
  EXPECT_EQ(CounterValue("lpm.adopt"), 0u);
  EXPECT_EQ(CounterValue("lpm.build"), 1u);
  EXPECT_EQ(CounterValue("snapshot.miss.absent"), 1u);
}

TEST(QuerySource, DamagedLpmEntryFallsBackToCompiling) {
  const fs::path dir = WritePipelineDir("query_source_damaged_lpm");
  const fs::path lpm = snapshot::StageCache(dir).LpmPath(simnet::WorldConfig::Tiny());
  exec::Executor executor(2);
  const std::string reference =
      RenderAll(LoadBundleFromDir(dir, BundleOptions{}, executor), executor);

  std::string bytes = ReadBytes(lpm);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x5A);
  WriteBytes(lpm, bytes);
  obs::MetricsRegistry::Global().ResetForTest();
  std::string damaged;
  EXPECT_NO_THROW(damaged = RenderAll(LoadBundleFromDir(dir, BundleOptions{}, executor),
                                      executor));
  EXPECT_EQ(damaged, reference);
  EXPECT_EQ(CounterValue("snapshot.miss.checksum"), 1u);
  EXPECT_EQ(CounterValue("lpm.adopt"), 0u);
  EXPECT_EQ(CounterValue("lpm.build"), 1u);
  // Quarantined in place, as the stage cache does.
  EXPECT_FALSE(fs::exists(lpm));
  EXPECT_TRUE(fs::exists(lpm.string() + ".corrupt"));
}

std::string EncodedClassified(const core::ClassifiedSubnets& classified) {
  return snapshot::EncodeSnapshot(snapshot::EncodeClassified(classified));
}

TEST(QuerySource, DirectoryClassificationFollowsTheClassifierOptions) {
  // The pipeline fills the directory at the default classifier. An open
  // at another threshold must not serve those verdicts: it classifies
  // the beacons itself, until an entry under its own key exists.
  const fs::path dir = WritePipelineDir("query_source_classifier_key");
  const simnet::WorldConfig config = simnet::WorldConfig::Tiny();
  const BundleOptions strict{.classifier = {.threshold = 0.9}};
  exec::Executor executor(2);
  const std::string at_default = EncodedClassified(TinyExp().classified);
  const std::string at_strict = EncodedClassified(
      core::SubnetClassifier(strict.classifier).Classify(TinyExp().beacons, executor));
  ASSERT_NE(at_strict, at_default);

  obs::MetricsRegistry::Global().ResetForTest();
  EXPECT_EQ(EncodedClassified(LoadBundleFromDir(dir, strict, executor).classified), at_strict);
  EXPECT_EQ(LeafSpan("snapshot.load.classified").first, 0u);
  EXPECT_EQ(EncodedClassified(LoadBundleFromDir(dir, BundleOptions{}, executor).classified),
            at_default);
  EXPECT_EQ(LeafSpan("snapshot.load.classified").first, 1u);

  // A second classified entry, under the strict key, is loaded for the
  // strict open and does not make the directory ambiguous.
  analysis::Pipeline pipeline({.world = config, .classifier = strict.classifier,
                               .snapshot_dir = dir.string()});
  (void)pipeline.Run();
  const fs::path strict_entry = snapshot::StageCache(dir).ClassifiedPath(config, strict.classifier);
  ASSERT_TRUE(fs::exists(strict_entry));
  obs::MetricsRegistry::Global().ResetForTest();
  EXPECT_EQ(EncodedClassified(LoadBundleFromDir(dir, strict, executor).classified), at_strict);
  EXPECT_EQ(LeafSpan("snapshot.load.classified").first, 1u);

  // A damaged entry under the open's key is a SnapshotError, and the
  // file stays where it is.
  std::string bytes = ReadBytes(strict_entry);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x5A);
  WriteBytes(strict_entry, bytes);
  try {
    (void)LoadBundleFromDir(dir, strict, executor);
    FAIL() << "expected SnapshotError";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_EQ(e.reason(), snapshot::SnapshotErrorReason::kChecksum);
  }
  EXPECT_TRUE(fs::exists(strict_entry));
  EXPECT_FALSE(fs::exists(strict_entry.string() + ".corrupt"));
}

// ---- files keyed without the RNG stream version ----------------------------

/// The world key before util::kRngStreamVersion joined it: FNV-1a-64
/// over the world config, seeded by the snapshot format version.
std::uint64_t KeyWithoutRngStream(const simnet::WorldConfig& config) {
  return snapshot::Fnv1a64(snapshot::EncodeWorldConfig(config),
                           0xcbf29ce484222325ULL ^ snapshot::kSnapshotFormatVersion);
}

std::string Hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

TEST(QuerySource, DirectoryKeyedWithoutTheRngStreamOpensAndCompilesItsRib) {
  // Every entry renamed to the names the key without the RNG stream
  // gives Tiny(). The directory is still found by pattern, but its lpm
  // and classified entries are not under the decoded world's keys, so
  // the RIB compiles and the beacons are classified again.
  const fs::path dir = WritePipelineDir("query_source_old_keys");
  exec::Executor executor(2);
  const std::string reference =
      RenderAll(LoadBundleFromDir(dir, BundleOptions{}, executor), executor);
  const simnet::WorldConfig config = simnet::WorldConfig::Tiny();
  const std::string world_key = Hex16(KeyWithoutRngStream(config));
  const snapshot::StageCache cache(dir);
  for (const auto& [path, name] :
       {std::pair{cache.WorldPath(config), "world." + world_key},
        std::pair{cache.DatasetsPath(config), "datasets." + world_key},
        std::pair{cache.LpmPath(config), "lpm." + world_key},
        std::pair{cache.ClassifiedPath(config, {}),
                  "classified." + Hex16(snapshot::Fnv1a64(snapshot::EncodeClassifierConfig({}),
                                                          KeyWithoutRngStream(config)))}}) {
    fs::rename(path, dir / (name + ".snap"));
  }

  obs::MetricsRegistry::Global().ResetForTest();
  EXPECT_EQ(RenderAll(LoadBundleFromDir(dir, BundleOptions{}, executor), executor), reference);
  EXPECT_EQ(CounterValue("lpm.adopt"), 0u);
  EXPECT_EQ(CounterValue("lpm.build"), 1u);
  EXPECT_EQ(CounterValue("snapshot.miss.absent"), 1u);
  EXPECT_EQ(LeafSpan("snapshot.load.classified").first, 0u);
}

TEST(QuerySource, CheckpointUnderAHashWithoutTheRngStreamIsABadSource) {
  // The world file decodes, but a checkpoint saved under the hash from
  // before the RNG stream version joined it does not restore against
  // it: a bad source, which the CLI reports with exit 5.
  const fs::path dir = FreshDir("query_source_ckpt_old_stream");
  const SnapshotFiles files = WriteTinySnapshots(dir);
  const fs::path ckpt_dir = dir / "ckpt";
  const std::uint64_t old_hash =
      snapshot::Fnv1a64(snapshot::EncodeClassifierConfig({}),
                        KeyWithoutRngStream(TinyExp().world.config()));
  stream::CheckpointStore store(ckpt_dir, old_hash);
  stream::DaemonConfig daemon_config;
  daemon_config.backpressure = stream::BackpressurePolicy::kBlock;
  stream::StreamDaemon daemon(TinyExp().world, {}, daemon_config, &store);
  std::thread producer([&] {
    const cdn::EventStreamGenerator generator(TinyExp().world,
                                              cdn::EventStreamConfig{.rounds = 1});
    for (std::string& frame : generator.GenerateFrames()) {
      (void)daemon.queue().Push(std::move(frame));
    }
    daemon.queue().Close();
  });
  daemon.RunUntilClosed();
  producer.join();
  ASSERT_TRUE(daemon.Checkpoint());
  // Under its own hash the checkpoint restores, so the rejection below
  // is the hash's doing.
  stream::StreamDaemon reader(TinyExp().world, {}, {}, &store);
  ASSERT_TRUE(reader.TryRestore());

  exec::Executor executor(2);
  try {
    (void)LoadBundleFromCheckpoint(files.world, ckpt_dir, BundleOptions{}, executor);
    FAIL() << "expected QueryError";
  } catch (const QueryError& e) {
    EXPECT_EQ(e.code(), QueryErrorCode::kBadSource);
  }
}

}  // namespace
}  // namespace cellspot::query
