// The persistent stage cache through analysis::Pipeline: a second run
// with the same config must hit every cached stage (no
// pipeline.build_world / compile_lpm / generate_datasets / classify spans)
// and produce byte-identical exports; any config change must key a
// different snapshot and recompute.
#include "cellspot/analysis/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cellspot/obs/metrics.hpp"
#include "cellspot/snapshot/serde.hpp"
#include "cellspot/snapshot/snapshot.hpp"
#include "cellspot/snapshot/stage_cache.hpp"

namespace cellspot::analysis {
namespace {

namespace fs = std::filesystem;

std::uint64_t CounterValue(std::string_view name) {
  for (const auto& c : obs::MetricsRegistry::Global().Snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

bool HasPipelineSpan(std::string_view leaf) {
  const std::string needle = "pipeline." + std::string(leaf);
  for (const auto& s : obs::MetricsRegistry::Global().Snapshot().spans) {
    if (s.path.find(needle) != std::string::npos) return true;
  }
  return false;
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

std::string Exports(const Experiment& exp) {
  std::ostringstream out;
  exp.beacons.SaveCsv(out);
  exp.demand.SaveCsv(out);
  return out.str();
}

fs::path FreshDir(std::string_view name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("snapcache_" + std::string(name));
  fs::remove_all(dir);
  return dir;
}

TEST(StageCachePipeline, WarmRunSkipsCachedStagesByteIdentically) {
  const fs::path dir = FreshDir("warm");
  const Pipeline::Config config{.world = simnet::WorldConfig::Tiny(), .snapshot_dir = dir.string()};

  obs::MetricsRegistry::Global().ResetForTest();
  Pipeline cold(config);
  cold.Run();
  EXPECT_TRUE(HasPipelineSpan("build_world"));
  EXPECT_TRUE(HasPipelineSpan("compile_lpm"));
  EXPECT_TRUE(HasPipelineSpan("generate_datasets"));
  EXPECT_TRUE(HasPipelineSpan("classify"));
  EXPECT_EQ(CounterValue("snapshot.hit"), 0u);
  // world + datasets + classified + the compiled LPM engine
  EXPECT_EQ(CounterValue("snapshot.miss.absent"), 4u);
  EXPECT_GT(CounterValue("snapshot.bytes_written"), 0u);

  obs::MetricsRegistry::Global().ResetForTest();
  Pipeline warm(config);
  warm.Run();
  EXPECT_EQ(CounterValue("snapshot.hit"), 4u);
  EXPECT_EQ(CounterValue("snapshot.miss"), 0u);
  // bytes_read is the size of each file read: exactly the four entries.
  const snapshot::StageCache cache(dir);
  std::uint64_t file_bytes = 0;
  for (const fs::path& path :
       {cache.WorldPath(config.world), cache.DatasetsPath(config.world),
        cache.ClassifiedPath(config.world, config.classifier), cache.LpmPath(config.world)}) {
    file_bytes += fs::file_size(path);
  }
  EXPECT_EQ(CounterValue("snapshot.bytes_read"), file_bytes);
  // One load span per artifact, carrying that file's size as its items.
  for (const auto& [artifact, path] :
       {std::pair{"world", cache.WorldPath(config.world)},
        std::pair{"datasets", cache.DatasetsPath(config.world)},
        std::pair{"classified", cache.ClassifiedPath(config.world, config.classifier)},
        std::pair{"lpm", cache.LpmPath(config.world)}}) {
    const auto [count, items] = LeafSpan("snapshot.load." + std::string(artifact));
    EXPECT_EQ(count, 1u) << artifact;
    EXPECT_EQ(items, fs::file_size(path)) << artifact;
  }
  EXPECT_EQ(LeafSpan("snapshot.load").first, 0u);
  // The cached stages never ran: no stage spans.
  EXPECT_FALSE(HasPipelineSpan("build_world"));
  EXPECT_FALSE(HasPipelineSpan("compile_lpm"));
  EXPECT_FALSE(HasPipelineSpan("generate_datasets"));
  EXPECT_FALSE(HasPipelineSpan("classify"));
  // Aggregate/filter are recomputed (cheap, not snapshotted).
  EXPECT_TRUE(HasPipelineSpan("aggregate"));
  EXPECT_TRUE(HasPipelineSpan("filter"));

  EXPECT_EQ(Exports(warm.experiment()), Exports(cold.experiment()));
  EXPECT_TRUE(std::ranges::equal(warm.experiment().classified.ratios(),
                                 cold.experiment().classified.ratios()));
  EXPECT_TRUE(std::ranges::equal(warm.experiment().classified.cellular(),
                                 cold.experiment().classified.cellular()));
  EXPECT_EQ(warm.experiment().filtered.kept.size(), cold.experiment().filtered.kept.size());
}

TEST(StageCachePipeline, DifferentSeedKeysDifferentSnapshots) {
  const fs::path dir = FreshDir("seed");
  Pipeline::Config config{.world = simnet::WorldConfig::Tiny(), .snapshot_dir = dir.string()};
  Pipeline cold(config);
  cold.Run();

  obs::MetricsRegistry::Global().ResetForTest();
  config.world.seed += 1;
  Pipeline other(config);
  other.Run();
  EXPECT_EQ(CounterValue("snapshot.hit"), 0u);
  EXPECT_EQ(CounterValue("snapshot.miss.absent"), 4u);
  EXPECT_TRUE(HasPipelineSpan("build_world"));
}

TEST(StageCachePipeline, ClassifierConfigKeysOnlyTheClassifiedStage) {
  const fs::path dir = FreshDir("classifier");
  Pipeline::Config config{.world = simnet::WorldConfig::Tiny(), .snapshot_dir = dir.string()};
  Pipeline cold(config);
  cold.Run();

  obs::MetricsRegistry::Global().ResetForTest();
  config.classifier.threshold = 0.9;
  Pipeline reclass(config);
  reclass.Run();
  // World + datasets + lpm hit; the classified snapshot is keyed off
  // the classifier config and must recompute.
  EXPECT_EQ(CounterValue("snapshot.hit"), 3u);
  EXPECT_EQ(CounterValue("snapshot.miss.absent"), 1u);
  EXPECT_FALSE(HasPipelineSpan("build_world"));
  EXPECT_TRUE(HasPipelineSpan("classify"));

  // …and set_classifier invalidation composes with the cache: switching
  // back to the default config hits the snapshot stored by the first run.
  obs::MetricsRegistry::Global().ResetForTest();
  reclass.set_classifier({});
  (void)reclass.Classify();
  EXPECT_EQ(CounterValue("snapshot.hit"), 1u);
}

/// The world key before the RNG stream version joined it: FNV-1a-64
/// over the world config, seeded by the snapshot format version.
std::uint64_t KeyWithoutRngStream(const simnet::WorldConfig& config) {
  return snapshot::Fnv1a64(snapshot::EncodeWorldConfig(config),
                           0xcbf29ce484222325ULL ^ snapshot::kSnapshotFormatVersion);
}

std::string Hex16(std::uint64_t v) {
  std::array<char, 17> buf{};
  std::snprintf(buf.data(), buf.size(), "%016llx", static_cast<unsigned long long>(v));
  return buf.data();
}

TEST(StageCachePipeline, EntriesUnderAKeyWithoutTheRngStreamAreNeverOpened) {
  // Another world's entries, filed under the names the key without the
  // RNG stream version gives Tiny(): what a binary drawing other
  // streams leaves in a shared directory. Served, they would be a warm
  // hit that no cold run reproduces.
  const fs::path stale_src = FreshDir("stale_src");
  Pipeline::Config other{.world = simnet::WorldConfig::Tiny(),
                         .snapshot_dir = stale_src.string()};
  other.world.seed += 1;
  Pipeline(other).Run();
  const snapshot::StageCache src_cache(stale_src);

  const simnet::WorldConfig tiny = simnet::WorldConfig::Tiny();
  const std::uint64_t world_key = KeyWithoutRngStream(tiny);
  const std::uint64_t classified_key =
      snapshot::Fnv1a64(snapshot::EncodeClassifierConfig({}), world_key);
  const fs::path dir = FreshDir("stale");
  fs::create_directories(dir);
  for (const auto& [from, name] :
       {std::pair{src_cache.WorldPath(other.world), "world." + Hex16(world_key)},
        std::pair{src_cache.DatasetsPath(other.world), "datasets." + Hex16(world_key)},
        std::pair{src_cache.LpmPath(other.world), "lpm." + Hex16(world_key)},
        std::pair{src_cache.ClassifiedPath(other.world, {}),
                  "classified." + Hex16(classified_key)}}) {
    fs::copy_file(from, dir / (name + ".snap"));
  }

  obs::MetricsRegistry::Global().ResetForTest();
  Pipeline pipeline({.world = tiny, .snapshot_dir = dir.string()});
  pipeline.Run();
  EXPECT_EQ(CounterValue("snapshot.hit"), 0u);
  // Clean misses: nothing was opened, so nothing was quarantined.
  EXPECT_EQ(CounterValue("snapshot.miss.absent"), 4u);
  EXPECT_EQ(CounterValue("snapshot.miss"), 4u);
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".corrupt") << entry.path();
  }

  Pipeline cold({.world = tiny});
  cold.Run();
  EXPECT_EQ(Exports(pipeline.experiment()), Exports(cold.experiment()));
  EXPECT_TRUE(std::ranges::equal(pipeline.experiment().classified.cellular(),
                                 cold.experiment().classified.cellular()));
  EXPECT_EQ(pipeline.experiment().filtered.kept.size(),
            cold.experiment().filtered.kept.size());
}

TEST(StageCachePipeline, EmptySnapshotDirDisablesCaching) {
  obs::MetricsRegistry::Global().ResetForTest();
  Pipeline p({.world = simnet::WorldConfig::Tiny()});
  (void)p.BuildWorld();
  EXPECT_EQ(CounterValue("snapshot.hit"), 0u);
  EXPECT_EQ(CounterValue("snapshot.miss"), 0u);
  EXPECT_TRUE(HasPipelineSpan("build_world"));
}

// Writers use write-to-temp + atomic rename, so a reader racing a
// writer must see either a miss (file absent) or a complete, valid
// snapshot — never a torn read, never a quarantine.
TEST(StageCacheConcurrency, ReadersRacingAWriterNeverSeeTornSnapshots) {
  const fs::path dir = FreshDir("race");
  const simnet::WorldConfig config = simnet::WorldConfig::Tiny();
  const simnet::World world = simnet::World::Generate(config);
  const std::string reference =
      snapshot::EncodeSnapshot(snapshot::EncodeWorld(world));

  obs::MetricsRegistry::Global().ResetForTest();
  std::atomic<bool> writing{true};
  std::atomic<std::uint64_t> loads{0};
  std::thread writer([&] {
    snapshot::StageCache cache(dir);
    // Repeated stores keep rewriting the same key (tmp file + rename)
    // while readers race the path through absent -> present -> rewritten.
    for (int i = 0; i < 10; ++i) cache.StoreWorld(world);
    writing = false;
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      snapshot::StageCache cache(dir);
      while (writing || loads == 0) {
        if (auto loaded = cache.TryLoadWorld(config)) {
          ++loads;
          ASSERT_EQ(snapshot::EncodeSnapshot(snapshot::EncodeWorld(*loaded)),
                    reference);
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  EXPECT_GT(loads, 0u);
  // No reader ever saw a half-written file.
  for (const char* reason : {"checksum", "truncated", "bad-magic", "malformed"}) {
    EXPECT_EQ(CounterValue("snapshot.miss." + std::string(reason)), 0u) << reason;
  }
}

TEST(SnapshotDirFromEnv, ReadsEnvironment) {
  ::unsetenv("CELLSPOT_SNAPSHOT_DIR");
  EXPECT_EQ(SnapshotDirFromEnv(), "");
  ::setenv("CELLSPOT_SNAPSHOT_DIR", "/tmp/snapdir", 1);
  EXPECT_EQ(SnapshotDirFromEnv(), "/tmp/snapdir");
  ::unsetenv("CELLSPOT_SNAPSHOT_DIR");
}

}  // namespace
}  // namespace cellspot::analysis
