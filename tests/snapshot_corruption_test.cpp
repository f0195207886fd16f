// Corruption tolerance of the stage cache, over every entry it keeps
// (world, datasets, classified, lpm): truncated and empty files,
// bit-flipped headers and payloads, stale format versions, StreamCorruptor
// damage and a directory in place of the file must each (a) fail the
// load with the right snapshot.miss.<reason> counter, (b) quarantine the
// entry in place as *.corrupt, and (c) leave the pipeline able to
// regenerate byte-identically — never a crash, never silently wrong
// data. Both image producers, ReadSnapshotFile (mapped) and
// DecodeSnapshot (in memory), must reject each damaged image for the
// same reason.
#include "cellspot/snapshot/stage_cache.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>

#include "cellspot/cdn/beacon_generator.hpp"
#include "cellspot/cdn/demand_generator.hpp"
#include "cellspot/faultsim/stream_corruptor.hpp"
#include "cellspot/obs/metrics.hpp"
#include "cellspot/snapshot/serde.hpp"
#include "cellspot/snapshot/snapshot.hpp"

namespace cellspot::snapshot {
namespace {

namespace fs = std::filesystem;

std::uint64_t CounterValue(std::string_view name) {
  for (const auto& c : obs::MetricsRegistry::Global().Snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

std::string ReadFileBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFileBytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::optional<SnapshotErrorReason> ReasonOf(const std::function<void()>& body) {
  try {
    body();
  } catch (const SnapshotError& e) {
    return e.reason();
  }
  return std::nullopt;
}

struct Artifacts {
  simnet::World world;
  dataset::BeaconDataset beacons;
  dataset::DemandDataset demand;
  core::ClassifiedSubnets classified;
};

const Artifacts& Tiny() {
  static const Artifacts a = [] {
    Artifacts out{simnet::World::Generate(simnet::WorldConfig::Tiny()), {}, {}, {}};
    out.beacons = cdn::BeaconGenerator(out.world).GenerateDataset();
    out.demand = cdn::DemandGenerator(out.world).GenerateDataset();
    out.classified = core::SubnetClassifier(core::ClassifierConfig{}).Classify(out.beacons);
    return out;
  }();
  return a;
}

enum class Entry { kWorld, kDatasets, kClassified, kLpm };
constexpr std::array<Entry, 4> kEntries = {Entry::kWorld, Entry::kDatasets,
                                           Entry::kClassified, Entry::kLpm};

const char* Name(Entry e) {
  switch (e) {
    case Entry::kWorld: return "world";
    case Entry::kDatasets: return "datasets";
    case Entry::kClassified: return "classified";
    case Entry::kLpm: return "lpm";
  }
  return "?";
}

class CorruptionMatrix : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("snapcorrupt_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    config_ = Tiny().world.config();
    cache_.emplace(dir_);
    ASSERT_TRUE(cache_->enabled());
  }

  fs::path Path(Entry e) const {
    switch (e) {
      case Entry::kWorld: return cache_->WorldPath(config_);
      case Entry::kDatasets: return cache_->DatasetsPath(config_);
      case Entry::kClassified: return cache_->ClassifiedPath(config_, {});
      case Entry::kLpm: return cache_->LpmPath(config_);
    }
    return {};
  }

  void Store(Entry e) {
    const Artifacts& a = Tiny();
    switch (e) {
      case Entry::kWorld: cache_->StoreWorld(a.world); return;
      case Entry::kDatasets: cache_->StoreDatasets(config_, a.beacons, a.demand); return;
      case Entry::kClassified: cache_->StoreClassified(config_, {}, a.classified); return;
      case Entry::kLpm: cache_->StoreLpm(config_, a.world.rib()); return;
    }
  }

  /// The artifact the entry serves, re-encoded; nullopt on a miss.
  std::optional<std::string> Load(Entry e) {
    switch (e) {
      case Entry::kWorld:
        if (auto w = cache_->TryLoadWorld(config_)) return EncodeSnapshot(EncodeWorld(*w));
        break;
      case Entry::kDatasets:
        if (auto d = cache_->TryLoadDatasets(config_)) {
          return EncodeSnapshot(EncodeDatasets(d->first, d->second));
        }
        break;
      case Entry::kClassified:
        if (auto c = cache_->TryLoadClassified(config_, {})) {
          return EncodeSnapshot(EncodeClassified(*c));
        }
        break;
      case Entry::kLpm:
        if (auto f = cache_->TryLoadLpm(config_)) return f->Encode();
        break;
    }
    return std::nullopt;
  }

  static std::string Reference(Entry e) {
    const Artifacts& a = Tiny();
    switch (e) {
      case Entry::kWorld: return EncodeSnapshot(EncodeWorld(a.world));
      case Entry::kDatasets: return EncodeSnapshot(EncodeDatasets(a.beacons, a.demand));
      case Entry::kClassified: return EncodeSnapshot(EncodeClassified(a.classified));
      case Entry::kLpm: return a.world.rib().Flat().Encode();
    }
    return {};
  }

  /// For every entry: store a clean file, let `damage` rewrite it, and
  /// assert the reason both image producers report (`reason` when
  /// given), that the cache misses with that reason and quarantines the
  /// file, and that a re-store brings back the same bytes and artifact.
  void ExpectEveryEntryRejectedThenRecovers(
      const std::function<std::string(const std::string&)>& damage,
      std::optional<SnapshotErrorReason> reason) {
    for (const Entry e : kEntries) {
      SCOPED_TRACE(Name(e));
      obs::MetricsRegistry::Global().ResetForTest();
      const fs::path path = Path(e);
      fs::remove(path.string() + ".corrupt");
      Store(e);
      ASSERT_TRUE(fs::exists(path));
      const std::string clean = ReadFileBytes(path);
      const std::string damaged = damage(clean);
      ASSERT_NE(damaged, clean);
      WriteFileBytes(path, damaged);

      const auto mapped = ReasonOf([&] { (void)ReadSnapshotFile(path); });
      const auto in_memory = ReasonOf([&] { (void)DecodeSnapshot(damaged); });
      ASSERT_TRUE(mapped.has_value()) << "damaged image passed ReadSnapshotFile";
      EXPECT_EQ(mapped, in_memory);
      if (reason) {
        EXPECT_EQ(*mapped, *reason);
      }
      ExpectMissQuarantineRecover(e, *mapped, clean);
    }
  }

  void ExpectMissQuarantineRecover(Entry e, SnapshotErrorReason reason,
                                   const std::string& clean) {
    const fs::path path = Path(e);
    EXPECT_FALSE(Load(e).has_value());
    EXPECT_EQ(CounterValue("snapshot.hit"), 0u);
    EXPECT_EQ(CounterValue("snapshot.miss"), 1u);
    EXPECT_EQ(CounterValue("snapshot.miss." + std::string(SnapshotErrorReasonName(reason))),
              1u)
        << "expected reason " << SnapshotErrorReasonName(reason);
    EXPECT_FALSE(fs::exists(path)) << "corrupt file must not stay in place";
    EXPECT_TRUE(fs::exists(path.string() + ".corrupt"))
        << "corrupt file must be quarantined for diagnosis";

    // Fallback: regenerate, store, and the warm path works again with
    // the exact same bytes as the original save.
    Store(e);
    EXPECT_EQ(ReadFileBytes(path), clean);
    const std::optional<std::string> reloaded = Load(e);
    ASSERT_TRUE(reloaded.has_value());
    EXPECT_EQ(*reloaded, Reference(e));
  }

  fs::path dir_;
  simnet::WorldConfig config_;
  std::optional<StageCache> cache_;
};

TEST_F(CorruptionMatrix, TruncatedFileFallsBack) {
  ExpectEveryEntryRejectedThenRecovers(
      [](const std::string& b) { return b.substr(0, b.size() / 2); },
      SnapshotErrorReason::kTruncated);
}

TEST_F(CorruptionMatrix, EmptyFileIsTruncated) {
  ExpectEveryEntryRejectedThenRecovers([](const std::string&) { return std::string(); },
                                       SnapshotErrorReason::kTruncated);
}

TEST_F(CorruptionMatrix, HeaderBitFlipFallsBack) {
  ExpectEveryEntryRejectedThenRecovers(
      [](std::string b) {
        b[0] ^= 0x01;  // first magic byte
        return b;
      },
      SnapshotErrorReason::kBadMagic);
}

TEST_F(CorruptionMatrix, PayloadBitFlipFailsCrcAndFallsBack) {
  ExpectEveryEntryRejectedThenRecovers(
      [](std::string b) {
        b.back() ^= 0x40;  // last byte of the final section's payload
        return b;
      },
      SnapshotErrorReason::kChecksum);
}

TEST_F(CorruptionMatrix, StaleFormatVersionFallsBack) {
  ExpectEveryEntryRejectedThenRecovers(
      [](std::string b) {
        b[4] = static_cast<char>(kSnapshotFormatVersion + 1);  // u32 LE version field
        return b;
      },
      SnapshotErrorReason::kVersionMismatch);
}

TEST_F(CorruptionMatrix, StreamCorruptorDamageNeverCrashesOrLies) {
  // Line-oriented corruption over the binary image: whatever it breaks,
  // the load must reject (the odds of surviving per-section CRC32 are
  // negligible) and quarantine, for the reason the producers agree on.
  ExpectEveryEntryRejectedThenRecovers(
      [](const std::string& b) {
        std::istringstream in(b);
        std::ostringstream out;
        faultsim::StreamCorruptor corruptor(faultsim::FaultMix::Destructive(0.8), 1234);
        EXPECT_GT(corruptor.Corrupt(in, out).total_faults(), 0u);
        return out.str();
      },
      std::nullopt);
}

TEST_F(CorruptionMatrix, DirectoryInPlaceOfTheFileIsAnIoMiss) {
  for (const Entry e : kEntries) {
    SCOPED_TRACE(Name(e));
    obs::MetricsRegistry::Global().ResetForTest();
    Store(e);
    const fs::path path = Path(e);
    const std::string clean = ReadFileBytes(path);
    fs::remove(path);
    fs::create_directory(path);
    EXPECT_EQ(ReasonOf([&] { (void)ReadSnapshotFile(path); }), SnapshotErrorReason::kIo);
    ExpectMissQuarantineRecover(e, SnapshotErrorReason::kIo, clean);
  }
}

TEST_F(CorruptionMatrix, AbsentFileIsAQuietMiss) {
  for (const Entry e : kEntries) {
    SCOPED_TRACE(Name(e));
    obs::MetricsRegistry::Global().ResetForTest();
    EXPECT_FALSE(Load(e).has_value());
    EXPECT_EQ(CounterValue("snapshot.miss"), 1u);
    EXPECT_EQ(CounterValue("snapshot.miss.absent"), 1u);
    EXPECT_FALSE(fs::exists(Path(e).string() + ".corrupt"));
    EXPECT_EQ(ReasonOf([&] { (void)ReadSnapshotFile(Path(e)); }), SnapshotErrorReason::kIo);
  }
}

TEST(StageCacheSetup, UnwritableDirectoryDisablesCacheInsteadOfThrowing) {
  StageCache cache("/dev/null/not-a-directory");
  EXPECT_FALSE(cache.enabled());
  const auto config = simnet::WorldConfig::Tiny();
  EXPECT_FALSE(cache.TryLoadWorld(config).has_value());
}

}  // namespace
}  // namespace cellspot::snapshot
