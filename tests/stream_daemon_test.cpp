#include "cellspot/stream/daemon.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cellspot/cdn/event_stream.hpp"
#include "cellspot/exec/executor.hpp"
#include "cellspot/obs/metrics.hpp"
#include "cellspot/simnet/world.hpp"
#include "cellspot/snapshot/binary_io.hpp"
#include "cellspot/snapshot/event_frame.hpp"
#include "cellspot/snapshot/serde.hpp"
#include "cellspot/snapshot/snapshot.hpp"
#include "cellspot/snapshot/stage_cache.hpp"

namespace cellspot::stream {
namespace {

namespace fs = std::filesystem;
using snapshot::EncodeEventFrame;
using snapshot::EventKind;
using snapshot::StreamEvent;

fs::path FreshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;
}

const simnet::World& TinyWorld() {
  static const simnet::World world =
      simnet::World::Generate(simnet::WorldConfig::Tiny());
  return world;
}

std::string BeaconFrame(std::uint32_t subnet, std::uint32_t seq, std::uint64_t netinfo,
                        std::uint64_t cellular) {
  StreamEvent e;
  e.kind = EventKind::kBeacon;
  e.subnet = subnet;
  e.seq = seq;
  e.stats.hits = netinfo * 2;
  e.stats.netinfo_hits = netinfo;
  e.stats.cellular_labels = cellular;
  e.stats.wifi_labels = netinfo - cellular;
  e.stats.mobile_browser_hits = netinfo;
  return EncodeEventFrame(e);
}

std::string DemandFrame(std::uint32_t subnet, std::uint32_t seq, double raw) {
  StreamEvent e;
  e.kind = EventKind::kDemand;
  e.subnet = subnet;
  e.seq = seq;
  e.demand_raw = raw;
  return EncodeEventFrame(e);
}

std::string ClassifiedBytes(const StreamDaemon& daemon) {
  return snapshot::EncodeSnapshot(snapshot::EncodeClassified(daemon.ExportClassified()));
}

TEST(StreamDaemon, AppliesBeaconAndReclassifiesIncrementally) {
  StreamDaemon daemon(TinyWorld(), {}, {});
  const netaddr::Prefix block = TinyWorld().subnets()[0].block;

  daemon.queue().Push(BeaconFrame(0, 1, /*netinfo=*/10, /*cellular=*/9));
  EXPECT_EQ(daemon.Tick(), 1u);
  EXPECT_EQ(daemon.stats().applied, 1u);
  EXPECT_EQ(daemon.liveness(0), SubnetLiveness::kActive);
  EXPECT_TRUE(daemon.ExportClassified().IsCellular(block));

  // A later cumulative restatement flips the verdict the moment it lands.
  daemon.queue().Push(BeaconFrame(0, 2, /*netinfo=*/100, /*cellular=*/10));
  EXPECT_EQ(daemon.Tick(), 1u);
  const core::ClassifiedSubnets classified = daemon.ExportClassified();
  EXPECT_FALSE(classified.IsCellular(block));
  const double* ratio = classified.RatioOf(block);
  ASSERT_NE(ratio, nullptr);
  EXPECT_DOUBLE_EQ(*ratio, 0.1);
}

TEST(StreamDaemon, CountsDuplicateStaleCorruptAndBadSubnet) {
  obs::MetricsRegistry::Global().ResetForTest();
  StreamDaemon daemon(TinyWorld(), {}, {});
  auto& q = daemon.queue();

  q.Push(BeaconFrame(0, 3, 10, 5));
  q.Push(BeaconFrame(0, 3, 10, 5));  // duplicate seq: idempotent
  q.Push(BeaconFrame(0, 1, 4, 2));   // stale seq: reordered, ignored
  q.Push("not a frame");             // fails CRC: corrupt
  q.Push(BeaconFrame(static_cast<std::uint32_t>(TinyWorld().subnets().size()), 1, 4, 2));
  daemon.Tick();

  EXPECT_EQ(daemon.stats().applied, 1u);
  EXPECT_EQ(daemon.stats().duplicate, 1u);
  EXPECT_EQ(daemon.stats().stale_seq, 1u);
  EXPECT_EQ(daemon.stats().corrupt, 1u);
  EXPECT_EQ(daemon.stats().bad_subnet, 1u);
  auto& reg = obs::MetricsRegistry::Global();
  EXPECT_EQ(reg.counter("stream.events.duplicate").value(), 1u);
  EXPECT_EQ(reg.counter("stream.events.corrupt").value(), 1u);
  EXPECT_EQ(reg.counter("stream.events.bad_subnet").value(), 1u);
}

TEST(StreamDaemon, BeaconAndDemandSequencesAreIndependent) {
  StreamDaemon daemon(TinyWorld(), {}, {});
  daemon.queue().Push(BeaconFrame(0, 2, 10, 5));
  daemon.queue().Push(DemandFrame(0, 1, 42.0));  // seq 1 < beacon seq 2: fine
  daemon.Tick();
  EXPECT_EQ(daemon.stats().applied, 2u);
  EXPECT_EQ(daemon.stats().stale_seq, 0u);
}

TEST(StreamDaemon, StalenessWalksActiveStaleExpired) {
  DaemonConfig config;
  config.staleness_ticks = 2;
  config.expiry_ticks = 3;
  StreamDaemon daemon(TinyWorld(), {}, config);

  daemon.queue().Push(BeaconFrame(0, 1, 10, 5));
  daemon.Tick();  // tick 1: applied
  EXPECT_EQ(daemon.liveness(0), SubnetLiveness::kActive);
  // Untouched subnets never enter the state machine.
  EXPECT_EQ(daemon.liveness(1), SubnetLiveness::kNeverSeen);

  daemon.Tick();  // tick 2: quiet 1 tick
  EXPECT_EQ(daemon.liveness(0), SubnetLiveness::kActive);
  daemon.Tick();  // tick 3: quiet 2 ticks >= staleness_ticks
  EXPECT_EQ(daemon.liveness(0), SubnetLiveness::kStale);
  EXPECT_EQ(daemon.count_in(SubnetLiveness::kStale), 1u);
  daemon.Tick();  // quiet 3
  daemon.Tick();  // quiet 4
  EXPECT_EQ(daemon.liveness(0), SubnetLiveness::kStale);
  daemon.Tick();  // quiet 5 >= staleness + expiry
  EXPECT_EQ(daemon.liveness(0), SubnetLiveness::kExpired);

  // A fresh frame revives the slot — and expiry never dropped its state.
  daemon.queue().Push(BeaconFrame(0, 2, 10, 8));
  daemon.Tick();
  EXPECT_EQ(daemon.liveness(0), SubnetLiveness::kActive);
  EXPECT_TRUE(daemon.ExportClassified().IsCellular(TinyWorld().subnets()[0].block));
}

TEST(StreamDaemon, ExpiryRetainsLastKnownState) {
  DaemonConfig config;
  config.staleness_ticks = 1;
  config.expiry_ticks = 1;
  StreamDaemon daemon(TinyWorld(), {}, config);
  daemon.queue().Push(BeaconFrame(0, 1, 10, 9));
  daemon.Tick();
  const std::string before = ClassifiedBytes(daemon);
  for (int i = 0; i < 5; ++i) daemon.Tick();
  EXPECT_EQ(daemon.liveness(0), SubnetLiveness::kExpired);
  // Expiry is an observability signal, not an eviction: exports are
  // unchanged, because the batch pipeline has no notion of loss.
  EXPECT_EQ(ClassifiedBytes(daemon), before);
}

TEST(StreamDaemon, CheckpointRestoreRoundTripsStateAndRecomputesVerdicts) {
  const std::uint64_t hash =
      StreamDaemon::ConfigHash(simnet::WorldConfig::Tiny(), {});
  CheckpointStore store(FreshDir("daemon_ckpt"), hash);

  StreamDaemon daemon(TinyWorld(), {}, {}, &store);
  daemon.queue().Push(BeaconFrame(0, 1, 10, 9));
  daemon.queue().Push(BeaconFrame(2, 4, 20, 3));
  daemon.queue().Push(DemandFrame(0, 2, 123.25));
  daemon.Tick();
  ASSERT_TRUE(daemon.Checkpoint());

  StreamDaemon recovered(TinyWorld(), {}, {}, &store);
  ASSERT_TRUE(recovered.TryRestore());
  EXPECT_EQ(recovered.tick(), daemon.tick());
  EXPECT_EQ(ClassifiedBytes(recovered), ClassifiedBytes(daemon));
  EXPECT_EQ(snapshot::EncodeSnapshot(
                snapshot::EncodeDatasets(recovered.ExportBeacons(),
                                         recovered.ExportDemand())),
            snapshot::EncodeSnapshot(snapshot::EncodeDatasets(
                daemon.ExportBeacons(), daemon.ExportDemand())));
  // Restored seqs still dedup: replaying the same frames applies nothing.
  recovered.queue().Push(BeaconFrame(0, 1, 10, 9));
  recovered.queue().Push(DemandFrame(0, 2, 123.25));
  recovered.Tick();
  EXPECT_EQ(recovered.stats().applied, 0u);
  EXPECT_EQ(recovered.stats().duplicate, 2u);
}

/// One populated slot of a hand-written state payload, valid unless a
/// case below breaks it.
struct ForgedSlot {
  std::uint64_t index = 0;
  std::uint64_t beacon_seq = 3;
  std::uint64_t demand_seq = 2;
  dataset::BeaconBlockStats stats{.hits = 20,
                                  .netinfo_hits = 10,
                                  .cellular_labels = 9,
                                  .wifi_labels = 1,
                                  .mobile_browser_hits = 10};
  double demand_raw = 12.5;
};

/// The layout StreamDaemon::EncodeState writes, for arbitrary slots.
std::string StatePayload(const std::vector<ForgedSlot>& slots) {
  snapshot::ByteWriter w;
  w.Varint(TinyWorld().subnets().size());
  w.Varint(slots.size());
  for (const ForgedSlot& slot : slots) {
    w.Varint(slot.index);
    w.Varint(slot.beacon_seq);
    w.Varint(slot.demand_seq);
    w.Varint(slot.stats.hits);
    w.Varint(slot.stats.netinfo_hits);
    w.Varint(slot.stats.cellular_labels);
    w.Varint(slot.stats.wifi_labels);
    w.Varint(slot.stats.ethernet_labels);
    w.Varint(slot.stats.other_labels);
    w.Varint(slot.stats.mobile_browser_hits);
    w.F64(slot.demand_raw);
    w.Varint(/*last_update_tick=*/1);
  }
  return std::move(w).Take();
}

TEST(StreamDaemon, ForgedCheckpointStatesStartFresh) {
  const std::uint64_t hash = StreamDaemon::ConfigHash(simnet::WorldConfig::Tiny(), {});
  const auto with = [](auto edit) {
    ForgedSlot slot;
    slot.index = 1;
    edit(slot);
    return StatePayload({slot});
  };
  constexpr std::uint64_t k2To32 = std::uint64_t{1} << 32;
  const std::vector<std::pair<std::string, std::string>> forged = {
      {"repeated slot index", StatePayload({{.index = 2}, {.index = 2}})},
      {"descending slot index", StatePayload({{.index = 2}, {.index = 1}})},
      {"beacon seq above 2^32-1", with([](ForgedSlot& s) { s.beacon_seq = k2To32; })},
      {"demand seq above 2^32-1", with([](ForgedSlot& s) { s.demand_seq = k2To32 + 7; })},
      {"NaN demand", with([](ForgedSlot& s) { s.demand_raw = std::nan(""); })},
      {"infinite demand",
       with([](ForgedSlot& s) { s.demand_raw = std::numeric_limits<double>::infinity(); })},
      {"negative demand", with([](ForgedSlot& s) { s.demand_raw = -1.0; })},
      {"netinfo above hits", with([](ForgedSlot& s) { s.stats.netinfo_hits = 21; })},
      {"mobile above hits", with([](ForgedSlot& s) { s.stats.mobile_browser_hits = 21; })},
      {"labels above netinfo", with([](ForgedSlot& s) { s.stats.other_labels = 1; })},
      {"label sum wrapping past 2^64", with([](ForgedSlot& s) {
         s.stats.ethernet_labels = ~std::uint64_t{0} - 5;  // 9 + 1 + this wraps to 4
       })},
  };

  auto& corrupt = obs::MetricsRegistry::Global().counter("stream.checkpoint.corrupt");
  {
    // The forging helper itself writes a restorable state.
    CheckpointStore store(FreshDir("daemon_ckpt_forged_ok"), hash);
    ASSERT_TRUE(store.Save(7, StatePayload({{.index = 0}, {.index = 2}})));
    StreamDaemon daemon(TinyWorld(), {}, {}, &store);
    const std::uint64_t before = corrupt.value();
    ASSERT_TRUE(daemon.TryRestore());
    EXPECT_EQ(daemon.tick(), 7u);
    EXPECT_EQ(corrupt.value(), before);
    EXPECT_EQ(daemon.ExportBeacons().block_count(), 2u);
  }
  for (const auto& [name, payload] : forged) {
    SCOPED_TRACE(name);
    CheckpointStore store(FreshDir("daemon_ckpt_forged"), hash);
    ASSERT_TRUE(store.Save(7, payload));
    StreamDaemon daemon(TinyWorld(), {}, {}, &store);
    const std::uint64_t before = corrupt.value();
    EXPECT_FALSE(daemon.TryRestore());
    EXPECT_EQ(corrupt.value(), before + 1);
    // Started fresh: nothing restored, and every export still works.
    EXPECT_EQ(daemon.tick(), 0u);
    EXPECT_EQ(daemon.ExportBeacons().block_count(), 0u);
    EXPECT_EQ(daemon.ExportDemand().block_count(), 0u);
    exec::Executor executor(1);
    EXPECT_TRUE(daemon.ExportCandidates(executor).empty());
  }
}

TEST(StreamDaemon, RestoreWithoutStoreOrCheckpointIsClean) {
  StreamDaemon no_store(TinyWorld(), {}, {});
  EXPECT_FALSE(no_store.TryRestore());
  EXPECT_FALSE(no_store.Checkpoint());

  const std::uint64_t hash =
      StreamDaemon::ConfigHash(simnet::WorldConfig::Tiny(), {});
  CheckpointStore empty(FreshDir("daemon_ckpt_empty"), hash);
  StreamDaemon fresh(TinyWorld(), {}, {}, &empty);
  EXPECT_FALSE(fresh.TryRestore());
  EXPECT_EQ(fresh.tick(), 0u);
}

TEST(StreamDaemon, ClassifierConfigChangesInvalidateCheckpoints) {
  core::ClassifierConfig strict;
  strict.min_netinfo_hits = 50;
  EXPECT_NE(StreamDaemon::ConfigHash(simnet::WorldConfig::Tiny(), {}),
            StreamDaemon::ConfigHash(simnet::WorldConfig::Tiny(), strict));
  simnet::WorldConfig reseeded = simnet::WorldConfig::Tiny();
  reseeded.seed += 1;
  EXPECT_NE(StreamDaemon::ConfigHash(simnet::WorldConfig::Tiny(), {}),
            StreamDaemon::ConfigHash(reseeded, {}));
}

TEST(StreamDaemon, ConfigHashIsTheClassifiedStageKey) {
  core::ClassifierConfig strict;
  strict.min_netinfo_hits = 50;
  for (const core::ClassifierConfig& classifier : {core::ClassifierConfig{}, strict}) {
    EXPECT_EQ(StreamDaemon::ConfigHash(simnet::WorldConfig::Tiny(), classifier),
              snapshot::ClassifiedKey(simnet::WorldConfig::Tiny(), classifier));
  }
}

TEST(StreamDaemon, CheckpointUnderAHashWithoutTheRngStreamIsNotRestored) {
  // The compatibility hash before the RNG stream version joined it.
  const simnet::WorldConfig tiny = simnet::WorldConfig::Tiny();
  const std::uint64_t old_hash = snapshot::Fnv1a64(
      snapshot::EncodeClassifierConfig({}),
      snapshot::Fnv1a64(snapshot::EncodeWorldConfig(tiny),
                        0xcbf29ce484222325ULL ^ snapshot::kSnapshotFormatVersion));
  const auto dir = FreshDir("daemon_ckpt_old_stream");
  {
    CheckpointStore old_store(dir, old_hash);
    StreamDaemon writer(TinyWorld(), {}, {}, &old_store);
    writer.queue().Push(BeaconFrame(0, 1, 10, 9));
    writer.Tick();
    ASSERT_TRUE(writer.Checkpoint());
    // Under its own hash the checkpoint restores, so the skip below is
    // the hash's doing.
    StreamDaemon reader(TinyWorld(), {}, {}, &old_store);
    ASSERT_TRUE(reader.TryRestore());
  }
  CheckpointStore store(dir, StreamDaemon::ConfigHash(tiny, {}));
  StreamDaemon daemon(TinyWorld(), {}, {}, &store);
  EXPECT_FALSE(daemon.TryRestore());
  EXPECT_EQ(daemon.tick(), 0u);
  EXPECT_EQ(daemon.ExportBeacons().block_count(), 0u);
}

TEST(StreamDaemon, RunUntilClosedDrainsEverythingAcrossManyTicks) {
  DaemonConfig config;
  config.queue_capacity = 4;
  config.backpressure = BackpressurePolicy::kBlock;
  config.max_events_per_tick = 2;
  StreamDaemon daemon(TinyWorld(), {}, config);

  std::thread producer([&] {
    for (std::uint32_t seq = 1; seq <= 50; ++seq) {
      daemon.queue().Push(BeaconFrame(0, seq, seq, seq / 2));
    }
    daemon.queue().Close();
  });
  daemon.RunUntilClosed();
  producer.join();
  EXPECT_EQ(daemon.stats().applied, 50u);
  EXPECT_GE(daemon.tick(), 25u);  // max 2 frames per tick
}

}  // namespace
}  // namespace cellspot::stream
