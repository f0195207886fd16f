// The aggregation engine's central contract: byte-identical output
// (floats compared bit for bit) at any shard count x thread count
// combination, against the sequential reference in
// support/sequential_aggregation.hpp — plus the deterministic shard
// key, the span/gauge telemetry, the per-shard classified snapshot
// sections (round trip, parallel mapped decode, corruption and retired
// layouts quarantined + rebuilt), the stream daemon's export path, and
// the positional consumers (classifier, dataset builder, ResolveOrigins)
// on empty and one-row inputs.
#include "cellspot/core/sharded_aggregation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cellspot/analysis/experiment.hpp"
#include "cellspot/cdn/event_stream.hpp"
#include "cellspot/exec/executor.hpp"
#include "cellspot/faultsim/frame_chaos.hpp"
#include "cellspot/faultsim/stream_corruptor.hpp"
#include "cellspot/obs/metrics.hpp"
#include "cellspot/obs/trace.hpp"
#include "cellspot/snapshot/event_frame.hpp"
#include "cellspot/snapshot/serde.hpp"
#include "cellspot/snapshot/snapshot.hpp"
#include "cellspot/snapshot/stage_cache.hpp"
#include "cellspot/stream/daemon.hpp"
#include "support/sequential_aggregation.hpp"

namespace cellspot {
namespace {

namespace fs = std::filesystem;

const analysis::Experiment& TinyExperiment() {
  static const analysis::Experiment exp =
      analysis::RunExperiment(simnet::WorldConfig::Tiny());
  return exp;
}

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Field-by-field equality with doubles compared as raw bits: the
/// engine's contract is byte-identity, so 1e-12 of fold-order drift is
/// a failure, not noise.
void ExpectBitIdentical(const std::vector<core::AsAggregate>& got,
                        const std::vector<core::AsAggregate>& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const core::AsAggregate& g = got[i];
    const core::AsAggregate& w = want[i];
    ASSERT_EQ(g.asn, w.asn) << label << " row " << i;
    EXPECT_EQ(g.cell_blocks_v4, w.cell_blocks_v4) << label << " asn " << w.asn;
    EXPECT_EQ(g.cell_blocks_v6, w.cell_blocks_v6) << label << " asn " << w.asn;
    EXPECT_EQ(g.observed_blocks_v4, w.observed_blocks_v4) << label << " asn " << w.asn;
    EXPECT_EQ(g.observed_blocks_v6, w.observed_blocks_v6) << label << " asn " << w.asn;
    EXPECT_EQ(g.demand_blocks, w.demand_blocks) << label << " asn " << w.asn;
    EXPECT_EQ(Bits(g.cell_demand_du), Bits(w.cell_demand_du)) << label << " asn " << w.asn;
    EXPECT_EQ(Bits(g.total_demand_du), Bits(w.total_demand_du)) << label << " asn " << w.asn;
    EXPECT_EQ(g.beacon_hits, w.beacon_hits) << label << " asn " << w.asn;
    EXPECT_EQ(g.cellular_blocks, w.cellular_blocks) << label << " asn " << w.asn;
  }
}

std::uint64_t CounterValue(std::string_view name) {
  for (const auto& c : obs::MetricsRegistry::Global().Snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

double GaugeValue(std::string_view name) {
  for (const auto& g : obs::MetricsRegistry::Global().Snapshot().gauges) {
    if (g.name == name) return g.value;
  }
  return -1.0;
}

TEST(ShardOfAs, DeterministicInRangeAndSpreading) {
  for (const asdb::AsNumber asn : {1u, 64512u, 4200000000u}) {
    EXPECT_EQ(core::ShardOfAs(asn, 1), 0u);
    EXPECT_EQ(core::ShardOfAs(asn, 8), core::ShardOfAs(asn, 8)) << "must be pure";
    EXPECT_LT(core::ShardOfAs(asn, 8), 8u);
  }
  // FNV over the ASN bytes spreads a dense ASN range over every shard
  // (sequential ASNs mod N would stripe; hashing must not degenerate).
  std::set<std::size_t> hit;
  for (asdb::AsNumber asn = 1; asn <= 1024; ++asn) hit.insert(core::ShardOfAs(asn, 8));
  EXPECT_EQ(hit.size(), 8u);
}

TEST(ShardedAggregation, ByteIdenticalAcrossShardAndThreadMatrix) {
  const analysis::Experiment& exp = TinyExperiment();
  exec::Executor ref_ex(1);
  const std::vector<core::AsAggregate> reference =
      test_support::AggregateCandidateAsesSequential(exp.world.rib(), exp.classified,
                                                     exp.beacons, exp.demand, ref_ex);
  ASSERT_FALSE(reference.empty());

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      exec::Executor ex(threads);
      const std::vector<core::AsAggregate> sharded = core::AggregateCandidateAsesSharded(
          exp.world.rib(), exp.classified, exp.beacons, exp.demand, ex,
          core::AggregationConfig{.shards = shards});
      ExpectBitIdentical(sharded, reference,
                         "shards=" + std::to_string(shards) +
                             " threads=" + std::to_string(threads));
    }
  }
}

// The {} config: kAggregationShards (8) shards, at 1, 2 and 8 threads.
TEST(ShardedAggregation, DefaultOverloadMatchesSequentialEngine) {
  const analysis::Experiment& exp = TinyExperiment();
  exec::Executor ref_ex(1);
  const auto reference = test_support::AggregateCandidateAsesSequential(
      exp.world.rib(), exp.classified, exp.beacons, exp.demand, ref_ex);
  for (const unsigned threads : {1u, 2u, 8u}) {
    obs::MetricsRegistry::Global().ResetForTest();
    exec::Executor ex(threads);
    const auto via_default = core::AggregateCandidateAsesSharded(
        exp.world.rib(), exp.classified, exp.beacons, exp.demand, ex, {});
    ExpectBitIdentical(via_default, reference,
                       "default config threads=" + std::to_string(threads));
    EXPECT_EQ(GaugeValue("aggregate.shards"), 8.0);
  }
}

// One "aggregate.shard" span per shard plus the "aggregate.shards" gauge.
TEST(ShardedAggregation, RecordsShardSpansAndPoolGauges) {
  const analysis::Experiment& exp = TinyExperiment();
  obs::MetricsRegistry::Global().ResetForTest();
  exec::Executor ex(2);
  const auto candidates = core::AggregateCandidateAsesSharded(
      exp.world.rib(), exp.classified, exp.beacons, exp.demand, ex,
      core::AggregationConfig{.shards = 4});
  ASSERT_FALSE(candidates.empty());

  EXPECT_EQ(GaugeValue("aggregate.shards"), 4.0);

  std::uint64_t shard_spans = 0;
  for (const auto& s : obs::MetricsRegistry::Global().Snapshot().spans) {
    if (s.path.find("aggregate.shard") != std::string::npos) shard_spans += s.count;
  }
  EXPECT_EQ(shard_spans, 4u);
}

// Every shard span nests under the job's "exec.batch", on the calling
// thread and on the workers alike; none is an orphan root. Four runs,
// so the workers take shards in at least one of them.
TEST(ShardedAggregation, ShardSpansNestUnderTheBatchOnEveryThread) {
  const analysis::Experiment& exp = TinyExperiment();
  obs::MetricsRegistry::Global().ResetForTest();
  exec::Executor ex(4);
  constexpr int kRuns = 4;
  for (int run = 0; run < kRuns; ++run) {
    const obs::TraceSpan outer("aggregate.test");
    (void)core::AggregateCandidateAsesSharded(exp.world.rib(), exp.classified, exp.beacons,
                                              exp.demand, ex, {});
  }
  std::uint64_t shard_spans = 0;
  for (const auto& s : obs::MetricsRegistry::Global().Snapshot().spans) {
    if (!s.path.ends_with("aggregate.shard")) continue;
    shard_spans += s.count;
    EXPECT_EQ(s.path, "aggregate.test/exec.batch/aggregate.shard");
    EXPECT_EQ(s.depth, 2) << s.path;
  }
  EXPECT_EQ(shard_spans, kRuns * core::kAggregationShards);
}

// ---------------------------------------------------------------------------
// Per-shard classified snapshot sections.

/// The in-memory image of `sections`, as a decoder sees it.
snapshot::SnapshotImage Image(const std::vector<snapshot::Section>& sections) {
  return snapshot::DecodeSnapshot(snapshot::EncodeSnapshot(sections));
}

TEST(ClassifiedShardedSnapshot, RoundTripsAtSeveralShardCounts) {
  const core::ClassifiedSubnets& classified = TinyExperiment().classified;
  const std::string canonical =
      snapshot::EncodeSnapshot(snapshot::EncodeClassified(classified));

  // 64 shards on a Tiny world exercises empty trailing shards.
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                              std::size_t{64}}) {
    const std::vector<snapshot::Section> sections =
        snapshot::EncodeClassifiedSharded(classified, k);
    bool has_manifest = false;
    for (const snapshot::Section& s : sections) {
      if (s.name == snapshot::kClassifiedShardsSection) has_manifest = true;
    }
    EXPECT_TRUE(has_manifest) << k << " shards";

    const core::ClassifiedSubnets decoded = snapshot::DecodeClassified(Image(sections));
    EXPECT_TRUE(std::ranges::equal(decoded.ratios(), classified.ratios())) << k << " shards";
    EXPECT_TRUE(std::ranges::equal(decoded.cellular(), classified.cellular()))
        << k << " shards";
    // Ordered concatenation preserved insertion order, so re-encoding
    // in the stored layout is byte-identical.
    EXPECT_EQ(snapshot::EncodeSnapshot(snapshot::EncodeClassified(decoded)), canonical)
        << k << " shards";
  }
}

/// The retired two-section layout: "classified.ratios" and
/// "classified.cellular", no manifest. A 1-shard encoding with the ".0"
/// suffixes dropped is byte for byte what that encoder wrote.
std::vector<snapshot::Section> TwoSectionLayout(const core::ClassifiedSubnets& classified) {
  std::vector<snapshot::Section> sections;
  for (snapshot::Section& s : snapshot::EncodeClassifiedSharded(classified, 1)) {
    if (s.name == snapshot::kClassifiedShardsSection) continue;
    s.name.resize(s.name.size() - 2);
    sections.push_back(std::move(s));
  }
  return sections;
}

TEST(ClassifiedShardedSnapshot, TwoSectionLayoutIsRejectedAndRebuilt) {
  const analysis::Experiment& exp = TinyExperiment();
  const std::vector<snapshot::Section> sections = TwoSectionLayout(exp.classified);
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0].name, "classified.ratios");
  EXPECT_EQ(sections[1].name, "classified.cellular");
  try {
    (void)snapshot::DecodeClassified(Image(sections));
    ADD_FAILURE() << "two-section layout decoded";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_EQ(e.reason(), snapshot::SnapshotErrorReason::kMalformed) << e.what();
  }

  // The stage cache quarantines such a file and rebuilds.
  const simnet::WorldConfig config = exp.world.config();
  const fs::path dir = fs::path(::testing::TempDir()) / "shardcache_two_section";
  fs::remove_all(dir);
  snapshot::StageCache cache(dir);
  ASSERT_TRUE(cache.enabled());
  const fs::path path = cache.ClassifiedPath(config, {});
  snapshot::WriteSnapshotFile(path, sections);
  exec::Executor ex(4);

  obs::MetricsRegistry::Global().ResetForTest();
  EXPECT_FALSE(cache.TryLoadClassified(config, {}, &ex).has_value());
  EXPECT_EQ(CounterValue("snapshot.miss.malformed"), 1u);
  EXPECT_FALSE(fs::exists(path)) << "the two-section file must not stay in place";
  EXPECT_TRUE(fs::exists(path.string() + ".corrupt"));

  cache.StoreClassified(config, {}, exp.classified);
  auto reloaded = cache.TryLoadClassified(config, {}, &ex);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_TRUE(std::ranges::equal(reloaded->ratios(), exp.classified.ratios()));
  EXPECT_TRUE(std::ranges::equal(reloaded->cellular(), exp.classified.cellular()));
}

TEST(ClassifiedShardedSnapshot, MappedDecodeMatchesWithAndWithoutExecutor) {
  const core::ClassifiedSubnets& classified = TinyExperiment().classified;
  const fs::path path = fs::path(::testing::TempDir()) / "classified_sharded.snap";
  fs::remove(path);
  snapshot::WriteSnapshotFile(path, snapshot::EncodeClassifiedSharded(classified, 8));

  const snapshot::SnapshotImage image = snapshot::ReadSnapshotFile(path);
  exec::Executor ex(4);
  const core::ClassifiedSubnets parallel = snapshot::DecodeClassified(image, &ex);
  const core::ClassifiedSubnets sequential = snapshot::DecodeClassified(image);
  EXPECT_TRUE(std::ranges::equal(parallel.ratios(), classified.ratios()));
  EXPECT_TRUE(std::ranges::equal(parallel.cellular(), classified.cellular()));
  EXPECT_TRUE(std::ranges::equal(sequential.ratios(), classified.ratios()));
  EXPECT_TRUE(std::ranges::equal(sequential.cellular(), classified.cellular()));
}

TEST(ClassifiedShardedSnapshot, GarbledShardSectionIsRejectedNotCrashed) {
  const core::ClassifiedSubnets& classified = TinyExperiment().classified;
  const std::vector<snapshot::Section> clean =
      snapshot::EncodeClassifiedSharded(classified, 8);

  // Destructive line-oriented damage to ONE shard's payload, several
  // seeds: whatever survives the framing must fail the per-entry
  // validation or the manifest cross-check — never crash, never decode
  // to silently different data.
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    for (const char* target : {"classified.ratios.3", "classified.cellular.2"}) {
      std::vector<snapshot::Section> damaged = clean;
      bool found = false;
      for (snapshot::Section& s : damaged) {
        if (s.name != target) continue;
        found = true;
        std::istringstream in(s.payload);
        std::ostringstream out;
        faultsim::StreamCorruptor corruptor(faultsim::FaultMix::Destructive(0.8), seed);
        corruptor.Corrupt(in, out);
        s.payload = out.str();
        ASSERT_NE(s.payload, clean[&s - damaged.data()].payload)
            << target << " seed " << seed;
      }
      ASSERT_TRUE(found) << target;
      EXPECT_THROW((void)snapshot::DecodeClassified(Image(damaged)), snapshot::SnapshotError)
          << target << " seed " << seed;
    }
  }
}

TEST(ClassifiedShardedSnapshot, ShardCountOfZeroOrImplausibleIsMalformed) {
  const core::ClassifiedSubnets& classified = TinyExperiment().classified;
  std::vector<snapshot::Section> sections =
      snapshot::EncodeClassifiedSharded(classified, 2);
  for (snapshot::Section& s : sections) {
    if (s.name == snapshot::kClassifiedShardsSection) s.payload[0] = '\0';  // shards=0
  }
  EXPECT_THROW((void)snapshot::DecodeClassified(Image(sections)), snapshot::SnapshotError);
}

TEST(ClassifiedShardedCache, CorruptedShardSectionQuarantinesAndRebuilds) {
  const analysis::Experiment& exp = TinyExperiment();
  const simnet::WorldConfig config = exp.world.config();
  const fs::path dir = fs::path(::testing::TempDir()) / "shardcache_corrupt";
  fs::remove_all(dir);
  snapshot::StageCache cache(dir);
  ASSERT_TRUE(cache.enabled());
  const fs::path path = cache.ClassifiedPath(config, {});
  exec::Executor ex(4);

  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    obs::MetricsRegistry::Global().ResetForTest();
    fs::remove(path.string() + ".corrupt");
    cache.StoreClassified(config, {}, exp.classified);
    ASSERT_TRUE(fs::exists(path));

    // Garble one shard section's payload of the stored layout and
    // re-frame the container, so the file-level CRC is valid and the
    // damage reaches the shard decoder itself.
    std::vector<snapshot::Section> sections = snapshot::EncodeClassified(exp.classified);
    bool damaged = false;
    for (snapshot::Section& s : sections) {
      if (s.name != "classified.ratios.1") continue;
      std::istringstream in(s.payload);
      std::ostringstream out;
      faultsim::StreamCorruptor corruptor(faultsim::FaultMix::Destructive(0.8), seed);
      corruptor.Corrupt(in, out);
      damaged = s.payload != out.str();
      s.payload = out.str();
    }
    ASSERT_TRUE(damaged) << "seed " << seed;
    snapshot::WriteSnapshotFile(path, sections);

    auto loaded = cache.TryLoadClassified(config, {}, &ex);
    EXPECT_FALSE(loaded.has_value()) << "seed " << seed;
    EXPECT_EQ(CounterValue("snapshot.miss"), 1u) << "seed " << seed;
    EXPECT_FALSE(fs::exists(path)) << "corrupt file must not stay in place";
    EXPECT_TRUE(fs::exists(path.string() + ".corrupt")) << "seed " << seed;

    // Rebuild: re-store and the warm path serves identical data again.
    cache.StoreClassified(config, {}, exp.classified);
    auto reloaded = cache.TryLoadClassified(config, {}, &ex);
    ASSERT_TRUE(reloaded.has_value()) << "seed " << seed;
    EXPECT_TRUE(std::ranges::equal(reloaded->ratios(), exp.classified.ratios()));
    EXPECT_TRUE(std::ranges::equal(reloaded->cellular(), exp.classified.cellular()));
  }
}

// ---------------------------------------------------------------------------
// Stream daemon export path.

const simnet::World& TinyWorld() {
  static const simnet::World world = simnet::World::Generate(simnet::WorldConfig::Tiny());
  return world;
}

std::string BeaconFrame(std::uint32_t subnet, std::uint32_t seq, std::uint64_t netinfo,
                        std::uint64_t cellular) {
  snapshot::StreamEvent e;
  e.kind = snapshot::EventKind::kBeacon;
  e.subnet = subnet;
  e.seq = seq;
  e.stats.hits = netinfo * 2;
  e.stats.netinfo_hits = netinfo;
  e.stats.cellular_labels = cellular;
  e.stats.wifi_labels = netinfo - cellular;
  e.stats.mobile_browser_hits = netinfo;
  return snapshot::EncodeEventFrame(e);
}

std::string DemandFrame(std::uint32_t subnet, std::uint32_t seq, double raw) {
  snapshot::StreamEvent e;
  e.kind = snapshot::EventKind::kDemand;
  e.subnet = subnet;
  e.seq = seq;
  e.demand_raw = raw;
  return snapshot::EncodeEventFrame(e);
}

/// Feed frames through the daemon with manual ticks, draining before
/// each push so nothing sheds inside the harness itself.
void Feed(stream::StreamDaemon& daemon, std::span<const std::string> frames) {
  for (const std::string& frame : frames) {
    while (daemon.queue().size() >= daemon.queue().capacity()) daemon.Tick();
    daemon.queue().Push(frame);
  }
  while (daemon.queue().size() > 0) daemon.Tick();
}

/// Items folded by the "aggregate.shard" spans since the last reset.
std::uint64_t FoldedItems() {
  std::uint64_t items = 0;
  for (const auto& s : obs::MetricsRegistry::Global().Snapshot().spans) {
    if (s.path.ends_with("aggregate.shard")) items += s.items;
  }
  return items;
}

/// The daemon's slot-built candidates against the sequential reference
/// over the daemon's own dataset exports, at 1, 2 and 8 threads. The
/// slot builder must also fold exactly the items the dataset builder
/// folds over those exports, including items that move no aggregate
/// (a hit-less beacon). Returns the reference.
std::vector<core::AsAggregate> ExpectExportMatchesReference(
    const stream::StreamDaemon& daemon, const std::string& label) {
  exec::Executor ref_ex(1);
  const core::ClassifiedSubnets classified = daemon.ExportClassified();
  const dataset::BeaconDataset beacons = daemon.ExportBeacons();
  const dataset::DemandDataset demand = daemon.ExportDemand();
  std::vector<core::AsAggregate> want = test_support::AggregateCandidateAsesSequential(
      TinyWorld().rib(), classified, beacons, demand, ref_ex);
  obs::MetricsRegistry::Global().ResetForTest();
  (void)core::AggregateCandidateAsesSharded(TinyWorld().rib(), classified, beacons, demand,
                                            ref_ex);
  const std::uint64_t dataset_items = FoldedItems();
  for (const unsigned threads : {1u, 2u, 8u}) {
    const std::string at = label + " threads=" + std::to_string(threads);
    exec::Executor ex(threads);
    obs::MetricsRegistry::Global().ResetForTest();
    ExpectBitIdentical(daemon.ExportCandidates(ex), want, at);
    EXPECT_EQ(FoldedItems(), dataset_items) << at;
  }
  return want;
}

const std::vector<std::string>& TinyFrames() {
  static const std::vector<std::string> frames =
      cdn::EventStreamGenerator(TinyWorld(), {.rounds = 4}).GenerateFrames();
  return frames;
}

// Every subnet restated once. Each thread count gets a fresh daemon, so
// the once-per-daemon origin resolution runs at 1, 2 and 8 threads too;
// after it, an export runs no LPM lookup.
TEST(StreamDaemonAggregation, ExportCandidatesMatchesBatchEngines) {
  const std::uint32_t subnets =
      static_cast<std::uint32_t>(TinyWorld().subnets().size());
  std::vector<std::string> frames;
  for (std::uint32_t s = 0; s < subnets; ++s) {
    frames.push_back(BeaconFrame(s, 1, /*netinfo=*/40, /*cellular=*/s % 3 ? 36 : 2));
    frames.push_back(DemandFrame(s, 1, /*raw=*/100.0 + s));
  }
  for (const unsigned threads : {1u, 2u, 8u}) {
    stream::StreamDaemon daemon(TinyWorld(), {}, {});
    Feed(daemon, frames);
    exec::Executor ex(threads);
    const auto via_daemon = daemon.ExportCandidates(ex);
    const auto batch = test_support::AggregateCandidateAsesSequential(
        TinyWorld().rib(), daemon.ExportClassified(), daemon.ExportBeacons(),
        daemon.ExportDemand(), ex);
    ASSERT_FALSE(via_daemon.empty());
    const std::string label = "daemon export threads=" + std::to_string(threads);
    ExpectBitIdentical(via_daemon, batch, label);

    const std::uint64_t lookups = CounterValue("lpm.lookup");
    ExpectBitIdentical(daemon.ExportCandidates(ex), batch, label + " second export");
    EXPECT_EQ(CounterValue("lpm.lookup"), lookups) << "a later export ran LPM lookups";
  }
}

// Mid-stream state: after each round of a 4-round stream, then at
// convergence, where the candidates also equal the batch pipeline's.
TEST(StreamDaemonAggregation, ExportCandidatesMatchesAfterEveryRound) {
  const std::vector<std::string>& frames = TinyFrames();
  const std::size_t per_round = frames.size() / 4;
  stream::StreamDaemon daemon(TinyWorld(), {}, {});
  std::vector<core::AsAggregate> last;
  for (std::size_t round = 0; round < 4; ++round) {
    Feed(daemon, std::span<const std::string>(frames).subspan(round * per_round, per_round));
    last = ExpectExportMatchesReference(daemon, "round " + std::to_string(round + 1));
    ASSERT_FALSE(last.empty()) << "round " << round + 1;
  }
  ExpectBitIdentical(last, TinyExperiment().candidates, "converged vs batch pipeline");
}

// Sheds, duplicates, corrupt frames and reordering before the protected
// final round: mid-stream state is whatever survived, then converged.
TEST(StreamDaemonAggregation, ExportCandidatesMatchesUnderFrameChaos) {
  const std::size_t final_begin =
      cdn::EventStreamGenerator(TinyWorld(), {.rounds = 4}).FinalRoundBegin(TinyFrames().size());
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    faultsim::FrameChaos chaos(
        {.corrupt = 0.1, .duplicate = 0.1, .drop = 0.1, .reorder_window = 8}, seed);
    const std::vector<std::string> frames = chaos.Run(TinyFrames(), final_begin);
    ASSERT_GT(chaos.stats().corrupted, 0u);
    ASSERT_GT(chaos.stats().dropped, 0u);
    const std::size_t final_count = TinyFrames().size() - final_begin;
    const std::span<const std::string> all(frames);
    stream::StreamDaemon daemon(TinyWorld(), {}, {});
    Feed(daemon, all.first(all.size() - final_count));
    EXPECT_GT(daemon.stats().corrupt, 0u);
    ExpectExportMatchesReference(daemon, "chaos seed " + std::to_string(seed) + " mid-stream");
    Feed(daemon, all.last(final_count));
    ExpectBitIdentical(ExpectExportMatchesReference(
                           daemon, "chaos seed " + std::to_string(seed) + " converged"),
                       TinyExperiment().candidates, "chaos converged vs batch pipeline");
  }
}

/// The first subnet of the world's first AS with at least `n` subnets,
/// so hand-made slots share one origin AS.
std::uint32_t FirstSubnetOfAnAsWith(std::uint32_t n) {
  const std::span<const simnet::Subnet> subnets = TinyWorld().subnets();
  std::uint32_t run = 0;
  for (std::uint32_t i = 0; i < subnets.size(); ++i) {
    run = i > 0 && subnets[i].asn == subnets[i - 1].asn ? run + 1 : 1;
    if (run == n) return i + 1 - n;
  }
  ADD_FAILURE() << "no AS with " << n << " subnets";
  return 0;
}

// One slot per edge case, all in one AS: a beacon without demand,
// demand without a beacon, a beacon frame with 0 hits, a block observed
// but not cellular, and one below min_netinfo_hits (5 here).
TEST(StreamDaemonAggregation, ExportCandidatesMatchesOnHandMadeSlots) {
  const std::uint32_t s = FirstSubnetOfAnAsWith(6);
  stream::StreamDaemon daemon(TinyWorld(), {.min_netinfo_hits = 5}, {});
  Feed(daemon, std::vector<std::string>{
                   BeaconFrame(s, 1, /*netinfo=*/40, /*cellular=*/38),  // cellular
                   DemandFrame(s, 1, 3.25),
                   BeaconFrame(s + 1, 1, 40, 39),  // beacon without demand
                   DemandFrame(s + 2, 1, 7.5),     // demand without beacon
                   BeaconFrame(s + 3, 1, 0, 0),    // 0 hits
                   DemandFrame(s + 3, 1, 1.0),
                   BeaconFrame(s + 4, 1, 40, 2),  // observed, not cellular
                   DemandFrame(s + 4, 1, 11.0),
                   BeaconFrame(s + 5, 1, 3, 3),  // below min_netinfo_hits
                   DemandFrame(s + 5, 1, 2.0),
               });
  const auto want = ExpectExportMatchesReference(daemon, "hand-made slots");
  ASSERT_EQ(want.size(), 1u);
  const core::AsAggregate& as = want[0];
  EXPECT_EQ(as.asn, TinyWorld().subnets()[s].asn);
  EXPECT_EQ(as.cell_blocks_v4 + as.cell_blocks_v6, 2u);
  EXPECT_EQ(as.observed_blocks_v4 + as.observed_blocks_v6, 3u);
  EXPECT_EQ(as.demand_blocks, 5u);
  EXPECT_EQ(as.beacon_hits, 80u + 80u + 0u + 80u + 6u);
  EXPECT_DOUBLE_EQ(as.total_demand_du, dataset::kTotalDemandUnits);
  EXPECT_GT(as.cell_demand_du, 0.0);
}

// All demand zero: the total is 0, so no normalisation applies.
TEST(StreamDaemonAggregation, ExportCandidatesMatchesWithAllZeroDemand) {
  const std::uint32_t s = FirstSubnetOfAnAsWith(3);
  stream::StreamDaemon daemon(TinyWorld(), {}, {});
  Feed(daemon, std::vector<std::string>{
                   BeaconFrame(s, 1, 40, 38),
                   DemandFrame(s, 1, 0.0),
                   BeaconFrame(s + 1, 1, 40, 1),
                   DemandFrame(s + 1, 1, 0.0),
                   DemandFrame(s + 2, 1, 0.0),
               });
  const auto want = ExpectExportMatchesReference(daemon, "all-zero demand");
  ASSERT_EQ(want.size(), 1u);
  EXPECT_EQ(want[0].demand_blocks, 3u);
  EXPECT_EQ(Bits(want[0].total_demand_du), Bits(0.0));
  EXPECT_EQ(Bits(want[0].cell_demand_du), Bits(0.0));
}

// Positional consumers at the edges: empty and one-row datasets, and
// the one batch origin lookup.

// Row spans cannot be taken from a temporary: the span would outlive
// the rows (a range-for over `Generate().rows()` reads freed memory).
template <typename T>
concept RowsOnTemporary = requires { std::declval<T>().rows(); };
template <typename T>
concept ClassifiedOnTemporary = requires { std::declval<T>().ratios(); } ||
                                requires { std::declval<T>().cellular(); };
static_assert(!RowsOnTemporary<dataset::BeaconDataset>);
static_assert(!RowsOnTemporary<dataset::DemandDataset>);
static_assert(!RowsOnTemporary<const dataset::BeaconDataset>);
static_assert(!ClassifiedOnTemporary<core::ClassifiedSubnets>);
static_assert(!ClassifiedOnTemporary<const core::ClassifiedSubnets>);
static_assert(RowsOnTemporary<const dataset::BeaconDataset&>);
static_assert(RowsOnTemporary<dataset::DemandDataset&>);
static_assert(ClassifiedOnTemporary<const core::ClassifiedSubnets&>);

constexpr unsigned kEdgeThreads[] = {1, 2, 8};

/// A RIB with one v4 and one v6 origin; 192.0.2.0/24 stays unrouted.
const asdb::RoutingTable& EdgeRib() {
  static const asdb::RoutingTable rib({{netaddr::Prefix::Parse("10.0.0.0/8"), 64500},
                                       {netaddr::Prefix::Parse("2001:db8::/32"), 64501}});
  return rib;
}

/// The sharded engine at 1, 2 and 8 threads and 1 and 8 shards against
/// the sequential reference; returns the reference.
std::vector<core::AsAggregate> ExpectAggregationMatchesReference(
    const core::ClassifiedSubnets& classified, const dataset::BeaconDataset& beacons,
    const dataset::DemandDataset& demand, const std::string& label) {
  exec::Executor ref_ex(1);
  const std::vector<core::AsAggregate> want = test_support::AggregateCandidateAsesSequential(
      EdgeRib(), classified, beacons, demand, ref_ex);
  for (const unsigned threads : kEdgeThreads) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
      exec::Executor ex(threads);
      ExpectBitIdentical(
          core::AggregateCandidateAsesSharded(EdgeRib(), classified, beacons, demand, ex,
                                              {.shards = shards}),
          want, label + " threads=" + std::to_string(threads));
    }
  }
  return want;
}

TEST(PositionalConsumers, ClassifyEmptyDataset) {
  const dataset::BeaconDataset beacons;
  for (const unsigned threads : kEdgeThreads) {
    exec::Executor ex(threads);
    const core::ClassifiedSubnets classified = core::SubnetClassifier().Classify(beacons, ex);
    EXPECT_TRUE(classified.ratios().empty()) << threads;
    EXPECT_TRUE(classified.cellular().empty()) << threads;
  }
}

TEST(PositionalConsumers, ClassifyOneRowDataset) {
  const netaddr::Prefix block = netaddr::Prefix::Parse("10.1.2.0/24");
  dataset::BeaconDataset beacons;
  beacons.Add(block, {.hits = 9, .netinfo_hits = 4, .cellular_labels = 3, .wifi_labels = 1});
  for (const unsigned threads : kEdgeThreads) {
    exec::Executor ex(threads);
    const core::ClassifiedSubnets classified = core::SubnetClassifier().Classify(beacons, ex);
    ASSERT_EQ(classified.ratios().size(), 1u) << threads;
    EXPECT_EQ(classified.ratios()[0].first, block);
    EXPECT_EQ(Bits(classified.ratios()[0].second), Bits(0.75));
    ASSERT_EQ(classified.cellular().size(), 1u) << threads;
    EXPECT_EQ(classified.cellular()[0], block);
  }
  // Below min_netinfo_hits the one row is unobserved.
  exec::Executor ex(2);
  const core::ClassifiedSubnets strict =
      core::SubnetClassifier({.min_netinfo_hits = 5}).Classify(beacons, ex);
  EXPECT_TRUE(strict.ratios().empty());
  EXPECT_TRUE(strict.cellular().empty());
}

TEST(PositionalConsumers, AggregateEmptyDatasets) {
  const dataset::BeaconDataset beacons;
  const dataset::DemandDataset demand;
  const core::ClassifiedSubnets classified;
  EXPECT_TRUE(ExpectAggregationMatchesReference(classified, beacons, demand, "empty").empty());
}

TEST(PositionalConsumers, AggregateOneBeaconRowWithoutDemand) {
  dataset::BeaconDataset beacons;
  beacons.Add(netaddr::Prefix::Parse("10.1.2.0/24"),
              {.hits = 7, .netinfo_hits = 4, .cellular_labels = 4});
  const dataset::DemandDataset demand;
  const core::ClassifiedSubnets classified = core::SubnetClassifier().Classify(beacons);
  const auto want = ExpectAggregationMatchesReference(classified, beacons, demand, "one row");
  ASSERT_EQ(want.size(), 1u);
  EXPECT_EQ(want[0].asn, 64500u);
  EXPECT_EQ(want[0].cell_blocks_v4, 1u);
  EXPECT_EQ(want[0].beacon_hits, 7u);
  EXPECT_EQ(want[0].demand_blocks, 0u);
  EXPECT_EQ(Bits(want[0].cell_demand_du), Bits(0.0));
}

TEST(PositionalConsumers, AggregateDemandOnlyRows) {
  dataset::DemandDataset demand;
  demand.Add(netaddr::Prefix::Parse("10.9.9.0/24"), 3.0);
  demand.Add(netaddr::Prefix::Parse("192.0.2.0/24"), 1.0);  // unrouted
  demand.Add(netaddr::Prefix::Parse("2001:db8:1::/48"), 2.0);
  demand.Add(netaddr::Prefix::Parse("10.9.8.0/24"), 0.25);
  const core::ClassifiedSubnets none;
  // No beacons: no cellular block, so no candidate.
  EXPECT_TRUE(
      ExpectAggregationMatchesReference(none, {}, demand, "demand only").empty());

  // One cellular beacon block in 64500: its demand-only blocks count
  // toward its total, the unrouted and v6 ones do not.
  dataset::BeaconDataset beacons;
  beacons.Add(netaddr::Prefix::Parse("10.1.2.0/24"),
              {.hits = 5, .netinfo_hits = 2, .cellular_labels = 2});
  const core::ClassifiedSubnets classified = core::SubnetClassifier().Classify(beacons);
  const auto want =
      ExpectAggregationMatchesReference(classified, beacons, demand, "demand-only rows");
  ASSERT_EQ(want.size(), 1u);
  EXPECT_EQ(want[0].demand_blocks, 2u);
  EXPECT_EQ(Bits(want[0].total_demand_du), Bits(3.25));
}

TEST(PositionalConsumers, ResolveOriginsMatchesOriginOfOnEveryRow) {
  const simnet::World& world = TinyExperiment().world;
  const auto subnets = world.subnets();
  ASSERT_FALSE(subnets.empty());
  // Routed subnet blocks alternate with unrouted addresses, so a row
  // resolved from its neighbour's address reads the wrong origin.
  const auto address_of = [&](std::size_t i) {
    return i % 2 == 0 ? subnets[(i / 2) % subnets.size()].block.address()
                      : netaddr::IpAddress::Parse("0.0.0." + std::to_string(i % 256));
  };
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, 2 * core::kResolveGrain + 1}) {
    for (const unsigned threads : kEdgeThreads) {
      exec::Executor ex(threads);
      const std::vector<asdb::AsNumber> origins =
          core::ResolveOrigins(world.rib(), n, address_of, ex);
      ASSERT_EQ(origins.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(origins[i], world.rib().OriginOf(address_of(i)).value_or(0))
            << "row " << i << " of " << n << " at " << threads << " threads";
      }
      if (n > 0) {
        EXPECT_NE(origins[0], 0u);
      }
    }
  }
}

}  // namespace
}  // namespace cellspot
