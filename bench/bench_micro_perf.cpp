// Microbenchmarks of the pipeline's hot paths (google-benchmark):
// routing-table build and longest-prefix match, block classification, beacon log
// parsing, per-block aggregate generation, and RNG seeding. These are not paper
// experiments; they bound the cost of scaling the world up.
#include <benchmark/benchmark.h>

#include <sstream>

#include "cellspot/cdn/beacon_generator.hpp"
#include "cellspot/cdn/beacon_log.hpp"
#include "cellspot/core/aggregation.hpp"
#include "cellspot/core/cellular_map.hpp"
#include "cellspot/core/classifier.hpp"
#include "cellspot/simnet/world.hpp"
#include "cellspot/util/rng.hpp"

namespace {

using namespace cellspot;

const simnet::World& TinyWorld() {
  static const simnet::World world = simnet::World::Generate(simnet::WorldConfig::Tiny());
  return world;
}

void BM_TrieLongestMatch(benchmark::State& state) {
  const auto& world = TinyWorld();
  std::vector<netaddr::IpAddress> probes;
  for (std::size_t i = 0; i < world.subnets().size(); i += 7) {
    probes.push_back(netaddr::NthAddress(world.subnets()[i].block, 99));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto origin = world.rib().OriginOf(probes[i]);
    benchmark::DoNotOptimize(origin);
    i = (i + 1) % probes.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrieLongestMatch);

void BM_RoutingTableBuild(benchmark::State& state) {
  // 256 /24 announcements in a scrambled order, so the constructor's
  // stable sort runs as on the cold path (a decoded table arrives
  // sorted and pays only the order check).
  std::vector<asdb::RoutingTable::Route> announcements;
  const auto parent = netaddr::Prefix::Parse("10.0.0.0/16");
  for (std::uint64_t i = 0; i < 256; ++i) {
    const std::uint64_t b = (i * 97) % 256;
    announcements.emplace_back(netaddr::NthBlock(parent, b), static_cast<asdb::AsNumber>(b + 1));
  }
  for (auto _ : state) {
    const asdb::RoutingTable rib(announcements);
    benchmark::DoNotOptimize(rib.entries().data());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_RoutingTableBuild);

void BM_ClassifyDataset(benchmark::State& state) {
  static const dataset::BeaconDataset beacons =
      cdn::BeaconGenerator(TinyWorld()).GenerateDataset();
  const core::SubnetClassifier classifier;
  for (auto _ : state) {
    auto out = classifier.Classify(beacons);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(beacons.block_count()));
}
BENCHMARK(BM_ClassifyDataset);

void BM_BeaconAggregateGeneration(benchmark::State& state) {
  const auto& world = TinyWorld();
  for (auto _ : state) {
    auto dataset = cdn::BeaconGenerator(world).GenerateDataset();
    benchmark::DoNotOptimize(dataset);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(world.subnets().size()));
}
BENCHMARK(BM_BeaconAggregateGeneration);

void BM_BeaconLogParse(benchmark::State& state) {
  // Pre-render a log chunk, then measure parse+aggregate throughput.
  std::string log_text;
  {
    std::ostringstream log;
    cdn::BeaconGenerator(TinyWorld()).StreamHits(
        [&](const netaddr::Prefix&, const cdn::BeaconHit& hit) {
          log << cdn::FormatBeaconLogLine(hit) << '\n';
        },
        20000);
    log_text = log.str();
  }
  std::uint64_t lines = 0;
  for (auto _ : state) {
    std::istringstream in(log_text);
    auto dataset = cdn::AggregateBeaconLog(in);
    lines += dataset.total_hits();
    benchmark::DoNotOptimize(dataset);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(lines));
}
BENCHMARK(BM_BeaconLogParse);

void BM_CompressPrefixes(benchmark::State& state) {
  // Compress a realistic detected set: the Tiny world's cellular map.
  static const std::vector<netaddr::Prefix> blocks = [] {
    const auto beacons = cdn::BeaconGenerator(TinyWorld()).GenerateDataset();
    const auto classified = core::SubnetClassifier().Classify(beacons);
    return std::vector<netaddr::Prefix>(classified.cellular().begin(),
                                        classified.cellular().end());
  }();
  for (auto _ : state) {
    auto out = core::CompressPrefixes(blocks);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(blocks.size()));
}
BENCHMARK(BM_CompressPrefixes);

void BM_CellularMapLookup(benchmark::State& state) {
  static const core::CellularMap map = [] {
    const auto beacons = cdn::BeaconGenerator(TinyWorld()).GenerateDataset();
    return core::CellularMap::FromClassification(
        core::SubnetClassifier().Classify(beacons));
  }();
  std::vector<netaddr::IpAddress> probes;
  for (std::size_t i = 0; i < TinyWorld().subnets().size(); i += 11) {
    probes.push_back(netaddr::NthAddress(TinyWorld().subnets()[i].block, 42));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Contains(probes[i]));
    i = (i + 1) % probes.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CellularMapLookup);

void BM_WorldGeneration(benchmark::State& state) {
  const auto config = simnet::WorldConfig::Tiny();
  for (auto _ : state) {
    auto world = simnet::World::Generate(config);
    benchmark::DoNotOptimize(world);
  }
}
BENCHMARK(BM_WorldGeneration)->Unit(benchmark::kMillisecond);

// The dataset generators seed one util::Rng per subnet and draw from it:
// this is that construction plus a first draw.
void BM_RngConstructAndDraw(benchmark::State& state) {
  std::uint64_t seed = 20161224;
  for (auto _ : state) {
    util::Rng rng(seed++);
    benchmark::DoNotOptimize(rng.UniformDouble());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngConstructAndDraw);

// The sequential prepass behind every parallel generator: one fork seed
// per subnet, one engine step each.
void BM_RngForkSeed(benchmark::State& state) {
  util::Rng rng(20161224);
  std::uint64_t stream = 0;
  for (auto _ : state) benchmark::DoNotOptimize(rng.ForkSeed(stream++));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngForkSeed);

}  // namespace

BENCHMARK_MAIN();
