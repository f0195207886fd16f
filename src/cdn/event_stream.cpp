#include "cellspot/cdn/event_stream.hpp"

#include <stdexcept>

#include "cellspot/cdn/beacon_generator.hpp"
#include "cellspot/cdn/demand_generator.hpp"
#include "cellspot/dataset/beacon_dataset.hpp"
#include "cellspot/dataset/demand_dataset.hpp"
#include "cellspot/exec/executor.hpp"
#include "cellspot/snapshot/event_frame.hpp"

namespace cellspot::cdn {

namespace {

/// Cumulative value of an integer field at round r of R: floor-scaled
/// mid-stream, exact on the final round (r == R-1 gives v * R / R == v).
std::uint64_t CumulativeAt(std::uint64_t v, std::uint32_t r, std::uint32_t rounds) {
  return v * (r + 1) / rounds;
}

}  // namespace

EventStreamGenerator::EventStreamGenerator(const simnet::World& world,
                                           EventStreamConfig config)
    : world_(world), config_(config) {
  if (config_.rounds == 0) {
    throw std::invalid_argument("EventStreamGenerator: rounds must be >= 1");
  }
}

std::size_t EventStreamGenerator::FinalRoundBegin(std::size_t total_frames) const noexcept {
  // Every round emits the same frame set, so the final round is the
  // last total/rounds frames.
  return total_frames - total_frames / config_.rounds;
}

std::vector<std::string> EventStreamGenerator::GenerateFrames() const {
  return GenerateFrames(exec::Executor::Shared());
}

std::vector<std::string> EventStreamGenerator::GenerateFrames(
    exec::Executor& executor) const {
  const dataset::BeaconDataset beacons =
      BeaconGenerator(world_).GenerateDataset(executor);
  const dataset::DemandDataset demand =
      DemandGenerator(world_).GenerateRawDataset(executor);

  // Final per-subnet-index state. Blocks are unique per subnet, so the
  // dataset lookups are one-to-one.
  const std::span<const simnet::Subnet> subnets = world_.subnets();
  struct Final {
    std::uint32_t subnet = 0;
    const dataset::BeaconBlockStats* stats = nullptr;  // null = no beacon frame
    bool has_demand = false;
    double demand_raw = 0.0;
  };
  std::vector<Final> finals;
  finals.reserve(subnets.size());
  for (std::size_t i = 0; i < subnets.size(); ++i) {
    Final f;
    f.subnet = static_cast<std::uint32_t>(i);
    f.stats = beacons.Find(subnets[i].block);
    if (subnets[i].demand_du > 0.0 && subnets[i].in_demand_snapshot) {
      f.has_demand = true;
      f.demand_raw = demand.DemandOf(subnets[i].block);
    }
    if (f.stats != nullptr || f.has_demand) finals.push_back(f);
  }

  std::vector<std::string> frames;
  frames.reserve(finals.size() * config_.rounds * 2);
  for (std::uint32_t r = 0; r < config_.rounds; ++r) {
    const bool last = r + 1 == config_.rounds;
    for (const Final& f : finals) {
      if (f.stats != nullptr) {
        snapshot::StreamEvent e;
        e.kind = snapshot::EventKind::kBeacon;
        e.subnet = f.subnet;
        e.seq = r + 1;
        e.stats.hits = CumulativeAt(f.stats->hits, r, config_.rounds);
        e.stats.netinfo_hits = CumulativeAt(f.stats->netinfo_hits, r, config_.rounds);
        e.stats.cellular_labels =
            CumulativeAt(f.stats->cellular_labels, r, config_.rounds);
        e.stats.wifi_labels = CumulativeAt(f.stats->wifi_labels, r, config_.rounds);
        e.stats.ethernet_labels =
            CumulativeAt(f.stats->ethernet_labels, r, config_.rounds);
        e.stats.other_labels = CumulativeAt(f.stats->other_labels, r, config_.rounds);
        e.stats.mobile_browser_hits =
            CumulativeAt(f.stats->mobile_browser_hits, r, config_.rounds);
        frames.push_back(snapshot::EncodeEventFrame(e));
      }
      if (f.has_demand) {
        snapshot::StreamEvent e;
        e.kind = snapshot::EventKind::kDemand;
        e.subnet = f.subnet;
        e.seq = r + 1;
        // Mid-stream rounds scale the total; the last round restates it
        // exactly (double division would not round-trip).
        e.demand_raw = last ? f.demand_raw
                            : f.demand_raw * (static_cast<double>(r) + 1.0) /
                                  static_cast<double>(config_.rounds);
        frames.push_back(snapshot::EncodeEventFrame(e));
      }
    }
  }
  return frames;
}

}  // namespace cellspot::cdn
