#include "cellspot/stream/daemon.hpp"

#include <cmath>
#include <iostream>
#include <limits>
#include <mutex>
#include <span>
#include <utility>

#include "cellspot/core/sharded_aggregation.hpp"
#include "cellspot/obs/metrics.hpp"
#include "cellspot/snapshot/binary_io.hpp"
#include "cellspot/snapshot/stage_cache.hpp"

namespace cellspot::stream {

namespace {

struct StreamCounters {
  obs::Counter& applied;
  obs::Counter& corrupt;
  obs::Counter& duplicate;
  obs::Counter& stale_seq;
  obs::Counter& bad_subnet;
  obs::Gauge& active;
  obs::Gauge& stale;
  obs::Gauge& expired;
  obs::Gauge& observed;
  obs::Gauge& cellular;

  static StreamCounters& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static StreamCounters c{
        reg.counter("stream.events.applied"),
        reg.counter("stream.events.corrupt"),
        reg.counter("stream.events.duplicate"),
        reg.counter("stream.events.stale_seq"),
        reg.counter("stream.events.bad_subnet"),
        reg.gauge("stream.subnets.active"),
        reg.gauge("stream.subnets.stale"),
        reg.gauge("stream.subnets.expired"),
        reg.gauge("stream.subnets.observed"),
        reg.gauge("stream.subnets.cellular"),
    };
    return c;
  }
};

}  // namespace

StreamDaemon::StreamDaemon(const simnet::World& world, core::ClassifierConfig classifier,
                           DaemonConfig config, CheckpointStore* checkpoints)
    : world_(world),
      classifier_(classifier),
      config_(config),
      checkpoints_(checkpoints),
      queue_(config.queue_capacity, config.backpressure),
      slots_(world.subnets().size()) {
  if (config_.max_events_per_tick == 0) config_.max_events_per_tick = 1;
  checkpoint_due_tick_ = config_.checkpoint_interval_ticks;
}

std::uint64_t StreamDaemon::ConfigHash(const simnet::WorldConfig& world,
                                       const core::ClassifierConfig& classifier) {
  return snapshot::ClassifiedKey(world, classifier);
}

void StreamDaemon::Reclassify(Slot& slot) {
  auto& c = StreamCounters::Get();
  const bool was_observed = slot.observed;
  const bool was_cellular = slot.cellular;
  slot.observed = slot.stats.netinfo_hits >= classifier_.config().min_netinfo_hits;
  slot.cellular = slot.observed && classifier_.IsCellular(slot.stats);
  if (slot.observed != was_observed) c.observed.Add(slot.observed ? 1.0 : -1.0);
  if (slot.cellular != was_cellular) c.cellular.Add(slot.cellular ? 1.0 : -1.0);
}

void StreamDaemon::Apply(const snapshot::StreamEvent& event) {
  auto& c = StreamCounters::Get();
  if (event.subnet >= slots_.size()) {
    ++stats_.bad_subnet;
    c.bad_subnet.Increment();
    return;
  }
  Slot& slot = slots_[event.subnet];
  std::uint32_t& seq =
      event.kind == snapshot::EventKind::kBeacon ? slot.beacon_seq : slot.demand_seq;
  if (event.seq == seq) {
    ++stats_.duplicate;
    c.duplicate.Increment();
    return;
  }
  if (event.seq < seq) {
    ++stats_.stale_seq;
    c.stale_seq.Increment();
    return;
  }
  seq = event.seq;
  if (event.kind == snapshot::EventKind::kBeacon) {
    slot.stats = event.stats;
    Reclassify(slot);
  } else {
    slot.demand_raw = event.demand_raw;
  }
  slot.last_update_tick = tick_;
  slot.liveness = SubnetLiveness::kActive;
  ++stats_.applied;
  c.applied.Increment();
}

void StreamDaemon::SweepStaleness() {
  auto& c = StreamCounters::Get();
  std::size_t active = 0, stale = 0, expired = 0;
  for (Slot& slot : slots_) {
    if (slot.liveness == SubnetLiveness::kNeverSeen) continue;
    const std::uint64_t quiet = tick_ - slot.last_update_tick;
    if (quiet >= config_.staleness_ticks + config_.expiry_ticks) {
      slot.liveness = SubnetLiveness::kExpired;
      ++expired;
    } else if (quiet >= config_.staleness_ticks) {
      slot.liveness = SubnetLiveness::kStale;
      ++stale;
    } else {
      slot.liveness = SubnetLiveness::kActive;
      ++active;
    }
  }
  c.active.Set(static_cast<double>(active));
  c.stale.Set(static_cast<double>(stale));
  c.expired.Set(static_cast<double>(expired));
}

void StreamDaemon::MaybeCheckpoint() {
  if (checkpoints_ == nullptr || config_.checkpoint_interval_ticks == 0) return;
  if (tick_ < checkpoint_due_tick_) return;
  if (Checkpoint()) {
    checkpoint_attempt_ = 0;
    checkpoint_due_tick_ = tick_ + config_.checkpoint_interval_ticks;
  } else {
    // Scheduled-retry shape: back off a deterministic number of ticks
    // before trying again, without stalling ingestion.
    const std::uint64_t delay = checkpoint_retry_.DelayTicks(checkpoint_attempt_);
    if (checkpoint_attempt_ + 1 < checkpoint_retry_.max_attempts) {
      ++checkpoint_attempt_;
      checkpoint_due_tick_ = tick_ + delay;
    } else {
      checkpoint_attempt_ = 0;
      checkpoint_due_tick_ = tick_ + config_.checkpoint_interval_ticks;
    }
  }
}

std::size_t StreamDaemon::Tick() {
  ++tick_;
  drain_buffer_.clear();
  queue_.DrainInto(drain_buffer_, config_.max_events_per_tick);
  std::size_t applied = 0;
  auto& c = StreamCounters::Get();
  for (const std::string& frame : drain_buffer_) {
    const std::optional<snapshot::StreamEvent> event = snapshot::DecodeEventFrame(frame);
    if (!event) {
      ++stats_.corrupt;
      c.corrupt.Increment();
      continue;
    }
    const std::uint64_t before = stats_.applied;
    Apply(*event);
    applied += stats_.applied - before;
  }
  SweepStaleness();
  MaybeCheckpoint();
  return applied;
}

void StreamDaemon::RunUntilClosed() {
  for (;;) {
    Tick();
    if (queue_.WaitForFrame()) continue;
    // Closed and drained: one final tick settles staleness, then a last
    // checkpoint captures the end state.
    Tick();
    if (checkpoints_ != nullptr && config_.checkpoint_interval_ticks != 0) {
      Checkpoint();
    }
    return;
  }
}

std::string StreamDaemon::EncodeState() const {
  snapshot::ByteWriter w;
  w.Varint(slots_.size());
  std::uint64_t populated = 0;
  for (const Slot& slot : slots_) {
    if (slot.liveness != SubnetLiveness::kNeverSeen) ++populated;
  }
  w.Varint(populated);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    if (slot.liveness == SubnetLiveness::kNeverSeen) continue;
    w.Varint(i);
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
    w.Varint(slot.last_update_tick);
  }
  return std::move(w).Take();
}

bool StreamDaemon::DecodeState(std::string_view payload) {
  // Accepts only what EncodeState writes: slot indices strictly
  // ascending, 32-bit seqs, and stats and demand the export paths take.
  std::vector<Slot> restored(slots_.size());
  try {
    snapshot::ByteReader r(payload);
    if (r.Varint() != slots_.size()) return false;  // different world shape
    const std::uint64_t populated = r.Varint();
    std::uint64_t next_index = 0;
    for (std::uint64_t n = 0; n < populated; ++n) {
      const std::uint64_t i = r.Varint();
      if (i < next_index || i >= restored.size()) return false;
      next_index = i + 1;
      Slot& slot = restored[i];
      const std::uint64_t beacon_seq = r.Varint();
      const std::uint64_t demand_seq = r.Varint();
      constexpr std::uint64_t kMaxSeq = std::numeric_limits<std::uint32_t>::max();
      if (beacon_seq > kMaxSeq || demand_seq > kMaxSeq) return false;
      slot.beacon_seq = static_cast<std::uint32_t>(beacon_seq);
      slot.demand_seq = static_cast<std::uint32_t>(demand_seq);
      slot.stats.hits = r.Varint();
      slot.stats.netinfo_hits = r.Varint();
      slot.stats.cellular_labels = r.Varint();
      slot.stats.wifi_labels = r.Varint();
      slot.stats.ethernet_labels = r.Varint();
      slot.stats.other_labels = r.Varint();
      slot.stats.mobile_browser_hits = r.Varint();
      slot.demand_raw = r.F64();
      slot.last_update_tick = r.Varint();
      if (!slot.stats.IsConsistent()) return false;
      if (!std::isfinite(slot.demand_raw) || slot.demand_raw < 0.0) return false;
      slot.liveness = SubnetLiveness::kActive;  // settled by the next sweep
    }
    r.ExpectEnd();
  } catch (const snapshot::SnapshotError&) {
    return false;
  }
  slots_ = std::move(restored);
  // Verdicts are recomputed, not trusted from disk: the classifier is
  // the single source of truth for what the stats imply.
  auto& c = StreamCounters::Get();
  std::size_t observed = 0, cellular = 0;
  for (Slot& slot : slots_) {
    slot.observed = slot.stats.netinfo_hits >= classifier_.config().min_netinfo_hits;
    slot.cellular = slot.observed && classifier_.IsCellular(slot.stats);
    observed += slot.observed ? 1 : 0;
    cellular += slot.cellular ? 1 : 0;
  }
  c.observed.Set(static_cast<double>(observed));
  c.cellular.Set(static_cast<double>(cellular));
  return true;
}

bool StreamDaemon::Checkpoint() {
  if (checkpoints_ == nullptr) return false;
  return checkpoints_->Save(tick_, EncodeState());
}

bool StreamDaemon::TryRestore() {
  if (checkpoints_ == nullptr) return false;
  std::optional<CheckpointStore::Loaded> loaded = checkpoints_->LoadLatest();
  if (!loaded) return false;
  if (!DecodeState(loaded->payload)) {
    obs::MetricsRegistry::Global().counter("stream.checkpoint.corrupt").Increment();
    std::cerr << "cellspot: checkpoint state payload does not match this world; "
                 "starting fresh\n";
    return false;
  }
  tick_ = loaded->tick;
  checkpoint_attempt_ = 0;
  checkpoint_due_tick_ = tick_ + config_.checkpoint_interval_ticks;
  SweepStaleness();
  return true;
}

dataset::BeaconDataset StreamDaemon::ExportBeacons() const {
  // Subnet-index order, skipping hit-less blocks: the exact insertion
  // sequence of cdn::BeaconGenerator::GenerateDataset.
  dataset::BeaconDataset out;
  const std::span<const simnet::Subnet> subnets = world_.subnets();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    if (slot.beacon_seq == 0 || slot.stats.hits == 0) continue;
    out.Add(subnets[i].block, slot.stats);
  }
  return out;
}

dataset::DemandDataset StreamDaemon::ExportDemand() const {
  dataset::DemandDataset out;
  const std::span<const simnet::Subnet> subnets = world_.subnets();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    if (slot.demand_seq == 0) continue;
    out.Add(subnets[i].block, slot.demand_raw);
  }
  out.Normalize();
  return out;
}

core::ClassifiedSubnets StreamDaemon::ExportClassified() const {
  core::ClassifiedSubnets out;
  const std::span<const simnet::Subnet> subnets = world_.subnets();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    if (slot.beacon_seq == 0 || slot.stats.hits == 0 || !slot.observed) continue;
    out.ratios_.Emplace(subnets[i].block, slot.stats.CellularRatio());
    if (slot.cellular) out.cellular_.Insert(subnets[i].block);
  }
  return out;
}

std::vector<core::AsAggregate> StreamDaemon::ExportCandidates(
    exec::Executor& executor) const {
  const std::span<const simnet::Subnet> subnets = world_.subnets();
  // The RIB never changes, so each subnet's origin is resolved once, by
  // the first export and on its executor.
  std::call_once(origins_once_, [&] {
    origins_ = core::ResolveOrigins(
        world_.rib(), subnets.size(), [&](std::size_t i) { return subnets[i].block.address(); },
        executor);
  });

  // DEMAND normalised as ExportDemand's Add + Normalize do it: by the
  // raw total summed in subnet order, when that total is positive.
  double raw_total = 0.0;
  for (const Slot& slot : slots_) {
    if (slot.demand_seq != 0) raw_total += slot.demand_raw;
  }
  const double factor = raw_total > 0.0 ? dataset::kTotalDemandUnits / raw_total : 1.0;
  const auto du_of = [factor](const Slot& slot) {
    return slot.demand_seq != 0 ? slot.demand_raw * factor : 0.0;
  };

  // Items in subnet order: ExportBeacons' and ExportDemand's insertion
  // order, and ExportClassified's verdicts.
  std::vector<core::BeaconItem> beacons;
  std::vector<core::DemandItem> demand;
  beacons.reserve(slots_.size());
  demand.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    if (slot.beacon_seq != 0 && slot.stats.hits != 0) {
      beacons.push_back({.block = &subnets[i].block,
                         .hits = slot.stats.hits,
                         .cell_demand_du = slot.cellular ? du_of(slot) : 0.0,
                         .origin = origins_[i],
                         .observed = slot.observed,
                         .cellular = slot.cellular});
    }
    if (slot.demand_seq != 0) demand.push_back({.du = du_of(slot), .origin = origins_[i]});
  }
  return core::AggregateCandidateItems(beacons, demand, executor);
}

SubnetLiveness StreamDaemon::liveness(std::uint32_t subnet) const {
  return subnet < slots_.size() ? slots_[subnet].liveness : SubnetLiveness::kNeverSeen;
}

std::size_t StreamDaemon::count_in(SubnetLiveness state) const {
  std::size_t n = 0;
  for (const Slot& slot : slots_) {
    if (slot.liveness == state) ++n;
  }
  return n;
}

}  // namespace cellspot::stream
