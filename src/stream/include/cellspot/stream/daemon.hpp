// The streaming ingestion daemon: the online counterpart of the batch
// analysis::Pipeline.
//
// The daemon drains CRC-checked frames from a bounded FrameQueue on a
// deterministic logical-tick loop (no wall clocks anywhere — time is
// whoever calls Tick()), keeps one slot of cumulative state per World
// subnet, and re-classifies a slot incrementally the moment a beacon
// frame lands on it. Because events restate cumulative state (see
// event.hpp), the daemon converges to *byte-identical* exports versus
// the batch pipeline once each subnet's final frame has been applied —
// regardless of sheds, duplicates, reordering, corruption, thread
// count, or a mid-run kill+recover from a checkpoint.
//
// Per-subnet staleness mirrors sACN source-loss detection: a slot that
// stops receiving frames walks active → stale → expired on tick
// boundaries. Unlike sACN we never discard an expired slot's aggregates
// — the batch pipeline has no notion of loss, and convergence requires
// retaining last-known state — so expiry is an observability signal
// (stream.subnets.{active,stale,expired} gauges), not an eviction.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cellspot/core/as_pipeline.hpp"
#include "cellspot/core/classifier.hpp"
#include "cellspot/dataset/beacon_dataset.hpp"
#include "cellspot/dataset/demand_dataset.hpp"
#include "cellspot/simnet/world.hpp"
#include "cellspot/stream/bounded_queue.hpp"
#include "cellspot/stream/checkpoint.hpp"
#include "cellspot/snapshot/event_frame.hpp"
#include "cellspot/util/retry.hpp"

namespace cellspot::stream {

/// Where a subnet sits in the source-loss state machine.
enum class SubnetLiveness : std::uint8_t {
  kNeverSeen = 0,  // no frame applied yet
  kActive = 1,
  kStale = 2,    // quiet for >= staleness_ticks
  kExpired = 3,  // quiet for >= staleness_ticks + expiry_ticks
};

struct DaemonConfig {
  std::size_t queue_capacity = 1024;
  BackpressurePolicy backpressure = BackpressurePolicy::kShedNewest;

  /// Checkpoint every N ticks (0 disables; needs a CheckpointStore).
  std::uint64_t checkpoint_interval_ticks = 0;

  /// Ticks without a frame before a subnet turns stale, and further
  /// ticks before it expires.
  std::uint64_t staleness_ticks = 8;
  std::uint64_t expiry_ticks = 24;

  /// Frames drained per Tick() — the backpressure knob on the consumer
  /// side (a small budget plus a small queue is how tests force sheds).
  std::size_t max_events_per_tick = 4096;
};

/// Counters for one daemon run (process-wide mirrors live in obs under
/// stream.*; these are per-instance and therefore test-friendly).
struct DaemonStats {
  std::uint64_t applied = 0;
  std::uint64_t corrupt = 0;     // frames DecodeEventFrame rejected
  std::uint64_t duplicate = 0;   // seq == already-applied seq
  std::uint64_t stale_seq = 0;   // seq < already-applied seq (reorder)
  std::uint64_t bad_subnet = 0;  // subnet index out of range
};

class StreamDaemon {
 public:
  /// `world` outlives the daemon. `checkpoints` may be null (no
  /// checkpointing); it also may outlive restores — TryRestore reads
  /// from the same store Save writes to.
  StreamDaemon(const simnet::World& world, core::ClassifierConfig classifier,
               DaemonConfig config, CheckpointStore* checkpoints = nullptr);

  /// The ingress queue producers push encoded frames into.
  [[nodiscard]] FrameQueue& queue() noexcept { return queue_; }

  /// One deterministic step: drain up to max_events_per_tick frames,
  /// apply each (decode, dedup by seq, update slot, re-classify),
  /// advance the staleness machines, and checkpoint when due. Returns
  /// the number of frames applied.
  std::size_t Tick();

  /// Drive Tick() until the queue is closed and drained, blocking
  /// between ticks while the queue is empty. Exports depend only on
  /// final cumulative state, so this is safe with a concurrent
  /// producer; fully deterministic tick *boundaries* (checkpoint
  /// timing, staleness) require driving Tick() manually.
  void RunUntilClosed();

  /// Restore state from the newest usable checkpoint. Returns true and
  /// resumes at the checkpoint's tick on success; leaves the daemon
  /// untouched when no usable checkpoint exists. Never throws.
  bool TryRestore();

  /// Force a checkpoint now (also taken by RunUntilClosed on shutdown).
  bool Checkpoint();

  // -- Exports: byte-identical to the batch pipeline once converged. --

  /// BEACON aggregates in subnet-index order, skipping hit-less blocks
  /// — the exact insertion order of cdn::BeaconGenerator.
  [[nodiscard]] dataset::BeaconDataset ExportBeacons() const;

  /// DEMAND, normalised once at export from cumulative raw values —
  /// the exact result of cdn::DemandGenerator::GenerateDataset.
  [[nodiscard]] dataset::DemandDataset ExportDemand() const;

  /// Classification assembled from the incrementally-maintained
  /// verdicts — the exact result of core::SubnetClassifier::Classify.
  [[nodiscard]] core::ClassifiedSubnets ExportClassified() const;

  /// The §5 candidate-AS set over the daemon's current cumulative
  /// state: the slots, walked in subnet order, folded by the
  /// aggregation engine (core::AggregateCandidateItems). The first call
  /// resolves every subnet's origin AS against the world's RIB on
  /// `executor`; later calls run no lookup. Byte-identical to running
  /// the batch pipeline's Aggregate stage on this daemon's exports — at
  /// any thread count.
  [[nodiscard]] std::vector<core::AsAggregate> ExportCandidates(
      exec::Executor& executor) const;

  [[nodiscard]] std::uint64_t tick() const noexcept { return tick_; }
  [[nodiscard]] const DaemonStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const DaemonConfig& config() const noexcept { return config_; }
  [[nodiscard]] SubnetLiveness liveness(std::uint32_t subnet) const;
  [[nodiscard]] std::size_t count_in(SubnetLiveness state) const;

  /// Hash keying checkpoint compatibility: the stage cache's classified
  /// key (snapshot::ClassifiedKey), over the format and RNG stream
  /// versions and the world and classifier configs.
  [[nodiscard]] static std::uint64_t ConfigHash(const simnet::WorldConfig& world,
                                               const core::ClassifierConfig& classifier);

 private:
  struct Slot {
    dataset::BeaconBlockStats stats;  // latest cumulative beacon state
    double demand_raw = 0.0;          // latest cumulative raw demand
    std::uint32_t beacon_seq = 0;     // 0 = none applied yet
    std::uint32_t demand_seq = 0;
    std::uint64_t last_update_tick = 0;
    SubnetLiveness liveness = SubnetLiveness::kNeverSeen;
    bool observed = false;  // enough netinfo hits to classify
    bool cellular = false;  // current incremental verdict
  };

  void Apply(const snapshot::StreamEvent& event);
  void Reclassify(Slot& slot);
  void SweepStaleness();
  void MaybeCheckpoint();
  [[nodiscard]] std::string EncodeState() const;
  bool DecodeState(std::string_view payload);

  const simnet::World& world_;
  core::SubnetClassifier classifier_;
  DaemonConfig config_;
  CheckpointStore* checkpoints_;
  FrameQueue queue_;
  std::vector<Slot> slots_;
  std::vector<std::string> drain_buffer_;
  // Origin AS of every subnet's block, resolved by the first export.
  mutable std::once_flag origins_once_;
  mutable std::vector<asdb::AsNumber> origins_;
  std::uint64_t tick_ = 0;
  DaemonStats stats_;

  // Scheduled-retry state for failed checkpoint writes: the next
  // attempt is delayed DelayTicks(attempt) logical ticks.
  util::RetryPolicy checkpoint_retry_{.max_attempts = 4};
  std::uint32_t checkpoint_attempt_ = 0;
  std::uint64_t checkpoint_due_tick_ = 0;
};

}  // namespace cellspot::stream
