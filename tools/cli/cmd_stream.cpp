// stream: feed a chaos-prone event stream through the ingestion daemon,
// optionally checkpointing and verifying against the batch pipeline.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cellspot/analysis/pipeline.hpp"
#include "cellspot/cdn/event_stream.hpp"
#include "cellspot/core/as_pipeline.hpp"
#include "cellspot/core/classifier.hpp"
#include "cellspot/faultsim/frame_chaos.hpp"
#include "cellspot/simnet/world.hpp"
#include "cellspot/snapshot/serde.hpp"
#include "cellspot/snapshot/snapshot.hpp"
#include "cellspot/stream/daemon.hpp"
#include "cli/command.hpp"
#include "cli/exit_codes.hpp"
#include "cli/options.hpp"

namespace cellspot::cli {

namespace {

/// Field-exact equality: every count, every double bit for bit, and the
/// same cellular block lists.
bool SameCandidates(const std::vector<core::AsAggregate>& got,
                    const std::vector<core::AsAggregate>& want) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return std::equal(
      got.begin(), got.end(), want.begin(), want.end(),
      [&](const core::AsAggregate& g, const core::AsAggregate& w) {
        return g.asn == w.asn && g.cell_blocks_v4 == w.cell_blocks_v4 &&
               g.cell_blocks_v6 == w.cell_blocks_v6 &&
               g.observed_blocks_v4 == w.observed_blocks_v4 &&
               g.observed_blocks_v6 == w.observed_blocks_v6 &&
               g.demand_blocks == w.demand_blocks &&
               bits(g.cell_demand_du) == bits(w.cell_demand_du) &&
               bits(g.total_demand_du) == bits(w.total_demand_du) &&
               g.beacon_hits == w.beacon_hits && g.cellular_blocks == w.cellular_blocks;
      });
}

}  // namespace

int CmdStream(const Options& opts) {
  simnet::WorldConfig config =
      opts.Has("tiny") ? simnet::WorldConfig::Tiny()
                       : simnet::WorldConfig::Paper(opts.GetDouble("scale", 0.005));
  config.seed = opts.GetUint("seed", config.seed);

  stream::DaemonConfig daemon_config;
  daemon_config.queue_capacity =
      static_cast<std::size_t>(opts.GetUint("queue-capacity", 1024));
  const std::string policy_name = opts.GetOr("backpressure", "block");
  const auto policy = stream::ParseBackpressurePolicy(policy_name);
  if (!policy) {
    throw OptionError("--backpressure: expected block|shed-oldest|shed-newest, got '" +
                      policy_name + "'");
  }
  daemon_config.backpressure = *policy;
  daemon_config.checkpoint_interval_ticks = opts.GetUint("checkpoint-interval", 64);
  daemon_config.staleness_ticks = opts.GetUint("staleness-ticks", 8);
  daemon_config.max_events_per_tick =
      static_cast<std::size_t>(opts.GetUint("events-per-tick", 4096));

  cdn::EventStreamConfig stream_config;
  stream_config.rounds = static_cast<std::uint32_t>(opts.GetUint("rounds", 4));
  if (stream_config.rounds == 0) {
    throw OptionError("--rounds: expected a positive round count");
  }

  std::printf("building world (scale %.3g, seed %llu)...\n", config.scale,
              static_cast<unsigned long long>(config.seed));
  const simnet::World world = simnet::World::Generate(config);
  const cdn::EventStreamGenerator generator(world, stream_config);
  std::vector<std::string> frames = generator.GenerateFrames();
  const std::size_t final_round_begin = generator.FinalRoundBegin(frames.size());
  // Frames from here on restate exact totals; their count is stable
  // under chaos (the suffix is protected), and the producer delivers
  // them losslessly so every overload burst before them is healed.
  const std::size_t final_count = frames.size() - final_round_begin;

  const double chaos_rate = opts.GetDouble("chaos", 0.0);
  if (chaos_rate < 0.0 || chaos_rate > 1.0) {
    throw OptionError("--chaos: expected a fraction in [0,1]");
  }
  if (chaos_rate > 0.0) {
    faultsim::ChaosMix mix;
    mix.corrupt = mix.duplicate = mix.drop = chaos_rate / 3.0;
    mix.reorder_window = 8;
    faultsim::FrameChaos chaos(mix, opts.GetUint("chaos-seed", 42));
    // The final cumulative round is protected so the run still converges
    // — every injected fault before it must be healed, never fatal.
    frames = chaos.Run(frames, final_round_begin);
    std::printf("chaos: corrupted %llu, duplicated %llu, dropped %llu frames\n",
                static_cast<unsigned long long>(chaos.stats().corrupted),
                static_cast<unsigned long long>(chaos.stats().duplicated),
                static_cast<unsigned long long>(chaos.stats().dropped));
  }

  std::unique_ptr<stream::CheckpointStore> checkpoints;
  const std::string checkpoint_dir = opts.GetOr("checkpoint-dir", "");
  if (!checkpoint_dir.empty()) {
    checkpoints = std::make_unique<stream::CheckpointStore>(
        checkpoint_dir, stream::StreamDaemon::ConfigHash(config, {}));
  }

  stream::StreamDaemon daemon(world, {}, daemon_config, checkpoints.get());
  if (checkpoints && daemon.TryRestore()) {
    std::printf("restored checkpoint at tick %llu\n",
                static_cast<unsigned long long>(daemon.tick()));
  }

  std::printf(
      "streaming %zu frames (queue %zu, backpressure %s)...\n", frames.size(),
      daemon_config.queue_capacity,
      std::string(stream::BackpressurePolicyName(daemon_config.backpressure)).c_str());
  std::thread producer([&] {
    const std::size_t wait_from = frames.size() - final_count;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (i < wait_from) {
        daemon.queue().Push(std::move(frames[i]));  // sheddable burst
      } else {
        daemon.queue().PushWait(std::move(frames[i]));  // final round: lossless
      }
    }
    daemon.queue().Close();
  });
  daemon.RunUntilClosed();
  producer.join();

  const stream::DaemonStats& stats = daemon.stats();
  std::printf("ticks %llu | applied %llu, corrupt %llu, duplicate %llu, stale-seq %llu\n",
              static_cast<unsigned long long>(daemon.tick()),
              static_cast<unsigned long long>(stats.applied),
              static_cast<unsigned long long>(stats.corrupt),
              static_cast<unsigned long long>(stats.duplicate),
              static_cast<unsigned long long>(stats.stale_seq));
  std::printf("queue: pushed %llu, shed-oldest %llu, shed-newest %llu\n",
              static_cast<unsigned long long>(daemon.queue().pushed()),
              static_cast<unsigned long long>(daemon.queue().shed_oldest()),
              static_cast<unsigned long long>(daemon.queue().shed_newest()));

  const core::ClassifiedSubnets classified = daemon.ExportClassified();
  std::printf("classified: %zu observed blocks, %zu cellular\n",
              classified.ratios().size(), classified.cellular().size());

  if (opts.Has("verify")) {
    analysis::Pipeline pipeline({.world = config});
    const core::ClassifiedSubnets& batch = pipeline.Classify();
    const bool classified_ok =
        snapshot::EncodeSnapshot(snapshot::EncodeClassified(classified)) ==
        snapshot::EncodeSnapshot(snapshot::EncodeClassified(batch));
    const bool datasets_ok =
        snapshot::EncodeSnapshot(
            snapshot::EncodeDatasets(daemon.ExportBeacons(), daemon.ExportDemand())) ==
        snapshot::EncodeSnapshot(snapshot::EncodeDatasets(
            pipeline.experiment().beacons, pipeline.experiment().demand));
    const bool candidates_ok =
        SameCandidates(daemon.ExportCandidates(pipeline.executor()), pipeline.Aggregate());
    if (!classified_ok || !datasets_ok || !candidates_ok) {
      std::fprintf(stderr,
                   "verify: stream state DIVERGED from batch (classified %s, "
                   "datasets %s, candidates %s)\n",
                   classified_ok ? "ok" : "mismatch", datasets_ok ? "ok" : "mismatch",
                   candidates_ok ? "ok" : "mismatch");
      return kExitError;
    }
    std::printf("verify: stream state and candidate ASes identical to batch pipeline\n");
  }
  return kExitOk;
}

}  // namespace cellspot::cli
