// stream_ingest: the write path through `stream`. One producer thread
// pushes every frame of a 4-round stream into a daemon configured like
// `cellspot stream` (queue 1024, block backpressure, checkpoint every 64
// ticks), RunUntilClosed drains it; then the candidate-AS set is
// exported repeatedly from live state, and a fresh daemon restores the
// newest checkpoint. Under block backpressure a slow daemon receives
// frames more slowly, so frames/s is saturation throughput.
//
// Untimed checks per pass, as `cellspot stream --verify` makes them:
// exported datasets and classification byte-identical to the batch
// generators on the same world, candidates equal to batch aggregation,
// every frame applied, and the restored daemon equal to the live one.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <thread>

#include "cellspot/cdn/event_stream.hpp"
#include "cellspot/core/sharded_aggregation.hpp"
#include "cellspot/exec/executor.hpp"
#include "cellspot/snapshot/serde.hpp"
#include "cellspot/snapshot/snapshot.hpp"
#include "cellspot/stream/daemon.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace cellspot;

namespace {

constexpr int kMinPasses = 3;
// Nearest-rank p95 of 20 answers is the second largest, so one stray
// answer per pass does not set it; a run reports the median pass.
constexpr int kAnswersPerPass = 20;

stream::DaemonConfig CliDaemonConfig() {
  stream::DaemonConfig config;  // `cellspot stream` defaults
  config.queue_capacity = 1024;
  config.backpressure = stream::BackpressurePolicy::kBlock;
  config.checkpoint_interval_ticks = 64;
  return config;
}

std::string EncodedDatasets(const dataset::BeaconDataset& b, const dataset::DemandDataset& d) {
  return snapshot::EncodeSnapshot(snapshot::EncodeDatasets(b, d));
}

std::string EncodedClassified(const core::ClassifiedSubnets& c) {
  return snapshot::EncodeSnapshot(snapshot::EncodeClassified(c));
}

/// Every field of every candidate, doubles bit-exact.
std::string CandidateBytes(const std::vector<core::AsAggregate>& candidates) {
  std::string out;
  const auto put = [&out](const auto& v) {
    char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    out.append(bytes, sizeof v);
  };
  for (const core::AsAggregate& as : candidates) {
    put(as.asn);
    put(as.cell_blocks_v4);
    put(as.cell_blocks_v6);
    put(as.observed_blocks_v4);
    put(as.observed_blocks_v6);
    put(as.demand_blocks);
    put(as.cell_demand_du);
    put(as.total_demand_du);
    put(as.beacon_hits);
    for (const netaddr::Prefix& block : as.cellular_blocks) out += block.ToString() + ",";
    out += ";";
  }
  return out;
}

/// Built in set-up: the world, its frames, the compiled RIB LPM, and the
/// batch pipeline's outputs the stream must reproduce.
struct StreamInputs {
  simnet::World world;
  std::vector<std::string> frames;
  std::string batch_datasets;
  std::string batch_classified;
  std::string batch_candidates;
};

StreamInputs BuildInputs(const simnet::WorldConfig& config, exec::Executor& executor) {
  StreamInputs in;
  in.world = simnet::World::Generate(config, executor);
  in.frames = cdn::EventStreamGenerator(in.world, {.rounds = 4}).GenerateFrames(executor);
  (void)in.world.rib().Flat();
  const dataset::BeaconDataset beacons =
      cdn::BeaconGenerator(in.world).GenerateDataset(executor);
  const dataset::DemandDataset demand = cdn::DemandGenerator(in.world).GenerateDataset(executor);
  const core::ClassifiedSubnets classified =
      core::SubnetClassifier(core::ClassifierConfig{}).Classify(beacons, executor);
  in.batch_datasets = EncodedDatasets(beacons, demand);
  in.batch_classified = EncodedClassified(classified);
  in.batch_candidates = CandidateBytes(core::AggregateCandidateAsesSharded(
      in.world.rib(), classified, beacons, demand, executor, {}));
  return in;
}

struct CloseOnExit {
  stream::FrameQueue& queue;
  ~CloseOnExit() { queue.Close(); }
};

class StreamClient {
 public:
  StreamClient(const Options& opts, const simnet::WorldConfig& config,
               exec::Executor& executor, const StreamInputs& in, const fs::path& dir,
               Report& report)
      : opts_(opts),
        executor_(executor),
        in_(in),
        dir_(dir),
        config_hash_(stream::StreamDaemon::ConfigHash(config, {})),
        report_(report) {}

  /// One pass; its samples go to `samples`. Untraced, those are the
  /// end-to-end ones. With a tracer they are the layer ones: the
  /// benchmark then drives Tick() itself (the loop RunUntilClosed runs),
  /// timing each tick and each Push.
  void Run(Tracer* tracer, Samples& samples) {
    FreshDir(dir_);
    std::vector<std::string> frames = in_.frames;  // moved into the queue
    std::optional<Scope> root;
    if (tracer != nullptr) root.emplace(*tracer, "pass");
    const auto start = Clock::now();

    stream::CheckpointStore store(dir_, config_hash_);
    stream::StreamDaemon daemon(in_.world, {}, CliDaemonConfig(), &store);
    double producer_wait_ms = 0.0;
    {
      std::optional<Scope> ingest;
      if (tracer != nullptr) ingest.emplace(*tracer, "stream.ingest");
      std::jthread producer([&] {
        for (std::string& frame : frames) {
          if (tracer == nullptr) {
            daemon.queue().Push(std::move(frame));
            continue;
          }
          const auto push = Clock::now();
          daemon.queue().Push(std::move(frame));
          producer_wait_ms += MsSince(push);
        }
        daemon.queue().Close();
      });
      // Declared after the producer, so it runs first on the way out:
      // if the consumer throws, a closed queue releases a blocked Push.
      const CloseOnExit close{daemon.queue()};
      if (tracer == nullptr) {
        daemon.RunUntilClosed();
      } else {
        DriveTicks(daemon, *tracer, samples);
      }
      producer.join();
    }
    const double open_s = MsSince(start) / 1000.0;

    std::vector<core::AsAggregate> candidates;
    std::vector<double> answer_ms;
    for (int i = 0; i < kAnswersPerPass; ++i) {
      std::optional<Scope> span;
      if (tracer != nullptr) span.emplace(*tracer, "stream.export_candidates");
      const auto answer = Clock::now();
      std::vector<core::AsAggregate> result = daemon.ExportCandidates(executor_);
      answer_ms.push_back(MsSince(answer));
      span.reset();
      candidates = std::move(result);
    }

    const auto restore = Clock::now();
    std::optional<Scope> restore_span;
    if (tracer != nullptr) restore_span.emplace(*tracer, "stream.restore");
    stream::CheckpointStore cold_store(dir_, config_hash_);
    stream::StreamDaemon restored(in_.world, {}, CliDaemonConfig(), &cold_store);
    const bool restored_ok = restored.TryRestore();
    restore_span.reset();
    const double restore_ms = MsSince(restore);
    const double run_s = MsSince(start) / 1000.0;
    if (tracer == nullptr) {
      samples["run_s"].push_back(run_s);
      samples["open_s"].push_back(open_s);
      samples["ingest_items_per_s"].push_back(static_cast<double>(in_.frames.size()) / open_s);
      AddAnswerQuantiles(answer_ms, samples);
      Check(daemon, restored, restored_ok, candidates, true);
      return;
    }
    const int span = root->id();
    root.reset();
    samples["run_s"].push_back(tracer->spans()[static_cast<std::size_t>(span)].duration_ms() /
                               1000.0);
    samples["stream.producer_wait_ms"].push_back(producer_wait_ms);
    samples["stream.export_candidates_ms"].push_back(Median(answer_ms));
    samples["stream.restore_ms"].push_back(restore_ms);
    AddPassLayers(daemon, samples);
    Check(daemon, restored, restored_ok, candidates,
          AddCoverage(*tracer, span, samples, report_));
  }

 private:
  /// StreamDaemon::RunUntilClosed's loop, with each Tick() in a span.
  void DriveTicks(stream::StreamDaemon& daemon, Tracer& tracer, Samples& layers) {
    const auto tick = [&] {
      const Scope span(tracer, "stream.tick");
      const auto start = Clock::now();
      daemon.Tick();
      layers["tick_ms"].push_back(MsSince(start));
    };
    do {
      tick();
    } while (daemon.queue().WaitForFrame());
    tick();
    const Scope span(tracer, "stream.final_checkpoint");
    daemon.Checkpoint();
  }

  void AddPassLayers(const stream::StreamDaemon& daemon, Samples& layers) const {
    const stream::DaemonStats& s = daemon.stats();
    layers["stream.ticks"].push_back(static_cast<double>(daemon.tick()));
    layers["stream.frames_applied"].push_back(static_cast<double>(s.applied));
    layers["stream.frames_rejected"].push_back(
        static_cast<double>(s.corrupt + s.duplicate + s.stale_seq + s.bad_subnet));
    std::uint64_t newest = 0;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
      if (entry.path().extension() == ".ckpt") newest = std::max(newest, FileBytes(entry.path()));
    }
    layers["stream.checkpoint_bytes"].push_back(static_cast<double>(newest));
  }

  /// `covered` is a traced pass's span-coverage check.
  void Check(const stream::StreamDaemon& daemon, const stream::StreamDaemon& restored,
             bool restored_ok, const std::vector<core::AsAggregate>& candidates, bool covered) {
    ++passes_;
    std::string datasets = EncodedDatasets(daemon.ExportBeacons(), daemon.ExportDemand());
    if (opts_.inject_mismatch && passes_ == 1) datasets += "#";
    const std::string classified = EncodedClassified(daemon.ExportClassified());
    bool ok = report_.Expect(datasets == in_.batch_datasets,
                             "stream datasets differ from the batch generators'");
    ok = report_.Expect(classified == in_.batch_classified,
                        "stream classification differs from batch") && ok;
    ok = report_.Expect(CandidateBytes(candidates) == in_.batch_candidates,
                        "stream candidates differ from batch aggregation") && ok;
    ok = report_.Expect(daemon.stats().applied == in_.frames.size(),
                        "not every frame was applied") && ok;
    ok = report_.Expect(restored_ok && EncodedClassified(restored.ExportClassified()) == classified,
                        "restored daemon differs from the live one") && ok;
    report_.CountOps(in_.frames.size(), ok && covered);
  }

  const Options& opts_;
  exec::Executor& executor_;
  const StreamInputs& in_;
  fs::path dir_;
  std::uint64_t config_hash_;
  Report& report_;
  int passes_ = 0;
};

}  // namespace

Report RunStreamWorkload(const Options& opts) {
  Report report;
  exec::Executor& executor = exec::Executor::Shared();
  const simnet::WorldConfig config = opts.World(kStreamScale);
  const WorkDir work(opts);

  std::optional<StreamInputs> in;
  report.metrics["setup_s"] = TimedSetup([&](int) {
    in.reset();
    in = BuildInputs(config, executor);
  });
  std::printf("stream: %zu frames, %zu subnets\n", in->frames.size(),
              in->world.subnets().size());

  StreamClient client(opts, config, executor, *in, work.path() / "checkpoints", report);
  ResetPeakRss();
  Samples untraced;
  const double untraced_ms = opts.seconds * 1000.0 * (opts.trace ? 0.5 : 1.0);
  const int min_untraced = opts.trace ? 1 : kMinPasses;
  int passes = 0;
  for (const auto start = Clock::now(); passes < min_untraced || MsSince(start) < untraced_ms;
       ++passes) {
    client.Run(nullptr, untraced);
  }
  if (!opts.trace) {
    AddEndToEnd(untraced, report);
    std::printf("samples: %d passes of %d candidate exports each (answer_* per pass)\n", passes,
                kAnswersPerPass);
    return report;
  }

  Tracer tracer;
  Samples layers;
  int traced = 0;
  for (const auto start = Clock::now(); traced < 1 || MsSince(start) < untraced_ms; ++traced) {
    (void)Counted(executor.thread_count(), layers, [&] { client.Run(&tracer, layers); });
  }
  // Pooled over every tick of every traced pass; the Push wait is one
  // figure per pass.
  const std::vector<double> tick_ms = std::move(layers["tick_ms"]);
  layers.erase("tick_ms");
  FinishTrace(tracer, opts, untraced, std::move(layers), report);
  report.metrics["stream.tick_ms_p50"] = Quantile(tick_ms, 0.5);
  report.metrics["stream.tick_ms_p99"] = Quantile(tick_ms, 0.99);
  std::printf("samples: %d untraced passes, %d traced passes, %zu ticks\n", passes, traced,
              tick_ms.size());
  return report;
}

}  // namespace perfbench
