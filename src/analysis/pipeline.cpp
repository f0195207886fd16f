#include "cellspot/analysis/pipeline.hpp"

#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "cellspot/core/sharded_aggregation.hpp"
#include "cellspot/exec/executor.hpp"
#include "cellspot/obs/trace.hpp"
#include "cellspot/snapshot/stage_cache.hpp"
#include "cellspot/util/parse.hpp"

namespace cellspot::analysis {

Pipeline::Pipeline(Config config) : Pipeline(std::move(config), exec::Executor::Shared()) {}

Pipeline::Pipeline(Config config, exec::Executor& executor)
    : config_(std::move(config)), executor_(&executor) {
  if (!config_.snapshot_dir.empty()) {
    cache_ = std::make_unique<snapshot::StageCache>(config_.snapshot_dir);
  }
}

Pipeline::Pipeline(Pipeline&&) noexcept = default;
Pipeline& Pipeline::operator=(Pipeline&&) noexcept = default;
Pipeline::~Pipeline() = default;

const simnet::World& Pipeline::BuildWorld() {
  if (!has_world_) {
    if (cache_) {
      if (auto world = cache_->TryLoadWorld(config_.world)) {
        exp_.world = std::move(*world);
        has_world_ = true;
        PrimeRibLpm();
        return exp_.world;
      }
    }
    {
      // Scoped so the compile_lpm span below is a top-level stage, not a
      // child nested under pipeline.build_world.
      obs::TraceSpan span("pipeline.build_world");
      exp_.world = simnet::World::Generate(config_.world, *executor_);
      has_world_ = true;
      span.set_items(exp_.world.subnets().size());
    }
    if (cache_) cache_->StoreWorld(exp_.world);
    PrimeRibLpm();
  }
  return exp_.world;
}

void Pipeline::PrimeRibLpm() {
  const asdb::RoutingTable& rib = exp_.world.rib();
  if (cache_) {
    if (auto flat = cache_->TryLoadLpm(config_.world)) {
      // Zero-copy engine straight off the mmap'd snapshot; AdoptFlat
      // rejects it (→ rebuild below) if it disagrees with the RIB.
      if (rib.AdoptFlat(std::move(*flat))) return;
    }
  }
  {
    // RoutingTable::Flat() nests its lpm.build span under this one.
    obs::TraceSpan span("pipeline.compile_lpm");
    span.set_items(rib.Flat().segment_count());
  }
  if (cache_) cache_->StoreLpm(config_.world, rib);
}

void Pipeline::GenerateDatasets() {
  if (has_datasets_) return;
  BuildWorld();
  if (cache_) {
    if (auto datasets = cache_->TryLoadDatasets(config_.world)) {
      exp_.beacons = std::move(datasets->first);
      exp_.demand = std::move(datasets->second);
      has_datasets_ = true;
      return;
    }
  }
  {
    // Scoped so the stage time leaves out the cache save, which is its
    // own root span (snapshot.save.datasets).
    obs::TraceSpan span("pipeline.generate_datasets");
    exp_.beacons = cdn::BeaconGenerator(exp_.world).GenerateDataset(*executor_);
    exp_.demand = cdn::DemandGenerator(exp_.world).GenerateDataset(*executor_);
    has_datasets_ = true;
    span.set_items(exp_.beacons.block_count() + exp_.demand.block_count());
  }
  if (cache_) cache_->StoreDatasets(config_.world, exp_.beacons, exp_.demand);
}

const core::ClassifiedSubnets& Pipeline::Classify() {
  if (!has_classified_) {
    GenerateDatasets();
    if (cache_) {
      if (auto classified =
              cache_->TryLoadClassified(config_.world, config_.classifier, executor_)) {
        exp_.classified = std::move(*classified);
        has_classified_ = true;
        return exp_.classified;
      }
    }
    {
      obs::TraceSpan span("pipeline.classify");
      const core::SubnetClassifier classifier(config_.classifier);
      exp_.classified = classifier.Classify(exp_.beacons, *executor_);
      has_classified_ = true;
      span.set_items(exp_.classified.ratios().size());
    }
    if (cache_) cache_->StoreClassified(config_.world, config_.classifier, exp_.classified);
  }
  return exp_.classified;
}

const std::vector<core::AsAggregate>& Pipeline::Aggregate() {
  if (!has_candidates_) {
    Classify();
    // The engine's "aggregate.shard" spans nest under this one when a
    // shard runs on the calling thread.
    obs::TraceSpan span("pipeline.aggregate");
    exp_.candidates = core::AggregateCandidateAsesSharded(
        exp_.world.rib(), exp_.classified, exp_.beacons, exp_.demand, *executor_);
    has_candidates_ = true;
    span.set_items(exp_.candidates.size());
  }
  return exp_.candidates;
}

const core::AsFilterOutcome& Pipeline::Filter() {
  if (!has_filtered_) {
    Aggregate();
    obs::TraceSpan span("pipeline.filter");
    exp_.filtered =
        core::ApplyAsFilters(exp_.candidates, exp_.world.as_db(), config_.filters);
    has_filtered_ = true;
    span.set_items(exp_.filtered.kept.size());
  }
  return exp_.filtered;
}

const Experiment& Pipeline::Run() {
  Filter();
  return exp_;
}

void Pipeline::set_classifier(const core::ClassifierConfig& classifier) {
  config_.classifier = classifier;
  has_classified_ = false;
  has_candidates_ = false;
  has_filtered_ = false;
  exp_.classified = {};
  exp_.candidates.clear();
  exp_.filtered = {};
}

void Pipeline::set_filters(const core::AsFilterConfig& filters) {
  config_.filters = filters;
  has_filtered_ = false;
  exp_.filtered = {};
}

double PaperScaleFromEnv(double fallback) {
  const char* env = std::getenv("CELLSPOT_SCALE");
  if (env == nullptr || *env == '\0') return fallback;
  const auto parsed = util::TryParseNumber<double>(env);
  if (!parsed || *parsed <= 0.0) {
    throw std::invalid_argument(
        std::string("CELLSPOT_SCALE: expected a positive number, got '") + env + "'");
  }
  return *parsed;
}

std::string SnapshotDirFromEnv() {
  const char* env = std::getenv("CELLSPOT_SNAPSHOT_DIR");
  return (env == nullptr) ? std::string() : std::string(env);
}

}  // namespace cellspot::analysis
