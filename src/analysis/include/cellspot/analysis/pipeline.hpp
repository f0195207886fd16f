// Staged pipeline API over the paper's end-to-end flow:
//
//   BuildWorld -> GenerateDatasets -> Classify -> Aggregate -> Filter
//
// Each stage runs its prerequisites on demand, caches its result and
// traces itself as a "pipeline.<stage>" obs::TraceSpan carrying its
// item count (the span rows of obs::MetricsRegistry::Global()). The span
// covers the computation only: saving the output to the snapshot cache
// is its own root "snapshot.save.<artifact>" span. Later
// stages can be re-run with a different configuration without
// rebuilding the earlier ones — the threshold/filter ablation benches
// re-classify one world dozens of times instead of regenerating it per
// variant.
//
// Every stage executes on the pipeline's executor and produces output
// byte-identical at any thread count (see DESIGN.md: per-shard RNG
// streams are precomputed sequentially and all order-sensitive work
// happens in ordered sequential merges).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cellspot/analysis/experiment.hpp"

namespace cellspot::exec {
class Executor;
}

namespace cellspot::snapshot {
class StageCache;
}

namespace cellspot::analysis {

class Pipeline {
 public:
  struct Config {
    simnet::WorldConfig world = {};
    core::ClassifierConfig classifier = {};
    core::AsFilterConfig filters = {};
    /// When non-empty, stage outputs are cached as binary snapshots in
    /// this directory (see src/snapshot): each stage probes the cache
    /// before computing and a hit skips the stage entirely — no
    /// pipeline.<stage> span, byte-identical results. Corrupt or stale
    /// snapshots are quarantined and the stage recomputes.
    std::string snapshot_dir = {};
  };

  /// Uses the shared process-wide executor.
  explicit Pipeline(Config config);
  Pipeline(Config config, exec::Executor& executor);
  Pipeline(Pipeline&&) noexcept;
  Pipeline& operator=(Pipeline&&) noexcept;
  ~Pipeline();

  // ---- stages ----------------------------------------------------------

  /// Stage 1: generate the synthetic world.
  const simnet::World& BuildWorld();

  /// Stage 2: BEACON and DEMAND datasets from the world.
  void GenerateDatasets();

  /// Stage 3: per-block classification.
  const core::ClassifiedSubnets& Classify();

  /// Stage 4: candidate AS aggregation (the §5 straw-man set).
  const std::vector<core::AsAggregate>& Aggregate();

  /// Stage 5: Table-5 filter heuristics.
  const core::AsFilterOutcome& Filter();

  /// Run every remaining stage.
  const Experiment& Run();

  // ---- re-running stages -----------------------------------------------

  /// Replace the classifier config; invalidates Classify and everything
  /// after it (the world and datasets are kept).
  void set_classifier(const core::ClassifierConfig& classifier);

  /// Replace the filter config; invalidates only Filter.
  void set_filters(const core::AsFilterConfig& filters);

  // ---- results ---------------------------------------------------------

  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] exec::Executor& executor() const noexcept { return *executor_; }

  /// Results so far (stages that have not run hold default values).
  [[nodiscard]] const Experiment& experiment() const noexcept { return exp_; }

  /// Move the accumulated results out; the pipeline must not be used
  /// afterwards.
  [[nodiscard]] Experiment TakeExperiment() && { return std::move(exp_); }

 private:
  /// Give the world's RIB its compiled LPM engine: adopt the mmap-served
  /// cache entry when one matches (warm start — no build at all), else
  /// compile it now (traced as stage "compile_lpm") and cache it.
  void PrimeRibLpm();

  Config config_;
  exec::Executor* executor_;
  std::unique_ptr<snapshot::StageCache> cache_;  // null = caching disabled
  Experiment exp_;
  bool has_world_ = false;
  bool has_datasets_ = false;
  bool has_classified_ = false;
  bool has_candidates_ = false;
  bool has_filtered_ = false;
};

/// Scale for the shared paper experiment: CELLSPOT_SCALE if set, else
/// `fallback`. Throws std::invalid_argument when the variable is set to
/// anything but a positive number.
[[nodiscard]] double PaperScaleFromEnv(double fallback);

/// Snapshot-cache directory for pipelines that honour the environment:
/// CELLSPOT_SNAPSHOT_DIR if set and non-empty, else "" (caching off).
[[nodiscard]] std::string SnapshotDirFromEnv();

}  // namespace cellspot::analysis
