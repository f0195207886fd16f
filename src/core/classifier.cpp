#include "cellspot/core/classifier.hpp"

#include <stdexcept>
#include <vector>

#include "cellspot/exec/executor.hpp"
#include "cellspot/util/metrics.hpp"

namespace cellspot::core {

const double* ClassifiedSubnets::RatioOf(const netaddr::Prefix& block) const noexcept {
  return ratios_.Find(block);
}

bool ClassifiedSubnets::IsCellular(const netaddr::Prefix& block) const noexcept {
  return cellular_.Contains(block);
}

std::size_t ClassifiedSubnets::observed_count(netaddr::Family f) const noexcept {
  std::size_t n = 0;
  for (const auto& [block, ratio] : ratios_) {
    if (block.family() == f) ++n;
  }
  return n;
}

std::size_t ClassifiedSubnets::cellular_count(netaddr::Family f) const noexcept {
  std::size_t n = 0;
  for (const auto& block : cellular_) {
    if (block.family() == f) ++n;
  }
  return n;
}

SubnetClassifier::SubnetClassifier(ClassifierConfig config) : config_(config) {
  if (config_.threshold <= 0.0 || config_.threshold > 1.0) {
    throw std::invalid_argument("SubnetClassifier: threshold must be in (0, 1]");
  }
  if (config_.min_netinfo_hits == 0) {
    throw std::invalid_argument("SubnetClassifier: min_netinfo_hits must be >= 1");
  }
  if (config_.wilson_z < 0.0) {
    throw std::invalid_argument("SubnetClassifier: wilson_z must be non-negative");
  }
}

namespace {

double Score(const dataset::BeaconBlockStats& stats, const ClassifierConfig& config) {
  if (!config.use_wilson_lower_bound) return stats.CellularRatio();
  return util::WilsonScoreInterval(stats.cellular_labels, stats.netinfo_hits,
                                   config.wilson_z)
      .lower;
}

}  // namespace

bool SubnetClassifier::IsCellular(const dataset::BeaconBlockStats& stats) const noexcept {
  if (stats.netinfo_hits < config_.min_netinfo_hits) return false;
  return Score(stats, config_) >= config_.threshold;
}

ClassifiedSubnets SubnetClassifier::Classify(const dataset::BeaconDataset& beacons) const {
  return Classify(beacons, exec::Executor::Shared());
}

ClassifiedSubnets SubnetClassifier::Classify(const dataset::BeaconDataset& beacons,
                                             exec::Executor& executor) const {
  const auto rows = beacons.rows();
  struct Verdict {
    bool observed = false;
    bool cellular = false;
  };
  std::vector<Verdict> verdicts(rows.size());
  executor.ParallelFor(rows.size(), 4096, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const dataset::BeaconBlockStats& stats = rows[i].second;
      if (stats.netinfo_hits < config_.min_netinfo_hits) continue;
      verdicts[i].observed = true;
      verdicts[i].cellular = Score(stats, config_) >= config_.threshold;
    }
  });

  // Ordered merge in the dataset's row order, so the output containers
  // see the same insertion sequence as the sequential implementation.
  ClassifiedSubnets out;
  out.ratios_.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!verdicts[i].observed) continue;
    const auto& [block, stats] = rows[i];
    // The recorded ratio is always the point estimate (it feeds Fig 2);
    // only the decision uses the configured score.
    out.ratios_.Emplace(block, stats.CellularRatio());
    if (verdicts[i].cellular) out.cellular_.Insert(block);
  }
  return out;
}

}  // namespace cellspot::core
