#include "cellspot/core/device_baseline.hpp"

#include <stdexcept>

namespace cellspot::core {

DeviceTypeClassifier::DeviceTypeClassifier(DeviceBaselineConfig config)
    : config_(config) {
  if (config_.threshold <= 0.0 || config_.threshold > 1.0) {
    throw std::invalid_argument("DeviceTypeClassifier: threshold must be in (0, 1]");
  }
  if (config_.min_hits == 0) {
    throw std::invalid_argument("DeviceTypeClassifier: min_hits must be >= 1");
  }
}

bool DeviceTypeClassifier::IsCellular(const dataset::BeaconBlockStats& stats) const noexcept {
  if (stats.hits < config_.min_hits) return false;
  return stats.MobileDeviceRatio() >= config_.threshold;
}

ClassifiedSubnets DeviceTypeClassifier::Classify(
    const dataset::BeaconDataset& beacons) const {
  ClassifiedSubnets out;
  for (const auto& [block, stats] : beacons.rows()) {
    if (stats.hits < config_.min_hits) continue;
    const double ratio = stats.MobileDeviceRatio();
    out.ratios_.Emplace(block, ratio);
    if (ratio >= config_.threshold) out.cellular_.Insert(block);
  }
  return out;
}

}  // namespace cellspot::core
