// Cellular subnet identification (§4.1): compute the per-block cellular
// ratio from Network-Information-labelled beacon hits and classify each
// /24 and /48 with a threshold (0.5 by default, chosen in §4.2).
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "cellspot/dataset/beacon_dataset.hpp"
#include "cellspot/netaddr/prefix.hpp"
#include "cellspot/util/stable_map.hpp"

namespace cellspot::exec {
class Executor;
}

namespace cellspot::snapshot {
struct Access;
}

namespace cellspot::stream {
class StreamDaemon;
}

namespace cellspot::core {

struct ClassifierConfig {
  /// A block is cellular when cellular_labels / netinfo_hits >= threshold.
  double threshold = 0.5;

  /// Blocks with fewer API-enabled hits than this cannot be classified
  /// (they stay "unobserved" and default to non-cellular downstream).
  std::uint64_t min_netinfo_hits = 1;

  /// Compare the Wilson-score *lower bound* of the cellular ratio against
  /// the threshold instead of the point estimate — a conservative variant
  /// that refuses to call a block cellular on one or two lucky labels.
  bool use_wilson_lower_bound = false;

  /// Confidence for the Wilson bound (1.96 ~ 95%).
  double wilson_z = 1.96;
};

/// Classification output over one BEACON dataset.
class ClassifiedSubnets {
 public:
  /// Ratio for an observed block (nullopt semantics via found pointer).
  [[nodiscard]] const double* RatioOf(const netaddr::Prefix& block) const noexcept;

  /// True if the block was observed and classified cellular.
  [[nodiscard]] bool IsCellular(const netaddr::Prefix& block) const noexcept;

  /// Per-block (block, ratio) rows and the cellular blocks, each in the
  /// beacon dataset's row order (stable across snapshot save/load). Like
  /// the datasets' rows(), neither can be taken from a temporary.
  [[nodiscard]] std::span<const std::pair<netaddr::Prefix, double>> ratios() const& noexcept {
    return ratios_.entries();
  }
  void ratios() const&& = delete;
  [[nodiscard]] std::span<const netaddr::Prefix> cellular() const& noexcept {
    return cellular_.entries();
  }
  void cellular() const&& = delete;

  [[nodiscard]] std::size_t observed_count(netaddr::Family f) const noexcept;
  [[nodiscard]] std::size_t cellular_count(netaddr::Family f) const noexcept;

 private:
  friend class SubnetClassifier;
  friend class DeviceTypeClassifier;
  friend struct snapshot::Access;
  // The streaming daemon assembles ClassifiedSubnets from its
  // incrementally-maintained per-slot verdicts (see stream/daemon.hpp).
  friend class stream::StreamDaemon;
  util::StableMap<netaddr::Prefix, double> ratios_;
  util::StableSet<netaddr::Prefix> cellular_;
};

class SubnetClassifier {
 public:
  explicit SubnetClassifier(ClassifierConfig config = {});

  /// Throws std::invalid_argument if the config is out of range.
  [[nodiscard]] const ClassifierConfig& config() const noexcept { return config_; }

  /// Classify every block in the dataset with enough API-enabled hits.
  /// Byte-identical at any thread count: blocks are scored in parallel
  /// but inserted in the dataset's iteration order by an ordered merge.
  [[nodiscard]] ClassifiedSubnets Classify(const dataset::BeaconDataset& beacons) const;

  /// Same, on an explicit executor.
  [[nodiscard]] ClassifiedSubnets Classify(const dataset::BeaconDataset& beacons,
                                           exec::Executor& executor) const;

  /// Single-block decision (given its aggregate stats).
  [[nodiscard]] bool IsCellular(const dataset::BeaconBlockStats& stats) const noexcept;

 private:
  ClassifierConfig config_;
};

}  // namespace cellspot::core
