// The DEMAND dataset (§3.2): normalised platform demand per /24 and /48
// block, in unit-less Demand Units. 100,000 DU == 100% of global request
// demand (1,000 DU = 1%).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <utility>

#include "cellspot/netaddr/prefix.hpp"
#include "cellspot/util/ingest.hpp"
#include "cellspot/util/stable_map.hpp"

namespace cellspot::snapshot {
struct Access;
}

namespace cellspot::dataset {

inline constexpr double kTotalDemandUnits = 100000.0;

class DemandDataset {
 public:
  /// Accumulate raw (pre-normalisation) demand for a block. Must be a
  /// /24 or /48; throws std::invalid_argument otherwise, or on negative
  /// demand.
  void Add(const netaddr::Prefix& block, double raw_demand);

  /// Rescale so the sum over all blocks equals kTotalDemandUnits.
  /// No-op on an empty dataset.
  void Normalize();

  /// Demand for a block in DU (0 if absent).
  [[nodiscard]] double DemandOf(const netaddr::Prefix& block) const noexcept;

  [[nodiscard]] std::size_t block_count() const noexcept { return blocks_.size(); }
  [[nodiscard]] std::size_t block_count(netaddr::Family f) const noexcept;
  [[nodiscard]] double total() const noexcept { return total_; }

  using Row = std::pair<netaddr::Prefix, double>;

  /// Every (block, DU) row in insertion order, as BeaconDataset::rows().
  [[nodiscard]] std::span<const Row> rows() const& noexcept { return blocks_.entries(); }
  void rows() const&& = delete;

  /// CSV persistence. LoadCsv routes malformed rows through the ingest
  /// policy in `options` (strict by default: throw on the first fault).
  void SaveCsv(std::ostream& out) const;
  [[nodiscard]] static DemandDataset LoadCsv(std::istream& in,
                                             const util::LoadOptions& options = {});

 private:
  friend struct snapshot::Access;
  util::StableMap<netaddr::Prefix, double> blocks_;
  double total_ = 0.0;
};

}  // namespace cellspot::dataset
