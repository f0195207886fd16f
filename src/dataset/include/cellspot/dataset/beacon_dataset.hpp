// The BEACON dataset (§3.1): per-/24 and per-/48 aggregates of RUM beacon
// hits, with Network Information API label counts. This is the exact
// input of the cellular-ratio computation (§4.1).
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

/// Aggregated beacon activity for one /24 or /48 block over the study
/// window.
struct BeaconBlockStats {
  std::uint64_t hits = 0;           // all beacon page loads
  std::uint64_t netinfo_hits = 0;   // hits carrying Network Information data
  std::uint64_t cellular_labels = 0;
  std::uint64_t wifi_labels = 0;
  std::uint64_t ethernet_labels = 0;
  std::uint64_t other_labels = 0;   // bluetooth / wimax / unknown
  std::uint64_t mobile_browser_hits = 0;  // hits from mobile-device browsers
                                          // (the §1 device-type signal)

  /// Fraction of API-enabled hits labelled cellular; 0 when no API hits.
  [[nodiscard]] double CellularRatio() const noexcept {
    return netinfo_hits > 0
               ? static_cast<double>(cellular_labels) / static_cast<double>(netinfo_hits)
               : 0.0;
  }

  /// Fraction of all hits from mobile-device browsers; 0 without hits.
  /// This is the naive "device type" signal the paper dismisses: phones
  /// offload to WiFi, so mobile-heavy blocks need not be cellular.
  [[nodiscard]] double MobileDeviceRatio() const noexcept {
    return hits > 0 ? static_cast<double>(mobile_browser_hits) / static_cast<double>(hits)
                    : 0.0;
  }

  /// The invariants every producer keeps: API and mobile-browser hits
  /// are subsets of all hits, and the labels partition at most the API
  /// hits (checked without summing, so forged counts cannot wrap).
  [[nodiscard]] bool IsConsistent() const noexcept;

  BeaconBlockStats& operator+=(const BeaconBlockStats& other) noexcept;
};

/// Block-keyed beacon aggregates for both families.
class BeaconDataset {
 public:
  /// Accumulate stats for a block (must be /24 or /48; throws
  /// std::invalid_argument otherwise).
  void Add(const netaddr::Prefix& block, const BeaconBlockStats& stats);

  [[nodiscard]] const BeaconBlockStats* Find(const netaddr::Prefix& block) const noexcept;

  [[nodiscard]] std::size_t block_count() const noexcept { return blocks_.size(); }
  [[nodiscard]] std::size_t block_count(netaddr::Family f) const noexcept;
  [[nodiscard]] std::uint64_t total_hits() const noexcept { return total_hits_; }
  [[nodiscard]] std::uint64_t total_netinfo_hits() const noexcept {
    return total_netinfo_hits_;
  }

  using Row = std::pair<netaddr::Prefix, BeaconBlockStats>;

  /// Every (block, stats) row in insertion order; row i is the i-th
  /// block added. The order is a property of the data (it survives
  /// SaveCsv/LoadCsv and snapshot roundtrips), which keeps downstream
  /// exports byte-identical. The span is valid until the next Add or
  /// the dataset's end, so it cannot be taken from a temporary.
  [[nodiscard]] std::span<const Row> rows() const& noexcept { return blocks_.entries(); }
  void rows() const&& = delete;

  /// CSV persistence: header + one row per block. LoadCsv routes
  /// malformed rows through the ingest policy in `options` (strict by
  /// default: throw on the first fault).
  void SaveCsv(std::ostream& out) const;
  [[nodiscard]] static BeaconDataset LoadCsv(std::istream& in,
                                             const util::LoadOptions& options = {});

 private:
  friend struct snapshot::Access;
  util::StableMap<netaddr::Prefix, BeaconBlockStats> blocks_;
  std::uint64_t total_hits_ = 0;
  std::uint64_t total_netinfo_hits_ = 0;
};

}  // namespace cellspot::dataset
