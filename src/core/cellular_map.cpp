#include "cellspot/core/cellular_map.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "cellspot/core/aggregation.hpp"
#include "cellspot/util/strings.hpp"

namespace cellspot::core {

CellularMap::CellularMap(std::vector<netaddr::Prefix> prefixes)
    : prefixes_(std::move(prefixes)) {
  std::sort(prefixes_.begin(), prefixes_.end());
  prefixes_.erase(std::unique(prefixes_.begin(), prefixes_.end()), prefixes_.end());
  for (const netaddr::Prefix& p : prefixes_) {
    if (p.length() == 0) {
      throw std::invalid_argument(
          "CellularMap: length-0 prefix " + p.ToString() +
          " would claim the entire address space; rejected at construction");
    }
  }
  flat_ = netaddr::FlatLpm<bool>::Build(prefixes_, true);
}

CellularMap CellularMap::FromClassification(const ClassifiedSubnets& classified,
                                            bool aggregate) {
  std::vector<netaddr::Prefix> prefixes(classified.cellular().begin(),
                                        classified.cellular().end());
  return FromPrefixes(std::move(prefixes), aggregate);
}

CellularMap CellularMap::FromPrefixes(std::vector<netaddr::Prefix> prefixes,
                                      bool aggregate) {
  if (aggregate) prefixes = CompressPrefixes(std::move(prefixes));
  return CellularMap(std::move(prefixes));
}

bool CellularMap::Contains(const netaddr::IpAddress& address) const {
  return flat_.LongestMatch(address) != nullptr;
}

void CellularMap::ContainsBatch(std::span<const netaddr::IpAddress> addresses,
                                std::span<bool> out) const {
  flat_.LongestMatchBatch(addresses, out, false);
}

bool CellularMap::ContainsBlock(const netaddr::Prefix& block) const {
  // Any covering prefix claims the block: match on its base address and
  // check the matched length. Stored prefixes are never /0 (rejected at
  // construction), so nothing can claim every block wholesale.
  const auto match = flat_.LongestMatchWithLength(block.address());
  return match.has_value() && match->first <= block.length();
}

void CellularMap::Save(std::ostream& out) const {
  for (const netaddr::Prefix& p : prefixes_) out << p.ToString() << '\n';
}

CellularMap CellularMap::Load(std::istream& in, bool aggregate,
                              const util::LoadOptions& options) {
  std::vector<netaddr::Prefix> prefixes;
  util::ScopedLoadReport scoped(options);
  util::IngestLines(in, scoped.get(), [&](std::size_t, std::string_view line) {
    const std::string_view trimmed = util::Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') return;
    const netaddr::Prefix prefix = netaddr::Prefix::Parse(trimmed);
    if (prefix.length() == 0) {
      throw ParseError("cellular map: length-0 prefix '" + std::string(trimmed) +
                           "' would claim the entire address space",
                       ParseErrorCategory::kBadAddress);
    }
    prefixes.push_back(prefix);
  });
  return FromPrefixes(std::move(prefixes), aggregate);
}

}  // namespace cellspot::core
