#include "cellspot/core/as_pipeline.hpp"

#include <utility>
#include <vector>

namespace cellspot::core {

AsFilterOutcome ApplyAsFilters(std::vector<AsAggregate> candidates,
                               const asdb::AsDatabase& as_db,
                               const AsFilterConfig& config) {
  AsFilterOutcome outcome;
  outcome.input_count = candidates.size();

  // Rule 1: cumulative cellular demand below the floor.
  std::vector<AsAggregate> after_rule1;
  for (AsAggregate& as : candidates) {
    if (as.cell_demand_du < config.min_cell_demand_du) {
      ++outcome.removed_low_demand;
    } else {
      after_rule1.push_back(std::move(as));
    }
  }

  // Rule 2: too few beacon responses to trust the classification.
  std::vector<AsAggregate> after_rule2;
  for (AsAggregate& as : after_rule1) {
    if (as.beacon_hits < config.min_beacon_hits) {
      ++outcome.removed_low_hits;
    } else {
      after_rule2.push_back(std::move(as));
    }
  }

  // Rule 3: keep only Transit/Access-classified networks.
  for (AsAggregate& as : after_rule2) {
    if (config.require_transit_access_class) {
      const asdb::AsRecord* record = as_db.Find(as.asn);
      const bool access =
          record != nullptr && record->cls == asdb::AsClass::kTransitAccess;
      if (!access) {
        ++outcome.removed_class;
        continue;
      }
    }
    outcome.kept.push_back(std::move(as));
  }
  return outcome;
}

}  // namespace cellspot::core
