#include "cellspot/simnet/world.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>

#include "cellspot/exec/executor.hpp"
#include "cellspot/netinfo/availability.hpp"
#include "cellspot/simnet/block_allocator.hpp"
#include "cellspot/util/rng.hpp"

namespace cellspot::simnet {

namespace {

using asdb::AsNumber;
using asdb::OperatorKind;
using geo::Continent;

constexpr std::size_t Idx(Continent c) { return static_cast<std::size_t>(c); }

/// Largest-remainder apportionment of `total` items over `weights`.
/// Entries with zero weight get zero items. When `min_one` is set, every
/// positive-weight entry receives at least one item (the total may then
/// exceed `total` slightly for small totals).
std::vector<int> Apportion(int total, std::span<const double> weights, bool min_one) {
  std::vector<int> out(weights.size(), 0);
  const double wsum = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0 || wsum <= 0.0) return out;
  std::vector<std::pair<double, std::size_t>> remainders;
  int assigned = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] <= 0.0) continue;
    const double exact = total * weights[i] / wsum;
    out[i] = static_cast<int>(exact);
    assigned += out[i];
    remainders.emplace_back(exact - out[i], i);
  }
  std::sort(remainders.begin(), remainders.end(), std::greater<>());
  for (std::size_t r = 0; r < remainders.size() && assigned < total; ++r, ++assigned) {
    ++out[remainders[r].second];
  }
  if (min_one) {
    for (std::size_t i = 0; i < weights.size(); ++i) {
      if (weights[i] > 0.0 && out[i] == 0) out[i] = 1;
    }
  }
  return out;
}

/// Zipf-like positive weights over n ranks with exponent s.
std::vector<double> ZipfWeights(std::size_t n, double s) {
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) w[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
  return w;
}

/// Normalise weights so they sum to `total`.
void ScaleTo(std::vector<double>& w, double total) {
  const double sum = std::accumulate(w.begin(), w.end(), 0.0);
  if (sum <= 0.0) return;
  for (double& v : w) v *= total / sum;
}

const std::set<std::string>& MiddleEastIsos() {
  static const std::set<std::string> kSet = {"SA", "AE", "IR", "IQ", "IL",
                                             "JO", "KW", "QA", "OM", "YE"};
  return kSet;
}

}  // namespace

/// Stateful generator; friend of World so it can fill the private fields.
///
/// Generation is split into two phases so countries can run on any
/// thread while the result stays byte-identical to a sequential build:
///
///  1. Emit (parallel): each country, seeded from a sequentially
///     precomputed fork of the master RNG, stages its operators and
///     subnets into a private CountryYield. Nothing order-sensitive
///     happens here — ASNs, address blocks, RIB announcements and the
///     shared mobile-share stream are all deferred.
///  2. Merge (sequential, country order): ASN gaps are resolved
///     cumulatively, AS records upserted, blocks allocated and
///     subnets pushed in exactly the order the old single-threaded
///     generator produced them.
class WorldBuilder {
 public:
  explicit WorldBuilder(const WorldConfig& cfg) : rng_(cfg.seed) {
    cfg.Validate();
    world_.config_ = cfg;
  }

  World Build(exec::Executor& executor) {
    PlanBlocks();
    const std::size_t n_countries = world_.config_.countries.size();

    // Fork seeds are drawn sequentially (one engine step each) so the
    // per-country streams match a sequential Fork loop exactly.
    std::vector<std::uint64_t> country_seeds(n_countries);
    for (std::size_t ci = 0; ci < n_countries; ++ci) {
      country_seeds[ci] = rng_.ForkSeed(1000 + ci);
    }

    std::vector<CountryYield> yields(n_countries);
    executor.ParallelFor(n_countries, 1, [&](std::size_t begin, std::size_t end) {
      for (std::size_t ci = begin; ci < end; ++ci) {
        util::Rng rng(country_seeds[ci]);
        EmitCountry(static_cast<std::uint16_t>(ci), rng, yields[ci]);
      }
    });

    // The sequential generator emitted the Asian proxy blocks for the
    // first qualifying operator in country order; replicate that by
    // picking the first country holding a candidate.
    std::size_t proxy_country = n_countries;
    for (std::size_t ci = 0; ci < n_countries; ++ci) {
      if (yields[ci].proxy_slot >= 0) {
        proxy_country = ci;
        break;
      }
    }
    for (std::size_t ci = 0; ci < n_countries; ++ci) {
      if (ci == proxy_country) SpliceAsianProxy(yields[ci]);
      MergeCountry(yields[ci]);
    }

    EmitInfrastructure();
    PickValidationCarriers();
    BuildIndexes();
    world_.rib_ = asdb::RoutingTable(std::move(announcements_));
    return std::move(world_);
  }

 private:
  struct CountryBudget {
    int cell_v4 = 0;
    int fixed_v4 = 0;
    int cell_v6 = 0;
    int fixed_v6 = 0;
  };

  /// A subnet staged by the parallel phase: address block and ASN are
  /// assigned at merge time (both are order-sensitive global streams).
  struct StagedSubnet {
    Subnet s;
    bool v6 = false;
    std::uint32_t op_slot = 0;  // index into CountryYield::ops
  };

  /// An operator staged by the parallel phase. The ASN is represented
  /// as a gap over the previous operator's ASN (the amount NextAsn
  /// would have advanced), resolved cumulatively at merge time.
  struct StagedOperator {
    OperatorInfo op;        // asn unset; subnet range country-local
    asdb::AsRecord record;  // asn unset
    asdb::AsNumber asn_gap = 0;
  };

  struct CountryYield {
    std::vector<StagedOperator> ops;
    std::vector<StagedSubnet> subnets;
    int proxy_slot = -1;  // first Asian-proxy candidate, -1 if none
    std::size_t proxy_insert_pos = 0;
  };

  const WorldConfig& cfg() const { return world_.config_; }

  // Distribute each continent's (scaled) block budget over its countries:
  // cellular blocks follow subscriber counts, fixed blocks follow fixed
  // demand, v6 cellular goes only to countries with v6-deploying carriers.
  void PlanBlocks() {
    budgets_.assign(cfg().countries.size(), CountryBudget{});
    for (Continent cont : geo::AllContinents()) {
      std::vector<std::size_t> members;
      for (std::size_t i = 0; i < cfg().countries.size(); ++i) {
        if (cfg().countries[i].continent == cont) members.push_back(i);
      }
      if (members.empty()) continue;
      const ContinentBlockTargets& t = cfg().continent_blocks[Idx(cont)];
      const double s = cfg().scale;

      std::vector<double> subs, fixed_du, v6cell, v6fixed;
      for (std::size_t i : members) {
        const CountryProfile& p = cfg().countries[i];
        subs.push_back(p.subscribers_m);
        fixed_du.push_back(p.fixed_demand_du);
        v6cell.push_back(p.v6_cellular_as_count > 0 ? p.cell_demand_du : 0.0);
        v6fixed.push_back(p.fixed_demand_du);
      }
      const auto cell4 = Apportion(static_cast<int>(std::lround(t.cell_v4 * s)), subs, true);
      const auto fixed4 = Apportion(
          static_cast<int>(std::lround((t.active_v4 - t.cell_v4) * s)), fixed_du, true);
      const auto cell6 = Apportion(static_cast<int>(std::lround(t.cell_v6 * s)), v6cell, false);
      const auto fixed6 = Apportion(
          static_cast<int>(std::lround((t.active_v6 - t.cell_v6) * s)), v6fixed, false);
      for (std::size_t k = 0; k < members.size(); ++k) {
        budgets_[members[k]] = {cell4[k], fixed4[k], cell6[k], fixed6[k]};
      }
    }
  }

  // ---- per-country operators -------------------------------------------

  // Stage one country into `y`. Runs on any thread: touches only the
  // yield, the (frozen) config/budgets and the country-private rng.
  void EmitCountry(std::uint16_t country_index, util::Rng& rng, CountryYield& y) const {
    const CountryProfile& p = cfg().countries[country_index];
    const CountryBudget& budget = budgets_[country_index];

    const int n_cell_as = p.cellular_as_count;
    const int n_fixed_as = p.fixed_as_count;

    // Operator demand split within the country. Large markets have a few
    // near-peer national carriers followed by a steep tail (Table 7: the
    // top two U.S. ASes are almost equal); small markets follow a plain
    // Zipf split.
    const bool big_market = p.cell_demand_du > 800.0;
    std::vector<double> cell_du(static_cast<std::size_t>(n_cell_as));
    for (int i = 0; i < n_cell_as; ++i) {
      double w;
      if (big_market) {
        static constexpr double kHead[] = {1.0, 0.9, 0.58, 0.40};
        w = i < 4 ? kHead[i] : 0.40 * std::pow(static_cast<double>(i - 2), -1.6);
      } else {
        w = std::pow(static_cast<double>(i + 1), -1.15);
      }
      cell_du[static_cast<std::size_t>(i)] = w;
    }
    ScaleTo(cell_du, p.cell_demand_du);

    // Mixed/dedicated assignment: national top carriers lean dedicated
    // (the paper's top-6 global ASes are all dedicated) while the overall
    // mixed share follows the continent profile.
    std::vector<bool> mixed(static_cast<std::size_t>(n_cell_as));
    for (int i = 0; i < n_cell_as; ++i) {
      double prob;
      if (big_market && i <= 1) prob = 0.0;  // national #1/#2 are dedicated
      else if (big_market && i <= 3) prob = p.mixed_share * 0.15;
      else if (i == 0) prob = p.mixed_share * 0.45;
      else prob = std::min(1.0, p.mixed_share * 1.0);
      mixed[static_cast<std::size_t>(i)] = rng.Chance(prob);
    }

    // Fixed demand: mixed carriers come in two flavours. "Mobile-first"
    // carriers (the common case) run a modest DSL/FTTH arm relative to
    // their cellular side, so their CFD lands in 0.6-0.9 (Fig 5's mixed
    // mass between 0.5 and 0.9). "Incumbent" carriers are fixed-line
    // telcos with a mobile arm — they absorb a large share of the
    // country's fixed demand and score very low CFD (Carrier A / Fig 8).
    // Whatever the mobile-first arms don't take goes to incumbents and
    // fixed-only ISPs by Zipf rank, fixed-only ISPs first.
    std::vector<double> mixed_fixed_arm(static_cast<std::size_t>(n_cell_as), 0.0);
    std::vector<bool> incumbent(static_cast<std::size_t>(n_cell_as), false);
    double fixed_pool = p.fixed_demand_du;
    for (int i = 0; i < n_cell_as; ++i) {
      if (!mixed[static_cast<std::size_t>(i)]) continue;
      const bool is_incumbent =
          (p.continent == Continent::kEurope && cell_du[static_cast<std::size_t>(i)] > 60.0) ||
          rng.Chance(0.35);
      incumbent[static_cast<std::size_t>(i)] = is_incumbent;
      if (!is_incumbent) {
        const double arm =
            std::min(cell_du[static_cast<std::size_t>(i)] * (0.15 + rng.UniformDouble() * 0.45),
                     fixed_pool * 0.25);
        mixed_fixed_arm[static_cast<std::size_t>(i)] = arm;
        fixed_pool -= arm;
      }
    }
    const int incumbent_count =
        static_cast<int>(std::count(incumbent.begin(), incumbent.end(), true));
    std::vector<double> fixed_du;
    {
      std::vector<double> w = ZipfWeights(
          static_cast<std::size_t>(std::max(1, n_fixed_as + incumbent_count)), 1.3);
      ScaleTo(w, std::max(0.0, fixed_pool));
      fixed_du = std::move(w);
    }

    // Block budgets per operator. Incumbents' mobile arms announce a
    // tighter cellular footprint (heavily NATed) than standalone
    // carriers of the same demand.
    std::vector<double> cell_block_w;
    for (int i = 0; i < n_cell_as; ++i) {
      double w_blocks = std::pow(std::max(cell_du[static_cast<std::size_t>(i)], 1e-6), 0.6);
      if (incumbent[static_cast<std::size_t>(i)]) w_blocks *= 0.4;
      cell_block_w.push_back(w_blocks);
    }
    const auto cell_blocks = Apportion(budget.cell_v4, cell_block_w, true);

    // v6 cellular blocks: top v6-deploying carriers by demand.
    std::vector<double> v6_cell_w(static_cast<std::size_t>(n_cell_as), 0.0);
    for (int i = 0; i < std::min(n_cell_as, p.v6_cellular_as_count); ++i) {
      v6_cell_w[static_cast<std::size_t>(i)] = cell_du[static_cast<std::size_t>(i)];
    }
    const auto v6_cell_blocks = Apportion(budget.cell_v6, v6_cell_w, false);

    // Fixed-side blocks: shared between mixed carriers (weighted by their
    // fixed demand) and fixed-only ISPs; dedicated carriers keep a small
    // non-customer arm (corporate/infrastructure space).
    struct FixedSide {
      int op_slot;      // index into this country's operator list
      double demand;
    };
    std::vector<FixedSide> fixed_sides;

    // Create operators: cellular carriers first, then fixed-only ISPs.
    // Incumbent mixed carriers take the top Zipf ranks of the remaining
    // fixed pool (they are the national fixed-line telcos), fixed-only
    // ISPs the rest.
    std::vector<std::uint32_t> op_ids;
    int incumbent_cursor = 0;
    for (int i = 0; i < n_cell_as; ++i) {
      OperatorInfo op;
      // Same draw NextAsn would have made; the cumulative ASN is
      // resolved at merge time from the recorded gap.
      const AsNumber asn_gap = 1 + static_cast<AsNumber>(rng.UniformInt(0, 40));
      op.kind = mixed[static_cast<std::size_t>(i)] ? OperatorKind::kMixed
                                                   : OperatorKind::kDedicatedCellular;
      op.country = country_index;
      op.country_iso = p.iso2;
      op.continent = p.continent;
      op.cell_demand_du = cell_du[static_cast<std::size_t>(i)];
      op.public_dns_fraction = p.public_dns_fraction;
      op.ipv6_cellular = v6_cell_blocks[static_cast<std::size_t>(i)] > 0;
      if (op.kind == OperatorKind::kMixed) {
        op.fixed_demand_du =
            incumbent[static_cast<std::size_t>(i)]
                ? fixed_du[static_cast<std::size_t>(incumbent_cursor++)]
                : mixed_fixed_arm[static_cast<std::size_t>(i)];
      } else {
        // Dedicated: tiny corporate arm, ~0.3% of cellular demand.
        op.fixed_demand_du = op.cell_demand_du * 0.003;
      }
      op_ids.push_back(StageOperator(y, op, rng, p.iso2, i, asn_gap));
      fixed_sides.push_back({static_cast<int>(op_ids.size()) - 1, op.fixed_demand_du});
    }
    for (int i = 0; i < n_fixed_as; ++i) {
      OperatorInfo op;
      const AsNumber asn_gap = 1 + static_cast<AsNumber>(rng.UniformInt(0, 40));
      op.kind = OperatorKind::kFixedOnly;
      op.country = country_index;
      op.country_iso = p.iso2;
      op.continent = p.continent;
      const int rank = incumbent_cursor + i;
      op.fixed_demand_du = rank < static_cast<int>(fixed_du.size())
                               ? fixed_du[static_cast<std::size_t>(rank)]
                               : 0.0;
      op.public_dns_fraction = p.public_dns_fraction;
      op_ids.push_back(StageOperator(y, op, rng, p.iso2, n_cell_as + i, asn_gap));
      fixed_sides.push_back({static_cast<int>(op_ids.size()) - 1, op.fixed_demand_du});
    }

    // Fixed block apportionment across all fixed sides. Cellular
    // carriers' fixed/corporate arms are address-rich relative to their
    // demand (legacy allocations, enterprise space) — the Fig 5 effect
    // where even demand-cellular ASes announce mostly non-cellular
    // subnets.
    std::vector<double> fixed_block_w;
    for (std::size_t fi = 0; fi < fixed_sides.size(); ++fi) {
      double w_blocks = std::pow(std::max(fixed_sides[fi].demand, 1e-6), 0.8);
      if (fi < static_cast<std::size_t>(n_cell_as)) w_blocks *= 3.0;
      fixed_block_w.push_back(w_blocks);
    }
    const auto fixed_blocks = Apportion(budget.fixed_v4, fixed_block_w, false);

    // v6 fixed blocks: top three fixed sides by demand.
    std::vector<double> v6_fixed_w(fixed_sides.size(), 0.0);
    {
      std::vector<std::size_t> order(fixed_sides.size());
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return fixed_sides[a].demand > fixed_sides[b].demand;
      });
      for (std::size_t r = 0; r < std::min<std::size_t>(3, order.size()); ++r) {
        v6_fixed_w[order[r]] = fixed_sides[order[r]].demand;
      }
    }
    const auto v6_fixed_blocks = Apportion(budget.fixed_v6, v6_fixed_w, false);

    // Emit subnets operator by operator (keeps each AS contiguous).
    for (std::size_t slot = 0; slot < op_ids.size(); ++slot) {
      OperatorInfo& op = y.ops[op_ids[slot]].op;
      util::Rng op_rng = rng.Fork(900 + slot);
      op.subnet_begin = static_cast<std::uint32_t>(y.subnets.size());
      const bool is_cell_op = slot < static_cast<std::size_t>(n_cell_as);
      if (is_cell_op) {
        EmitCellularSide(y, op_ids[slot], cell_blocks[slot], v6_cell_blocks[slot], op_rng);
      }
      EmitFixedSide(y, op_ids[slot], fixed_blocks[slot], v6_fixed_blocks[slot], op_rng);
      if (op.kind == OperatorKind::kFixedOnly && op_rng.Chance(cfg().stray_cell_block_prob)) {
        EmitStrayCellPool(y, op_ids[slot], op_rng);
      }
      op.subnet_end = static_cast<std::uint32_t>(y.subnets.size());

      // Some small carriers serve JS-poor clienteles: enough demand to
      // survive rule 1 but too few beacon responses for rule 2 (§5.1's
      // 53 exclusions).
      if (is_cell_op && op.cell_demand_du > 0.15 && op.cell_demand_du < 2.0 &&
          op_rng.Chance(cfg().low_beacon_as_prob)) {
        for (std::uint32_t i = op.subnet_begin; i < op.subnet_end; ++i) {
          Subnet& s = y.subnets[i].s;
          if (s.beacon_scale > 0.0) s.beacon_scale *= 0.02;
        }
      }
    }
  }

  // ---- merge phase (sequential, country order) -------------------------

  // Replay one country's staged output against the global state in the
  // exact order the sequential generator used: all operators first
  // (ASNs, AS records, operator table), then every subnet (address
  // block, mobile-share draw, RIB announcement).
  void MergeCountry(CountryYield& y) {
    const std::uint32_t subnet_base = static_cast<std::uint32_t>(world_.subnets_.size());
    for (StagedOperator& so : y.ops) {
      next_asn_ += so.asn_gap;
      so.op.asn = next_asn_;
      so.record.asn = next_asn_;
      world_.as_db_.Upsert(std::move(so.record));
      world_.op_index_.Insert(so.op.asn, world_.operators_.size(), world_.AsnAt());
      OperatorInfo op = so.op;
      op.subnet_begin += subnet_base;
      op.subnet_end += subnet_base;
      world_.operators_.push_back(std::move(op));
    }
    for (StagedSubnet& ss : y.subnets) {
      Subnet s = std::move(ss.s);
      s.asn = y.ops[ss.op_slot].op.asn;
      s.block = ss.v6 ? alloc_.NextV6Block() : alloc_.NextV4Block();
      PushSubnet(std::move(s));
    }
  }

  // Insert the two terminating-proxy blocks for the winning candidate,
  // exactly where the sequential generator would have emitted them (the
  // end of that operator's fixed side), shifting later staged ranges.
  void SpliceAsianProxy(CountryYield& y) {
    const std::uint32_t slot = static_cast<std::uint32_t>(y.proxy_slot);
    OperatorInfo& op = y.ops[slot].op;
    const std::size_t pos = y.proxy_insert_pos;
    for (int i = 0; i < 2; ++i) {
      Subnet s;
      s.country = op.country;
      s.truth_cellular = false;
      s.demand_du = op.cell_demand_du * 0.05;
      s.beacon_scale = 0.0;
      y.subnets.insert(y.subnets.begin() + static_cast<std::ptrdiff_t>(pos + i),
                       StagedSubnet{std::move(s), /*v6=*/false, slot});
      op.fixed_demand_du += op.cell_demand_du * 0.05;
    }
    for (std::size_t k = 0; k < y.ops.size(); ++k) {
      OperatorInfo& o = y.ops[k].op;
      if (k == slot) {
        o.subnet_end += 2;
      } else if (o.subnet_begin >= pos) {
        o.subnet_begin += 2;
        o.subnet_end += 2;
      }
    }
  }

  // CGNAT demand concentration depends on the market: extreme in mixed
  // carriers of fixed-dominant markets, high in dedicated ones, but never
  // so extreme that the tail of the pool becomes invisible to beacons —
  // the share adapts downward until the average tail block can expect
  // ~tail_target_netinfo_hits API-enabled hits.
  double HeavyDemandShare(const OperatorInfo& op, double demand, int n_blocks) const {
    const double archetype = op.kind == OperatorKind::kDedicatedCellular
                                 ? cfg().cgnat_heavy_demand_share_dedicated
                                 : cfg().cgnat_heavy_demand_share_mixed;
    const double netinfo_rate =
        cfg().beacon_hits_per_du * netinfo::NetInfoFraction(cfg().study_month);
    if (demand <= 0.0 || n_blocks <= 1 || netinfo_rate <= 0.0) return archetype;
    const double tail_share_needed =
        cfg().tail_target_netinfo_hits * 0.95 * n_blocks / (demand * netinfo_rate);
    const double adaptive = 1.0 - tail_share_needed;
    return std::clamp(adaptive, cfg().cgnat_heavy_demand_share_floor, archetype);
  }

  // Cellular side of a carrier: a small CGNAT "heavy" pool carrying
  // almost all demand, a long active tail, and (for mixed legacy
  // carriers) a large allocated-but-inactive range.
  void EmitCellularSide(CountryYield& y, std::uint32_t slot, int n_active_v4, int n_v6,
                        util::Rng& rng) const {
    OperatorInfo& op = y.ops[slot].op;
    // Portion of cellular demand that rides IPv6 where deployed.
    double v6_demand = 0.0;
    double v4_demand = op.cell_demand_du;
    if (n_v6 > 0) {
      v6_demand = op.cell_demand_du * 0.35;
      v4_demand -= v6_demand;
    }

    // Share of cellular demand served from blocks without JS-capable
    // clients (in-app/API traffic behind dedicated gateways): these
    // become the demand-weighted false negatives of Table 3.
    double no_js_share = op.kind == OperatorKind::kDedicatedCellular
                             ? rng.UniformDouble() * 0.02
                             : 0.02 + rng.UniformDouble() * 0.08;
    // Large European mixed incumbents route a sizable share of cellular
    // demand through JS-less gateways (Carrier A's demand-weighted
    // recall of 0.82 in Table 3).
    if (op.kind == OperatorKind::kMixed && op.continent == Continent::kEurope &&
        op.cell_demand_du > 60.0) {
      no_js_share = 0.18;
    }

    EmitCellularPool(y, slot, n_active_v4, v4_demand, no_js_share, /*v6=*/false, rng);
    if (n_v6 > 0) EmitCellularPool(y, slot, n_v6, v6_demand, no_js_share * 0.5, /*v6=*/true, rng);

    // Allocated-but-inactive cellular space (legacy allocations). Large
    // European mixed incumbents hold vast dormant ranges (Carrier A's
    // ground-truth list); most operators hold a modest reserve.
    double inactive_factor = op.kind == OperatorKind::kDedicatedCellular
                                 ? cfg().inactive_cell_factor_dedicated *
                                       (0.5 + rng.UniformDouble())
                                 : 0.1 + rng.UniformDouble() * 0.3;
    if (op.kind == OperatorKind::kMixed && op.continent == Continent::kEurope &&
        op.cell_demand_du > 60.0) {
      inactive_factor = cfg().inactive_cell_factor_mixed;
    }
    const int n_inactive = static_cast<int>(std::lround(n_active_v4 * inactive_factor));
    for (int i = 0; i < n_inactive; ++i) {
      Subnet s;
      s.country = op.country;
      s.truth_cellular = true;
      s.in_demand_snapshot = false;
      s.demand_du = 0.0;
      s.beacon_scale = 0.0;
      PushStaged(y, std::move(s), /*v6=*/false, slot);
    }
  }

  void EmitCellularPool(CountryYield& y, std::uint32_t slot, int n_blocks, double demand,
                        double no_js_share, bool v6, util::Rng& rng) const {
    OperatorInfo& op = y.ops[slot].op;
    if (n_blocks <= 0) return;
    const int heavy = std::max(
        1, static_cast<int>(std::lround(n_blocks * cfg().cgnat_heavy_block_fraction)));
    const int tail = n_blocks - heavy;

    std::vector<double> demand_per_block(static_cast<std::size_t>(n_blocks), 0.0);
    const double heavy_share = tail > 0 ? HeavyDemandShare(op, demand, n_blocks) : 1.0;
    {
      std::vector<double> w = ZipfWeights(static_cast<std::size_t>(heavy), 1.0);
      ScaleTo(w, demand * heavy_share);
      for (int i = 0; i < heavy; ++i) demand_per_block[static_cast<std::size_t>(i)] = w[static_cast<std::size_t>(i)];
    }
    if (tail > 0) {
      std::vector<double> w = ZipfWeights(static_cast<std::size_t>(tail), 0.7);
      ScaleTo(w, demand * (1.0 - heavy_share));
      for (int i = 0; i < tail; ++i) {
        demand_per_block[static_cast<std::size_t>(heavy + i)] = w[static_cast<std::size_t>(i)];
      }
    }

    for (int i = 0; i < n_blocks; ++i) {
      Subnet s;
      s.country = op.country;
      s.truth_cellular = true;
      s.demand_du = demand_per_block[static_cast<std::size_t>(i)];
      const bool is_heavy = i < heavy;
      const bool heavy_na_dedicated =
          op.kind == OperatorKind::kDedicatedCellular &&
          op.continent == Continent::kNorthAmerica;
      const double mean =
          is_heavy ? (heavy_na_dedicated ? cfg().tether_mean_heavy_na_dedicated
                                         : cfg().tether_mean_heavy)
                   : cfg().tether_mean_tail;
      const double draw = mean + (rng.UniformDouble() - 0.5) * 2.0 * cfg().tether_sigma;
      s.tether_rate = std::clamp(draw, 0.005, 0.45);
      if (v6) s.in_demand_snapshot = rng.Chance(cfg().v6_demand_coverage);
      // Cellular clients in low-demand markets are web-heavy (the mobile
      // browser is the primary access), so starved pools still emit
      // observable beacon volume — without this, the paper's detected
      // counts (e.g. Africa's 79k /24s) could not exist. Capped so
      // genuinely dormant blocks still disappear.
      const double netinfo_rate =
          cfg().beacon_hits_per_du * netinfo::NetInfoFraction(cfg().study_month);
      const double expected = s.demand_du * netinfo_rate;
      const double want = cfg().tail_target_netinfo_hits;
      if (expected > 0.0 && expected < want) {
        s.beacon_scale = std::min(want / expected, 60.0);
      }
      PushStaged(y, std::move(s), v6, slot);
    }

    // Apply the no-JS demand share: walk heavy blocks from the smallest
    // up, zeroing beacon visibility until ~no_js_share of the pool's
    // demand is covered. Skip blocks that would badly overshoot the
    // target (small heavy pools are chunky).
    double covered = 0.0;
    const double target = demand * no_js_share;
    const double ceiling = std::max(target * 1.6, target + 0.3);
    const std::size_t base = y.subnets.size() - static_cast<std::size_t>(n_blocks);
    for (int i = heavy - 1; i >= 1 && covered < target; --i) {
      Subnet& s = y.subnets[base + static_cast<std::size_t>(i)].s;
      if (covered + s.demand_du > ceiling) continue;
      s.beacon_scale = 0.0;
      covered += s.demand_du;
    }
    // When the heavy pool is too chunky to mark (small operators / small
    // worlds), carve the no-JS demand into its own gateway block instead,
    // taken out of the top gateway.
    if (target > 0.05 && covered < target * 0.5) {
      Subnet& top = y.subnets[base].s;
      const double carve = std::min(target - covered, top.demand_du * 0.5);
      if (carve > 0.0) {
        top.demand_du -= carve;
        Subnet gateway;
        gateway.country = op.country;
        gateway.truth_cellular = true;
        gateway.demand_du = carve;
        gateway.beacon_scale = 0.0;
        gateway.tether_rate = top.tether_rate;
        if (v6) gateway.in_demand_snapshot = top.in_demand_snapshot;
        PushStaged(y, std::move(gateway), v6, slot);
      }
    }
  }

  void EmitFixedSide(CountryYield& y, std::uint32_t slot, int n_blocks, int n_v6,
                     util::Rng& rng) const {
    OperatorInfo& op = y.ops[slot].op;
    double v6_demand = 0.0;
    double v4_demand = op.fixed_demand_du;
    if (n_v6 > 0) {
      v6_demand = op.fixed_demand_du * 0.12;
      v4_demand -= v6_demand;
    }

    // Dedicated carriers' corporate arm is sized relative to their
    // cellular footprint (Fig 6a: ~40% of a dedicated AS's blocks have
    // cellular ratio 0 and near-zero demand).
    if (op.kind == OperatorKind::kDedicatedCellular) {
      const int cell_active = CountActiveCellBlocks(y, slot, op.subnet_begin);
      n_blocks = std::max(n_blocks, static_cast<int>(std::lround(cell_active * 0.67)));
    }
    if (n_blocks <= 0 && v4_demand <= 0.0) return;
    n_blocks = std::max(n_blocks, v4_demand > 0.0 ? 1 : 0);
    if (n_blocks <= 0) return;

    // Demand-only blocks (no JS clients) extend the beacon-active pool.
    const int n_extra = static_cast<int>(std::lround(n_blocks * cfg().demand_only_extra_v4));
    const int total = n_blocks + n_extra;
    std::vector<double> w = ZipfWeights(static_cast<std::size_t>(total), 0.5);
    // Move the demand-only blocks to the tail ranks and give them 15% of
    // the fixed demand overall.
    ScaleTo(w, 1.0);
    std::vector<double> demand_per_block(static_cast<std::size_t>(total));
    {
      double beacon_w = 0.0, extra_w = 0.0;
      for (int i = 0; i < n_blocks; ++i) beacon_w += w[static_cast<std::size_t>(i)];
      for (int i = n_blocks; i < total; ++i) extra_w += w[static_cast<std::size_t>(i)];
      const double extra_share = n_extra > 0 ? 0.08 : 0.0;
      for (int i = 0; i < n_blocks; ++i) {
        demand_per_block[static_cast<std::size_t>(i)] =
            v4_demand * (1.0 - extra_share) * w[static_cast<std::size_t>(i)] / std::max(beacon_w, 1e-12);
      }
      for (int i = n_blocks; i < total; ++i) {
        demand_per_block[static_cast<std::size_t>(i)] =
            v4_demand * extra_share * w[static_cast<std::size_t>(i)] / std::max(extra_w, 1e-12);
      }
    }

    for (int i = 0; i < total; ++i) {
      Subnet s;
      s.country = op.country;
      s.truth_cellular = false;
      s.demand_du = demand_per_block[static_cast<std::size_t>(i)];
      if (i >= n_blocks) s.beacon_scale = 0.0;
      // Rare LTE-backup enterprise blocks report mostly cellular labels
      // while being fixed in the carrier's own books (Table 3's FPs).
      if (i < n_blocks && rng.Chance(0.0004)) {
        s.tether_rate = 0.75;  // reused as P(cellular label) for fixed blocks
        s.demand_du = std::min(s.demand_du, 0.01 + rng.UniformDouble() * 0.01);
      }
      PushStaged(y, std::move(s), /*v6=*/false, slot);
    }

    // IPv6 fixed blocks.
    if (n_v6 > 0) {
      std::vector<double> w6 = ZipfWeights(static_cast<std::size_t>(n_v6), 0.9);
      ScaleTo(w6, v6_demand);
      for (int i = 0; i < n_v6; ++i) {
        Subnet s;
        s.country = op.country;
        s.truth_cellular = false;
        s.demand_du = w6[static_cast<std::size_t>(i)];
        s.in_demand_snapshot = rng.Chance(cfg().v6_demand_coverage);
        PushStaged(y, std::move(s), /*v6=*/true, slot);
      }
    }

    // One large Asian dedicated carrier hosts two busy terminating HTTP
    // proxies: demand with no browsers (the §6.1 anecdote that motivated
    // the CFD >= 0.9 dedicated threshold). Only a candidate is recorded
    // here (emission draws no randomness); the merge phase splices the
    // blocks into the globally first candidate, matching the sequential
    // generator's single cross-country flag.
    if (op.kind == OperatorKind::kDedicatedCellular &&
        op.continent == Continent::kAsia && op.cell_demand_du > 100.0 &&
        op.cell_demand_du < 260.0 &&
        y.proxy_slot < 0) {
      y.proxy_slot = static_cast<int>(slot);
      y.proxy_insert_pos = y.subnets.size();
    }
  }

  // Tiny genuine cellular pool inside a fixed-only ISP (M2M resale):
  // detected as cellular but carrying < 0.1 DU, so heuristic 1 filters
  // the AS (the bulk of Table 5's 493 exclusions).
  void EmitStrayCellPool(CountryYield& y, std::uint32_t slot, util::Rng& rng) const {
    OperatorInfo& op = y.ops[slot].op;
    const int n = 1 + static_cast<int>(rng.UniformInt(0, 1));
    for (int i = 0; i < n; ++i) {
      Subnet s;
      s.country = op.country;
      s.truth_cellular = true;
      s.demand_du = 0.002 + rng.UniformDouble() * 0.04;
      s.beacon_scale = 20.0;  // hotspot users are JS-heavy
      s.tether_rate = 0.05;
      op.cell_demand_du += s.demand_du;
      PushStaged(y, std::move(s), /*v6=*/false, slot);
    }
  }

  // ---- global infrastructure (the false positives of §5) ---------------

  void EmitInfrastructure() {
    util::Rng rng = rng_.Fork(77);

    // Mobile performance proxies (Google/Opera style): beacon labels are
    // the remote clients' (mostly cellular), the AS is Content-classed.
    for (int i = 0; i < cfg().proxy_as_count; ++i) {
      OperatorInfo op;
      op.asn = NextAsn(rng);
      op.kind = OperatorKind::kMobileProxy;
      op.country_iso = i % 2 == 0 ? "US" : "NO";
      op.continent = i % 2 == 0 ? Continent::kNorthAmerica : Continent::kEurope;
      const std::size_t id = StartOperator(op, rng, "PROXY", i);
      OperatorInfo& stored = world_.operators_[id];
      stored.subnet_begin = static_cast<std::uint32_t>(world_.subnets_.size());
      for (int b = 0; b < 3; ++b) {
        Subnet s;
        s.block = alloc_.NextV4Block();
        s.asn = stored.asn;
        s.truth_cellular = false;
        s.proxy_terminating = true;
        s.demand_du = cfg().proxy_demand_du_each / 3.0;
        PushSubnet(std::move(s));
      }
      stored.fixed_demand_du = cfg().proxy_demand_du_each;
      stored.subnet_end = static_cast<std::uint32_t>(world_.subnets_.size());
    }

    // Transit/backbone ASes: announce coarse aggregates that cover large
    // swaths of already-allocated access space. They carry no eyeball
    // blocks of their own; longest-prefix match must keep attributing
    // every /24 to its access origin despite these covering routes.
    const std::uint32_t allocated_top =
        0x01000000u + static_cast<std::uint32_t>(alloc_.v4_allocated()) * 0x100u;
    for (int i = 0; i < cfg().transit_as_count; ++i) {
      OperatorInfo op;
      op.asn = NextAsn(rng);
      op.kind = OperatorKind::kTransit;
      op.country_iso = "US";
      op.continent = Continent::kNorthAmerica;
      const std::size_t id = StartOperator(op, rng, "TRANSIT", i);
      OperatorInfo& stored = world_.operators_[id];
      stored.subnet_begin = static_cast<std::uint32_t>(world_.subnets_.size());
      // A few covering aggregates inside allocated space, sized so that
      // different backbones cover different regions even in small worlds.
      const std::uint32_t span = std::max(0x01000000u, allocated_top - 0x01000000u);
      int len = 10;
      while (len < 24 && (0xFFFFFFFFu >> len) + 1 > span / 32) ++len;
      const int aggregates = 2 + static_cast<int>(rng.UniformInt(0, 1));
      for (int a = 0; a < aggregates; ++a) {
        const std::uint32_t base = static_cast<std::uint32_t>(
            rng.UniformInt(0x01000000u, std::max(0x01000001u, allocated_top)));
        announcements_.emplace_back(netaddr::Prefix(netaddr::IpAddress::V4(base), len),
                                    stored.asn);
      }
      stored.subnet_end = static_cast<std::uint32_t>(world_.subnets_.size());
    }

    // Cloud/hosting ASes: mostly beacon-silent server space plus a few
    // mobile-VPN egress blocks that pick up cellular labels.
    for (int i = 0; i < cfg().cloud_as_count; ++i) {
      OperatorInfo op;
      op.asn = NextAsn(rng);
      op.kind = OperatorKind::kCloudHosting;
      op.country_iso = "US";
      op.continent = Continent::kNorthAmerica;
      const std::size_t id = StartOperator(op, rng, "CLOUD", i);
      OperatorInfo& stored = world_.operators_[id];
      stored.subnet_begin = static_cast<std::uint32_t>(world_.subnets_.size());
      const int blocks = 12 + static_cast<int>(rng.UniformInt(0, 12));
      for (int b = 0; b < blocks; ++b) {
        Subnet s;
        s.block = alloc_.NextV4Block();
        s.asn = stored.asn;
        s.truth_cellular = false;
        if (b < 3) {
          s.proxy_terminating = true;  // VPN egress for mobile clients
          s.demand_du = 0.15 + rng.UniformDouble() * 0.2;
          s.beacon_scale = 25.0;
        } else {
          s.demand_du = cfg().cloud_demand_du_each / std::max(1, blocks - 3);
          s.beacon_scale = 0.0;
        }
        PushSubnet(std::move(s));
      }
      stored.fixed_demand_du = cfg().cloud_demand_du_each;
      stored.subnet_end = static_cast<std::uint32_t>(world_.subnets_.size());
    }
  }

  // ---- carriers, bookkeeping -------------------------------------------

  void PickValidationCarriers() {
    const OperatorInfo* a = nullptr;
    const OperatorInfo* b = nullptr;
    const OperatorInfo* c = nullptr;
    for (const OperatorInfo& op : world_.operators_) {
      if (op.kind == OperatorKind::kMixed && op.continent == Continent::kEurope) {
        if (a == nullptr || op.cell_demand_du > a->cell_demand_du) a = &op;
      }
      if (op.kind == OperatorKind::kDedicatedCellular && op.country_iso == "US") {
        if (b == nullptr || op.cell_demand_du > b->cell_demand_du) b = &op;
      }
      if (op.kind == OperatorKind::kMixed &&
          MiddleEastIsos().count(op.country_iso) > 0) {
        if (c == nullptr || op.cell_demand_du > c->cell_demand_du) c = &op;
      }
    }
    // Fallbacks for small worlds without the exact archetypes.
    auto fallback = [&](const OperatorInfo* taken1, const OperatorInfo* taken2,
                        OperatorKind kind) -> const OperatorInfo* {
      const OperatorInfo* best = nullptr;
      for (const OperatorInfo& op : world_.operators_) {
        if (&op == taken1 || &op == taken2) continue;
        if (op.kind != kind) continue;
        if (best == nullptr || op.cell_demand_du > best->cell_demand_du) best = &op;
      }
      return best;
    };
    if (a == nullptr) a = fallback(b, c, OperatorKind::kMixed);
    if (b == nullptr) b = fallback(a, c, OperatorKind::kDedicatedCellular);
    if (c == nullptr) c = fallback(a, b, OperatorKind::kMixed);

    auto label = [&](const OperatorInfo* op, char tag) {
      if (op == nullptr) return;
      const std::size_t idx = world_.op_index_.Find(op->asn, world_.AsnAt());
      world_.operators_[idx].validation_label = tag;
      world_.carriers_.push_back({op->asn, tag});
    };
    label(a, 'A');
    label(b, 'B');
    label(c, 'C');
  }

  // Stage a country operator: the record and class draw happen exactly
  // where StartOperator made them, but nothing touches global state.
  std::uint32_t StageOperator(CountryYield& y, OperatorInfo op, util::Rng& rng,
                              const std::string& tag, int ordinal, AsNumber asn_gap) const {
    StagedOperator so;
    so.asn_gap = asn_gap;
    so.record.country_iso = op.country_iso;
    so.record.continent = op.continent;
    so.record.kind = op.kind;
    so.record.name = tag + "-" + OperatorSuffix(op.kind) + "-" + std::to_string(ordinal + 1);
    so.record.cls = ClassFor(op, rng);
    op.subnet_begin = static_cast<std::uint32_t>(y.subnets.size());
    op.subnet_end = op.subnet_begin;
    so.op = std::move(op);
    y.ops.push_back(std::move(so));
    return static_cast<std::uint32_t>(y.ops.size() - 1);
  }

  /// Global-state variant, used by the (sequential) infrastructure pass.
  std::size_t StartOperator(OperatorInfo op, util::Rng& rng, const std::string& tag, int ordinal) {
    asdb::AsRecord record;
    record.asn = op.asn;
    record.country_iso = op.country_iso;
    record.continent = op.continent;
    record.kind = op.kind;
    record.name = tag + "-" + OperatorSuffix(op.kind) + "-" + std::to_string(ordinal + 1);
    record.cls = ClassFor(op, rng);
    world_.as_db_.Upsert(std::move(record));

    const std::size_t id = world_.operators_.size();
    world_.op_index_.Insert(op.asn, id, world_.AsnAt());
    op.subnet_begin = static_cast<std::uint32_t>(world_.subnets_.size());
    op.subnet_end = op.subnet_begin;
    world_.operators_.push_back(std::move(op));
    return id;
  }

  static std::string OperatorSuffix(OperatorKind kind) {
    switch (kind) {
      case OperatorKind::kDedicatedCellular: return "CELL";
      case OperatorKind::kMixed: return "MIXED";
      case OperatorKind::kFixedOnly: return "FIXED";
      case OperatorKind::kCloudHosting: return "CLOUD";
      case OperatorKind::kMobileProxy: return "PROXY";
      case OperatorKind::kTransit: return "TRANSIT";
    }
    return "AS";
  }

  asdb::AsClass ClassFor(const OperatorInfo& op, util::Rng& rng) const {
    switch (op.kind) {
      case OperatorKind::kMobileProxy:
        return asdb::AsClass::kContent;
      case OperatorKind::kCloudHosting:
        return rng.Chance(0.5) ? asdb::AsClass::kContent : asdb::AsClass::kUnknown;
      case OperatorKind::kTransit:
        return asdb::AsClass::kTransitAccess;
      default:
        // A sliver of small genuine access networks carries no CAIDA
        // class and becomes rule-3 collateral (§5.1); national carriers
        // are always classified.
        if (op.cell_demand_du < 5.0 && rng.Chance(0.015)) {
          return asdb::AsClass::kUnknown;
        }
        return asdb::AsClass::kTransitAccess;
    }
  }

  AsNumber NextAsn(util::Rng& rng) {
    next_asn_ += 1 + static_cast<AsNumber>(rng.UniformInt(0, 40));
    return next_asn_;
  }

  static int CountActiveCellBlocks(const CountryYield& y, std::uint32_t slot,
                                   std::uint32_t begin) {
    int n = 0;
    for (std::size_t i = begin; i < y.subnets.size(); ++i) {
      const StagedSubnet& ss = y.subnets[i];
      if (ss.op_slot != slot) break;
      if (ss.s.truth_cellular && ss.s.demand_du > 0.0) ++n;
    }
    return n;
  }

  static void PushStaged(CountryYield& y, Subnet s, bool v6, std::uint32_t slot) {
    y.subnets.push_back(StagedSubnet{std::move(s), v6, slot});
  }

  void PushSubnet(Subnet s) {
    // Device mix per block: cellular access is used almost exclusively by
    // mobile devices; fixed lines still see plenty of phones over WiFi
    // (the §1 offloading argument that makes device type a poor signal).
    if (s.mobile_share < 0.0) {
      // Fixed-line blocks span the whole range: office space is
      // desktop-heavy, residential evening traffic is mostly phones on
      // WiFi — which is exactly why the device signal cannot separate
      // access technologies.
      const double mean = s.proxy_terminating ? 0.95
                          : s.truth_cellular  ? 0.93
                                              : 0.55;
      const double sigma = s.truth_cellular || s.proxy_terminating ? 0.04 : 0.22;
      const double draw = mean + (mobile_rng_.UniformDouble() - 0.5) * 2.0 * sigma;
      s.mobile_share = std::clamp(draw, 0.02, 0.99);
    }
    announcements_.emplace_back(s.block, s.asn);
    world_.subnets_.push_back(std::move(s));
  }

  void BuildIndexes() {
    world_.block_index_.reserve(world_.subnets_.size());
    for (std::uint32_t i = 0; i < world_.subnets_.size(); ++i) {
      world_.block_index_.Insert(world_.subnets_[i].block, i, world_.BlockAt());
    }
  }

  util::Rng rng_;
  util::Rng mobile_rng_{0xB10B5ULL};
  BlockAllocator alloc_;
  World world_;
  std::vector<asdb::RoutingTable::Route> announcements_;  // in announcement order
  std::vector<CountryBudget> budgets_;
  AsNumber next_asn_ = 2000;
};

World World::Generate(const WorldConfig& config) {
  return Generate(config, exec::Executor::Shared());
}

World World::Generate(const WorldConfig& config, exec::Executor& executor) {
  WorldBuilder builder(config);
  return builder.Build(executor);
}

const OperatorInfo* World::FindOperator(asdb::AsNumber asn) const noexcept {
  const std::size_t i = op_index_.Find(asn, AsnAt());
  return i == op_index_.npos ? nullptr : &operators_[i];
}

std::span<const Subnet> World::SubnetsOf(const OperatorInfo& op) const {
  return std::span<const Subnet>(subnets_).subspan(op.subnet_begin,
                                                   op.subnet_end - op.subnet_begin);
}

const Subnet* World::FindSubnet(const netaddr::Prefix& block) const noexcept {
  const std::size_t i = block_index_.Find(block, BlockAt());
  return i == block_index_.npos ? nullptr : &subnets_[i];
}

const CountryProfile* World::CountryOf(const Subnet& s) const noexcept {
  if (s.country == Subnet::kNoCountryIndex) return nullptr;
  return &config_.countries[s.country];
}

}  // namespace cellspot::simnet
