// util::StableMap/StableSet and the util::PositionIndex behind them,
// differentially against the unordered_map-indexed design they replace
// (tests/support/reference_stable_map.hpp): seeded random operation
// sequences over Prefix, AsNumber and string keys must leave both with
// the same size, iteration order and operator== verdicts after every
// step — across ten or more table doublings, with and without reserve,
// and with every key forced into one probe chain. The World and
// AsDatabase lookups that use the index are checked against linear scans.
#include "cellspot/util/stable_map.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cellspot/asdb/as_database.hpp"
#include "cellspot/netaddr/prefix.hpp"
#include "cellspot/simnet/world.hpp"
#include "cellspot/util/rng.hpp"
#include "support/reference_stable_map.hpp"

namespace cellspot::util {
namespace {

using netaddr::IpAddress;
using netaddr::Prefix;
using test_support::ReferenceStableMap;
using test_support::ReferenceStableSet;

/// Puts every key in one probe chain.
struct ConstantHash {
  template <typename Key>
  std::size_t operator()(const Key& /*key*/) const noexcept {
    return 42;
  }
};

// An index starting at 16 slots doubles ten times (to 16384) once it
// holds 4097 entries, since it stays at most half full.
constexpr std::size_t kTenDoublings = 4097;

std::vector<Prefix> PrefixPool(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<Prefix> pool;
  pool.reserve(n + 2);
  pool.push_back(Prefix::Parse("0.0.0.0/0"));
  pool.push_back(Prefix::Parse("::/0"));
  while (pool.size() < n) {
    if (rng.Chance(0.5)) {
      const auto v4 = static_cast<std::uint32_t>(rng.UniformInt(0, 0xFFFFFFFFULL));
      pool.emplace_back(IpAddress::V4(v4), rng.Chance(0.9) ? 24 : 16);
    } else {
      std::array<std::uint8_t, 16> bytes{};
      for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
      pool.emplace_back(IpAddress::V6(bytes), rng.Chance(0.9) ? 48 : 64);
    }
  }
  return pool;
}

/// Half sequential ASNs (their std::hash is the identity), half random.
std::vector<asdb::AsNumber> AsnPool(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<asdb::AsNumber> pool;
  pool.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pool.push_back(i % 2 == 0 ? static_cast<asdb::AsNumber>(i / 2 + 1)
                              : static_cast<asdb::AsNumber>(rng.UniformInt(1, 0xFFFFFFFFULL)));
  }
  return pool;
}

std::vector<std::string> StringPool(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<std::string> pool;
  pool.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pool.push_back("key-" + std::to_string(rng.UniformInt(0, ~std::uint64_t{0})));
  }
  return pool;
}

/// Same size and the same entries in the same (insertion) order.
template <typename Tested, typename Reference>
::testing::AssertionResult SameEntries(const Tested& tested, const Reference& reference) {
  if (tested.size() != reference.size()) {
    return ::testing::AssertionFailure()
           << "size " << tested.size() << " vs reference " << reference.size();
  }
  auto want = reference.begin();
  std::size_t i = 0;
  for (const auto& entry : tested) {
    if (!(entry == *want)) return ::testing::AssertionFailure() << "entry " << i << " differs";
    ++want;
    ++i;
  }
  return ::testing::AssertionSuccess();
}

enum class MapOp { kSubscript, kEmplace, kFind, kFindMutable, kContains };

struct Step {
  MapOp op = MapOp::kSubscript;
  std::size_t key = 0;  // index into the key pool
  std::uint64_t value = 0;
};

Step RandomMapStep(Rng& rng, std::size_t pool_size) {
  const double u = rng.UniformDouble();
  const MapOp op = u < 0.4    ? MapOp::kSubscript
                   : u < 0.8  ? MapOp::kEmplace
                   : u < 0.85 ? MapOp::kFind
                   : u < 0.95 ? MapOp::kFindMutable
                              : MapOp::kContains;
  return {op, static_cast<std::size_t>(rng.UniformInt(0, pool_size - 1)), rng.UniformInt(0, 9)};
}

/// Applies one step to both maps; every return value must agree.
template <typename Map, typename Ref, typename Key>
void ApplyMapStep(const Step& step, const Key& key, Map& map, Ref& ref) {
  switch (step.op) {
    case MapOp::kSubscript: {
      std::uint64_t& got = map[key];
      std::uint64_t& want = ref[key];
      ASSERT_EQ(got, want);
      got += step.value;
      want += step.value;
      break;
    }
    case MapOp::kEmplace:
      ASSERT_EQ(map.Emplace(key, step.value), ref.Emplace(key, step.value));
      break;
    case MapOp::kFind: {
      const std::uint64_t* got = std::as_const(map).Find(key);
      const std::uint64_t* want = std::as_const(ref).Find(key);
      ASSERT_EQ(got == nullptr, want == nullptr);
      if (got != nullptr) {
        ASSERT_EQ(*got, *want);
      }
      break;
    }
    case MapOp::kFindMutable: {
      std::uint64_t* got = map.Find(key);
      std::uint64_t* want = ref.Find(key);
      ASSERT_EQ(got == nullptr, want == nullptr);
      if (got != nullptr) {
        *got += step.value;
        *want += step.value;
      }
      break;
    }
    case MapOp::kContains:
      ASSERT_EQ(map.Contains(key), ref.Contains(key));
      break;
  }
}

/// The twin pair replays the steps in batches of this many, so
/// `map == twin` holds after each batch and mostly fails in between.
constexpr std::size_t kTwinBatch = 64;

/// `steps` seeded operations on keys drawn from `pool`, applied to a
/// StableMap and its reference, and in batches to a twin pair whose
/// operator== verdict against them must agree too. With `reserve`,
/// both maps are reserved up front for a quarter of the pool and again,
/// populated, halfway through.
template <typename Key, typename Hash = std::hash<Key>>
void RunMapDifferential(const std::vector<Key>& pool, std::size_t steps, std::uint64_t seed,
                        bool reserve, std::size_t min_final_size) {
  StableMap<Key, std::uint64_t, Hash> map;
  StableMap<Key, std::uint64_t, Hash> twin;
  ReferenceStableMap<Key, std::uint64_t, Hash> ref;
  ReferenceStableMap<Key, std::uint64_t, Hash> twin_ref;
  if (reserve) {
    map.reserve(pool.size() / 4);
    ref.reserve(pool.size() / 4);
  }
  Rng rng(seed);
  std::vector<Step> pending;
  std::size_t equal_verdicts = 0;
  for (std::size_t i = 0; i < steps; ++i) {
    if (reserve && i == steps / 2) {
      map.reserve(pool.size());
      ref.reserve(pool.size());
    }
    const Step step = RandomMapStep(rng, pool.size());
    ApplyMapStep(step, pool[step.key], map, ref);
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "step " << i;
    pending.push_back(step);
    if (pending.size() == kTwinBatch) {
      for (const Step& p : pending) ApplyMapStep(p, pool[p.key], twin, twin_ref);
      ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "twin batch at step " << i;
      pending.clear();
    }

    ASSERT_TRUE(SameEntries(map, ref)) << "step " << i;
    const bool equal = map == twin;
    ASSERT_EQ(equal, ref == twin_ref) << "step " << i;
    equal_verdicts += equal ? 1 : 0;
  }
  EXPECT_GE(map.size(), min_final_size);
  EXPECT_GT(equal_verdicts, 0u);
  EXPECT_LT(equal_verdicts, steps);
}

/// The set analogue: Insert and Contains, same twin batches.
template <typename Key, typename Hash = std::hash<Key>>
void RunSetDifferential(const std::vector<Key>& pool, std::size_t steps, std::uint64_t seed,
                        bool reserve, std::size_t min_final_size) {
  StableSet<Key, Hash> set;
  StableSet<Key, Hash> twin;
  ReferenceStableSet<Key, Hash> ref;
  ReferenceStableSet<Key, Hash> twin_ref;
  if (reserve) {
    set.reserve(pool.size() / 4);
    ref.reserve(pool.size() / 4);
  }
  Rng rng(seed);
  std::vector<std::size_t> pending;  // keys inserted since the twin's last batch
  std::size_t equal_verdicts = 0;
  for (std::size_t i = 0; i < steps; ++i) {
    if (reserve && i == steps / 2) {
      set.reserve(pool.size());
      ref.reserve(pool.size());
    }
    const bool insert = rng.Chance(0.8);
    const std::size_t key = static_cast<std::size_t>(rng.UniformInt(0, pool.size() - 1));
    if (insert) {
      ASSERT_EQ(set.Insert(pool[key]), ref.Insert(pool[key])) << "step " << i;
      pending.push_back(key);
    } else {
      ASSERT_EQ(set.Contains(pool[key]), ref.Contains(pool[key])) << "step " << i;
    }
    if (i % kTwinBatch == kTwinBatch - 1) {
      for (const std::size_t k : pending) ASSERT_EQ(twin.Insert(pool[k]), twin_ref.Insert(pool[k]));
      pending.clear();
    }

    ASSERT_TRUE(SameEntries(set, ref)) << "step " << i;
    const bool equal = set == twin;
    ASSERT_EQ(equal, ref == twin_ref) << "step " << i;
    equal_verdicts += equal ? 1 : 0;
  }
  EXPECT_GE(set.size(), min_final_size);
  EXPECT_GT(equal_verdicts, 0u);
  EXPECT_LT(equal_verdicts, steps);
}

// 8000 steps, 80% of them inserting, draw ~6400 keys from 8000: ~4400
// distinct entries, enough for ten doublings.
constexpr std::size_t kPool = 8000;
constexpr std::size_t kSteps = 8000;

TEST(StableMapDifferential, PrefixKeysMatchTheReference) {
  const std::vector<Prefix> pool = PrefixPool(20161224, kPool);
  for (const bool reserve : {false, true}) {
    SCOPED_TRACE(reserve ? "reserved" : "unreserved");
    RunMapDifferential(pool, kSteps, 1, reserve, kTenDoublings);
    RunSetDifferential(pool, kSteps, 2, reserve, kTenDoublings);
  }
}

TEST(StableMapDifferential, AsNumberKeysMatchTheReference) {
  const std::vector<asdb::AsNumber> pool = AsnPool(42, kPool);
  for (const bool reserve : {false, true}) {
    SCOPED_TRACE(reserve ? "reserved" : "unreserved");
    RunMapDifferential(pool, kSteps, 3, reserve, kTenDoublings);
    RunSetDifferential(pool, kSteps, 4, reserve, kTenDoublings);
  }
}

TEST(StableMapDifferential, StringKeysMatchTheReference) {
  const std::vector<std::string> pool = StringPool(7, kPool);
  for (const bool reserve : {false, true}) {
    SCOPED_TRACE(reserve ? "reserved" : "unreserved");
    RunMapDifferential(pool, kSteps, 5, reserve, kTenDoublings);
    RunSetDifferential(pool, kSteps, 6, reserve, kTenDoublings);
  }
}

TEST(StableMapDifferential, OneProbeChainMatchesTheReference) {
  const std::vector<Prefix> pool = PrefixPool(99, 600);
  for (const bool reserve : {false, true}) {
    SCOPED_TRACE(reserve ? "reserved" : "unreserved");
    RunMapDifferential<Prefix, ConstantHash>(pool, 900, 8, reserve, 300);
    RunSetDifferential<Prefix, ConstantHash>(pool, 900, 9, reserve, 300);
  }
}

TEST(StableMapDifferential, EqualityIgnoresInsertionOrder) {
  const std::vector<Prefix> pool = PrefixPool(5, 2000);
  StableMap<Prefix, std::uint64_t> forward;
  StableMap<Prefix, std::uint64_t> backward;
  for (std::size_t i = 0; i < pool.size(); ++i) forward.Emplace(pool[i], i);
  for (std::size_t i = pool.size(); i-- > 0;) backward.Emplace(pool[i], i);
  EXPECT_TRUE(forward == backward);
  EXPECT_FALSE(SameEntries(forward, backward));
  *backward.Find(pool[17]) += 1;
  EXPECT_FALSE(forward == backward);

  const StableSet<Prefix> set_forward(pool.begin(), pool.end());
  const StableSet<Prefix> set_backward(pool.rbegin(), pool.rend());
  EXPECT_TRUE(set_forward == set_backward);
  const StableSet<Prefix> missing_one(pool.begin() + 1, pool.end());
  EXPECT_FALSE(set_forward == missing_one);
}

// ---- the index on its own ---------------------------------------------------

TEST(PositionIndex, GrowthKeepsEveryPosition) {
  std::vector<std::uint64_t> keys;
  PositionIndex<std::uint64_t> index;
  const auto key_at = [&keys](std::size_t i) { return keys[i]; };
  Rng rng(11);
  std::size_t doublings = 0;
  while (keys.size() < 3 * kTenDoublings) {
    const std::uint64_t key = rng.UniformInt(0, ~std::uint64_t{0});
    const std::size_t before = index.slot_count();
    const auto [pos, inserted] = index.Insert(key, keys.size(), key_at);
    if (!inserted) continue;
    ASSERT_EQ(pos, keys.size());
    keys.push_back(key);
    if (before != 0 && index.slot_count() != before) {
      ++doublings;
      ASSERT_EQ(index.slot_count(), 2 * before);
      // A growth rehash re-places slots by tag alone: every key must
      // still resolve to its position.
      for (std::size_t i = 0; i < keys.size(); ++i) ASSERT_EQ(index.Find(keys[i], key_at), i);
    }
    ASSERT_LE(2 * index.size(), index.slot_count());
  }
  EXPECT_GE(doublings, 10u);
  EXPECT_EQ(index.size(), keys.size());
  std::unordered_map<std::uint64_t, std::size_t> oracle;
  for (std::size_t i = 0; i < keys.size(); ++i) oracle.emplace(keys[i], i);
  for (int probe = 0; probe < 20000; ++probe) {
    const std::uint64_t key = rng.UniformInt(0, ~std::uint64_t{0});
    const auto it = oracle.find(key);
    EXPECT_EQ(index.Find(key, key_at), it == oracle.end() ? index.npos : it->second);
  }
}

TEST(PositionIndex, PositionsPast32BitsThrowLengthError) {
  // Keys equal their positions, so no sequence has to hold 2^32 entries.
  PositionIndex<std::uint64_t> index;
  const auto key_at = [](std::size_t i) { return std::uint64_t{i}; };
  EXPECT_TRUE(index.Insert(0xFFFFFFFEULL, 0xFFFFFFFEULL, key_at).second);
  EXPECT_THROW((void)index.Insert(0xFFFFFFFFULL, 0xFFFFFFFFULL, key_at), std::length_error);
  EXPECT_THROW((void)index.Insert(std::uint64_t{1} << 32, std::size_t{1} << 32, key_at),
               std::length_error);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.Find(0xFFFFFFFEULL, key_at), 0xFFFFFFFEULL);
  EXPECT_EQ(index.Find(0xFFFFFFFFULL, key_at), index.npos);
}

// ---- the hash ----------------------------------------------------------------

TEST(PrefixHash, EqualPrefixesHashEqual) {
  const std::hash<Prefix> hash;
  const Prefix masked(IpAddress::Parse("203.0.113.77"), 24);
  EXPECT_EQ(masked, Prefix::Parse("203.0.113.0/24"));
  EXPECT_EQ(hash(masked), hash(Prefix::Parse("203.0.113.0/24")));
  const Prefix v6(IpAddress::Parse("2001:db8:abcd:1234::1"), 48);
  EXPECT_EQ(v6, Prefix::Parse("2001:db8:abcd::/48"));
  EXPECT_EQ(hash(v6), hash(Prefix::Parse("2001:db8:abcd::/48")));
  for (const Prefix& p : PrefixPool(3, 500)) {
    const Prefix copy(p.address(), p.length());
    EXPECT_EQ(hash(copy), hash(p)) << p.ToString();
  }
}

TEST(PrefixHash, ZeroPrefixesOfTheTwoFamiliesAreDistinctKeys) {
  const Prefix v4 = Prefix::Parse("0.0.0.0/0");
  const Prefix v6 = Prefix::Parse("::/0");
  EXPECT_EQ(v4.address().bytes(), v6.address().bytes());
  StableMap<Prefix, int> map;
  map[v4] = 4;
  map[v6] = 6;
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(*map.Find(v4), 4);
  EXPECT_EQ(*map.Find(v6), 6);
  StableSet<Prefix> set;
  EXPECT_TRUE(set.Insert(v6));
  EXPECT_FALSE(set.Contains(v4));
  EXPECT_TRUE(set.Insert(v4));
  EXPECT_EQ(set.size(), 2u);
}

// ---- the World and AsDatabase indexes -----------------------------------------

const simnet::World& TinyWorld() {
  static const simnet::World world = simnet::World::Generate(simnet::WorldConfig::Tiny());
  return world;
}

template <typename Range, typename Match>
auto LinearScan(const Range& range, Match match) -> decltype(&*range.begin()) {
  for (const auto& item : range) {
    if (match(item)) return &item;
  }
  return nullptr;
}

TEST(WorldIndex, FindSubnetAndFindOperatorMatchALinearScan) {
  const simnet::World& world = TinyWorld();
  ASSERT_GT(world.subnets().size(), 0u);
  for (const simnet::Subnet& s : world.subnets()) {
    EXPECT_EQ(world.FindSubnet(s.block), &s) << s.block.ToString();
  }
  for (const simnet::OperatorInfo& op : world.operators()) {
    EXPECT_EQ(world.FindOperator(op.asn), &op) << op.asn;
  }
  // Absent keys, including near misses: the neighbouring block, the
  // same bytes under the other length, ASNs between the real ones.
  for (const Prefix& probe : PrefixPool(17, 2000)) {
    EXPECT_EQ(world.FindSubnet(probe),
              LinearScan(world.subnets(),
                         [&](const simnet::Subnet& s) { return s.block == probe; }));
  }
  for (const simnet::Subnet& s : world.subnets().first(50)) {
    const Prefix wider(s.block.address(), s.block.length() - 1);
    EXPECT_EQ(world.FindSubnet(wider),
              LinearScan(world.subnets(),
                         [&](const simnet::Subnet& t) { return t.block == wider; }));
  }
  for (asdb::AsNumber asn = 0; asn < 6000; ++asn) {
    EXPECT_EQ(world.FindOperator(asn),
              LinearScan(world.operators(),
                         [&](const simnet::OperatorInfo& op) { return op.asn == asn; }))
        << asn;
  }
}

TEST(AsDatabaseIndex, FindAndUpsertMatchALinearScan) {
  asdb::AsDatabase db = TinyWorld().as_db();
  ASSERT_GT(db.size(), 2u);
  for (asdb::AsNumber asn = 1; asn < 6000; ++asn) {
    EXPECT_EQ(db.Find(asn),
              LinearScan(db.records(), [&](const asdb::AsRecord& r) { return r.asn == asn; }))
        << asn;
  }

  // Replacing a record keeps its position; a new ASN appends.
  const std::size_t size = db.size();
  const std::size_t middle = size / 2;
  asdb::AsRecord replacement = db.records()[middle];
  replacement.name = "replaced";
  db.Upsert(replacement);
  EXPECT_EQ(db.size(), size);
  EXPECT_EQ(db.records()[middle].name, "replaced");
  EXPECT_EQ(db.Find(replacement.asn), &db.records()[middle]);

  asdb::AsRecord fresh;
  fresh.asn = 4000000000U;
  fresh.name = "fresh";
  db.Upsert(fresh);
  ASSERT_EQ(db.size(), size + 1);
  EXPECT_EQ(db.records().back().name, "fresh");
  EXPECT_EQ(db.Find(fresh.asn), &db.records().back());
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(db.Find(db.records()[i].asn), &db.records()[i]);
  }
}

}  // namespace
}  // namespace cellspot::util
