// Differential property tests locking FlatLpm and asdb::RoutingTable to
// the reference trie (tests/support/reference_prefix_trie.hpp): on seeded
// random prefix sets (nested, overlapping, both families) every lookup
// form — single, with-length, batch, chunked through an executor at
// 1/2/8 threads — must agree with the trie bit for bit, and on seeded
// announcement sequences (repeats, re-announcements to another origin,
// default routes) the routing table must hold exactly the trie's routes
// in its ForEach order. Also covers the payload round-trip
// (Encode/View), the mmap-served snapshot path (ReadSnapshotFile
// + DecodeRibLpm, and the StageCache lpm entry) and a corruption matrix
// over the lpm snapshot file.
#include "cellspot/netaddr/flat_lpm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cellspot/asdb/as_database.hpp"
#include "cellspot/exec/executor.hpp"
#include "cellspot/faultsim/stream_corruptor.hpp"
#include "cellspot/obs/metrics.hpp"
#include "cellspot/snapshot/serde.hpp"
#include "cellspot/snapshot/snapshot.hpp"
#include "cellspot/snapshot/stage_cache.hpp"
#include "cellspot/util/rng.hpp"
#include "support/reference_prefix_trie.hpp"

namespace cellspot::netaddr {
namespace {

namespace fs = std::filesystem;
using test_support::PrefixTrie;

IpAddress RandomV4(util::Rng& rng) {
  return IpAddress::V4(static_cast<std::uint32_t>(rng.UniformInt(0, 0xFFFFFFFFULL)));
}

IpAddress RandomV6(util::Rng& rng) {
  std::array<std::uint8_t, 16> bytes{};
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
  return IpAddress::V6(bytes);
}

/// A deliberately clumpy random prefix set: half the prefixes are
/// refinements of earlier ones, so nesting and overlap are common.
std::vector<Prefix> RandomPrefixSet(util::Rng& rng, std::size_t count) {
  std::vector<Prefix> prefixes;
  prefixes.reserve(count);
  while (prefixes.size() < count) {
    const bool v6 = rng.Chance(0.35);
    IpAddress addr = v6 ? RandomV6(rng) : RandomV4(rng);
    int length;
    if (!prefixes.empty() && rng.Chance(0.5)) {
      // Refine an existing prefix: same base, longer mask.
      const Prefix& base = prefixes[rng.UniformInt(0, prefixes.size() - 1)];
      const int max_len = base.family() == Family::kIpv4 ? 32 : 128;
      length = static_cast<int>(
          rng.UniformInt(static_cast<std::uint64_t>(base.length()),
                         static_cast<std::uint64_t>(max_len)));
      // Keep the covered-side bits from a fresh draw so siblings differ.
      IpAddress refined = base.address();
      IpAddress noise = base.family() == Family::kIpv4 ? RandomV4(rng) : RandomV6(rng);
      for (int bit = base.length(); bit < length; ++bit) {
        refined = refined.WithBit(bit, noise.GetBit(bit));
      }
      prefixes.emplace_back(refined, length);
      continue;
    }
    const int max_len = v6 ? 128 : 32;
    length = static_cast<int>(rng.UniformInt(1, static_cast<std::uint64_t>(max_len)));
    prefixes.emplace_back(addr, length);
  }
  return prefixes;
}

/// Probe addresses with bias toward stored-prefix boundaries, where
/// off-by-one bugs live: prefix bases, plus uniform random addresses.
std::vector<IpAddress> ProbeSet(util::Rng& rng, const std::vector<Prefix>& prefixes,
                                std::size_t random_count) {
  std::vector<IpAddress> probes;
  probes.reserve(prefixes.size() + random_count);
  for (const Prefix& p : prefixes) probes.push_back(p.address());
  for (std::size_t i = 0; i < random_count; ++i) {
    probes.push_back(rng.Chance(0.35) ? RandomV6(rng) : RandomV4(rng));
  }
  return probes;
}

/// The trie's contents in ForEach (pre-)order, which is Prefix order:
/// the input FlatLpm::Build takes.
template <typename T>
std::vector<std::pair<Prefix, T>> EntriesOf(const PrefixTrie<T>& trie) {
  std::vector<std::pair<Prefix, T>> entries;
  trie.ForEach([&](const Prefix& p, const T& v) { entries.emplace_back(p, v); });
  return entries;
}

template <typename T>
FlatLpm<T> BuildFrom(const PrefixTrie<T>& trie) {
  return FlatLpm<T>::Build(EntriesOf(trie));
}

/// Decodes `payload` as a snapshot does: a validating View, here over a
/// buffer the returned engine keeps alive.
FlatLpm<std::uint32_t> ViewOf(std::string payload) {
  auto buffer = std::make_shared<const std::string>(std::move(payload));
  return FlatLpm<std::uint32_t>::View(*buffer, buffer);
}

template <typename T>
void ExpectSameLookups(const PrefixTrie<T>& trie, const FlatLpm<T>& flat,
                       const std::vector<IpAddress>& probes) {
  for (const IpAddress& addr : probes) {
    const T* want = trie.LongestMatch(addr);
    const T* got = flat.LongestMatch(addr);
    ASSERT_EQ(want == nullptr, got == nullptr) << addr.ToString();
    if (want != nullptr) {
      ASSERT_EQ(*want, *got) << addr.ToString();
    }

    const auto want_len = trie.LongestMatchWithLength(addr);
    const auto got_len = flat.LongestMatchWithLength(addr);
    ASSERT_EQ(want_len.has_value(), got_len.has_value()) << addr.ToString();
    if (want_len.has_value()) {
      ASSERT_EQ(want_len->first, got_len->first) << addr.ToString();
      ASSERT_EQ(*want_len->second, *got_len->second) << addr.ToString();
    }
  }
}

TEST(FlatLpmDifferential, MatchesTrieOnSeededRandomSets) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1337ULL, 99991ULL}) {
    util::Rng rng(seed);
    const std::size_t count = 1 + rng.UniformInt(0, 400);
    const std::vector<Prefix> prefixes = RandomPrefixSet(rng, count);
    PrefixTrie<std::uint32_t> trie;
    for (std::size_t i = 0; i < prefixes.size(); ++i) {
      trie.Insert(prefixes[i], static_cast<std::uint32_t>(i + 1));
    }
    const FlatLpm<std::uint32_t> flat = BuildFrom(trie);
    EXPECT_EQ(flat.size(), trie.size());
    ExpectSameLookups(trie, flat, ProbeSet(rng, prefixes, 2000));
  }
}

TEST(FlatLpmDifferential, ZeroLengthPrefixCoversEverything) {
  PrefixTrie<std::uint32_t> trie;
  trie.Insert(Prefix::Parse("0.0.0.0/0"), 7);
  trie.Insert(Prefix::Parse("10.0.0.0/8"), 8);
  trie.Insert(Prefix::Parse("::/0"), 9);
  const auto flat = BuildFrom(trie);
  util::Rng rng(5);
  ExpectSameLookups(trie, flat, ProbeSet(rng, {Prefix::Parse("10.1.2.0/24")}, 500));
  ASSERT_NE(flat.LongestMatch(IpAddress::Parse("255.255.255.255")), nullptr);
  EXPECT_EQ(*flat.LongestMatch(IpAddress::Parse("255.255.255.255")), 7u);
  ASSERT_NE(flat.LongestMatch(IpAddress::Parse("ffff::1")), nullptr);
  EXPECT_EQ(*flat.LongestMatch(IpAddress::Parse("ffff::1")), 9u);
}

TEST(FlatLpmDifferential, EmptyTrie) {
  const auto flat = BuildFrom(PrefixTrie<std::uint32_t>{});
  EXPECT_TRUE(flat.empty());
  EXPECT_EQ(flat.segment_count(), 0u);
  EXPECT_EQ(flat.LongestMatch(IpAddress::Parse("1.2.3.4")), nullptr);
  EXPECT_EQ(flat.LongestMatch(IpAddress::Parse("2001:db8::1")), nullptr);
  // Round-trips through its (valid) empty payload.
  const auto decoded = ViewOf(flat.Encode());
  EXPECT_TRUE(decoded.empty());

  const FlatLpm<std::uint32_t> default_constructed;
  EXPECT_TRUE(default_constructed.empty());
  EXPECT_EQ(default_constructed.LongestMatch(IpAddress::Parse("1.2.3.4")), nullptr);
  EXPECT_EQ(ViewOf(default_constructed.Encode()).size(), 0u);
}

TEST(FlatLpmDifferential, BatchAndChunkedMatchSingleLookups) {
  util::Rng rng(2024);
  const std::vector<Prefix> prefixes = RandomPrefixSet(rng, 300);
  PrefixTrie<std::uint32_t> trie;
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    trie.Insert(prefixes[i], static_cast<std::uint32_t>(i + 1));
  }
  const auto flat = BuildFrom(trie);
  const std::vector<IpAddress> probes = ProbeSet(rng, prefixes, 3000);

  std::vector<std::uint32_t> values(probes.size());
  flat.LongestMatchBatch(probes, values, std::uint32_t{0});
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const std::uint32_t* single = flat.LongestMatch(probes[i]);
    EXPECT_EQ(values[i], single == nullptr ? 0u : *single);
  }

  // Chunked through a real executor, one batch per subspan, as the
  // pipeline drives it: identical output at any width.
  for (const unsigned threads : {1u, 2u, 8u}) {
    exec::Executor executor(threads);
    std::vector<std::uint32_t> chunked(probes.size());
    const std::span<const IpAddress> in(probes);
    const std::span<std::uint32_t> out(chunked);
    executor.ParallelFor(probes.size(), /*grain=*/64, [&](std::size_t begin, std::size_t end) {
      flat.LongestMatchBatch(in.subspan(begin, end - begin), out.subspan(begin, end - begin),
                             std::uint32_t{0});
    });
    EXPECT_EQ(chunked, values) << threads << " threads";
  }
}

TEST(FlatLpmDifferential, BuildRejectsUnsortedOrRepeatedPrefixes) {
  using Entries = std::vector<std::pair<Prefix, std::uint32_t>>;
  const Prefix outer = Prefix::Parse("10.0.0.0/8");
  const Prefix inner = Prefix::Parse("10.0.0.0/16");
  const Prefix v6 = Prefix::Parse("2001:db8::/32");
  EXPECT_EQ(FlatLpm<std::uint32_t>::Build(Entries{{outer, 1}, {inner, 2}, {v6, 3}}).size(), 3u);
  for (const Entries& bad : {Entries{{inner, 2}, {outer, 1}},            // covered first
                             Entries{{v6, 3}, {outer, 1}},               // v6 before v4
                             Entries{{outer, 1}, {outer, 1}},            // repeated
                             Entries{{outer, 1}, {inner, 2}, {outer, 4}}}) {
    EXPECT_THROW((void)FlatLpm<std::uint32_t>::Build(bad), FlatLpmError);
  }
  const std::vector<Prefix> unsorted = {inner, outer};
  EXPECT_THROW((void)FlatLpm<bool>::Build(unsorted, true), FlatLpmError);
}

TEST(FlatLpmDifferential, EncodeDecodeViewRoundTrip) {
  util::Rng rng(31337);
  const std::vector<Prefix> prefixes = RandomPrefixSet(rng, 250);
  PrefixTrie<std::uint32_t> trie;
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    trie.Insert(prefixes[i], static_cast<std::uint32_t>(i + 1));
  }
  const auto flat = BuildFrom(trie);
  EXPECT_FALSE(flat.is_view());
  const std::string payload = flat.Encode();

  // View over an external buffer, which must stay pinned by keepalive
  // even after the original goes away.
  auto buffer = std::make_shared<std::string>(payload);
  auto view = FlatLpm<std::uint32_t>::View(*buffer, buffer);
  EXPECT_TRUE(view.is_view());
  EXPECT_EQ(view.payload_bytes(), payload.size());
  EXPECT_EQ(view.Encode(), payload);
  buffer.reset();

  const std::vector<IpAddress> probes = ProbeSet(rng, prefixes, 1500);
  ExpectSameLookups(trie, flat, probes);
  ExpectSameLookups(trie, view, probes);
}

/// True when a View over `bytes` rejects them with a FlatLpmError; any
/// other exception escapes to the test. `bytes` outlive the call, so no
/// keepalive is needed.
bool DecodeRejects(std::string_view bytes) {
  try {
    (void)FlatLpm<std::uint32_t>::View(bytes, nullptr);
  } catch (const FlatLpmError&) {
    return true;
  }
  return false;
}

TEST(FlatLpmDifferential, DecodeRejectsStructuralDamageWithoutCrashing) {
  util::Rng rng(777);
  // Each family is drawn until it compiles to FlatLpm's bucket-table
  // threshold (64 segments), so the payload carries both tables and the
  // damage below covers every part of the layout.
  constexpr std::uint64_t kIndexThreshold = 64;
  PrefixTrie<std::uint32_t> trie;
  std::uint32_t next_value = 1;
  for (const Family family : {Family::kIpv4, Family::kIpv6}) {
    PrefixTrie<std::uint32_t> own;
    while (BuildFrom(own).segment_count() < kIndexThreshold) {
      for (const Prefix& p : RandomPrefixSet(rng, 8)) {
        if (p.family() != family) continue;
        own.Insert(p, next_value);
        trie.Insert(p, next_value++);
      }
    }
  }
  const std::string payload = BuildFrom(trie).Encode();
  const auto header_u64 = [&payload](std::size_t offset) {
    std::uint64_t v = 0;
    for (std::size_t i = 8; i-- > 0;) {
      v = v << 8 | static_cast<unsigned char>(payload[offset + i]);
    }
    return v;
  };
  const std::uint64_t n_prefixes = header_u64(8);
  const std::uint64_t s4 = header_u64(16);
  const std::uint64_t s6 = header_u64(24);
  ASSERT_GE(s4, kIndexThreshold);
  ASSERT_GE(s6, kIndexThreshold);
  constexpr std::uint64_t kBucketTableBytes = 65537 * 4;
  ASSERT_EQ(payload.size(),
            34 + n_prefixes * 5 + s4 * 12 + s6 * 36 + 2 * kBucketTableBytes);

  // Truncations at every length must throw, never read out of bounds.
  // Each is rejected from the header alone.
  for (std::size_t len = 0; len < payload.size(); len += 7) {
    EXPECT_TRUE(DecodeRejects(std::string_view(payload).substr(0, len))) << len;
  }
  // Random byte flips: below the FlatLpm layer there is no CRC, so a
  // flip either trips validation (FlatLpmError) or lands in a value
  // slot and yields a well-formed engine — but never a crash. The
  // snapshot container's CRC is what catches the silent case on disk.
  std::string bent = payload;
  for (int i = 0; i < 300; ++i) {
    const std::size_t at = rng.UniformInt(0, bent.size() - 1);
    const auto bit = static_cast<char>(1U << rng.UniformInt(0, 7));
    bent[at] ^= bit;
    try {
      const auto decoded = FlatLpm<std::uint32_t>::View(bent, nullptr);
      (void)decoded.LongestMatch(IpAddress::Parse("10.1.2.3"));
      (void)decoded.LongestMatch(IpAddress::Parse("2001:db8::1"));
    } catch (const FlatLpmError&) {
      // rejected: fine
    }
    bent[at] ^= bit;
  }
}

// ---- snapshot + mmap serving ---------------------------------------------

std::string ReadFileBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFileBytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t CounterValue(std::string_view name) {
  for (const auto& c : obs::MetricsRegistry::Global().Snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

asdb::RoutingTable MakeRib(std::uint64_t seed, std::size_t prefix_count) {
  util::Rng rng(seed);
  std::vector<asdb::RoutingTable::Route> announcements;
  for (const Prefix& p : RandomPrefixSet(rng, prefix_count)) {
    announcements.emplace_back(p, static_cast<asdb::AsNumber>(rng.UniformInt(1, 5000)));
  }
  return asdb::RoutingTable(std::move(announcements));
}

// ---- RoutingTable vs the trie ----------------------------------------------

/// A seeded announcement sequence with the shapes of a RIB feed: both
/// families, nested prefixes, default routes at random positions, exact
/// repeats, and re-announcements that move a prefix to another origin
/// (the generator's transit aggregates do this a few times per world).
std::vector<asdb::RoutingTable::Route> RandomAnnouncements(util::Rng& rng,
                                                           std::size_t count) {
  std::vector<Prefix> fresh = RandomPrefixSet(rng, count);
  for (const char* default_route : {"0.0.0.0/0", "::/0"}) {
    fresh.insert(fresh.begin() + static_cast<std::ptrdiff_t>(rng.UniformInt(0, fresh.size())),
                 Prefix::Parse(default_route));
  }
  const auto origin = [&] { return static_cast<asdb::AsNumber>(rng.UniformInt(1, 5000)); };
  std::vector<asdb::RoutingTable::Route> sequence;
  for (const Prefix& p : fresh) {
    sequence.emplace_back(p, origin());
    if (rng.Chance(0.25)) {
      const asdb::RoutingTable::Route earlier = sequence[rng.UniformInt(0, sequence.size() - 1)];
      sequence.emplace_back(earlier.first, rng.Chance(0.3) ? earlier.second : origin());
    }
  }
  return sequence;
}

/// `a` moved by one address (+1 or -1) within its family, or nullopt
/// past either end of the address space.
std::optional<IpAddress> StepAddress(const IpAddress& a, int delta) {
  std::array<std::uint8_t, 16> bytes = a.bytes();
  const std::size_t width = a.is_v4() ? 4 : 16;
  const std::uint8_t wrap = delta > 0 ? 0x00 : 0xFF;
  for (std::size_t i = width; i-- > 0;) {
    bytes[i] = static_cast<std::uint8_t>(bytes[i] + delta);
    if (bytes[i] != wrap) {
      return a.is_v4() ? IpAddress::V4((std::uint32_t{bytes[0]} << 24) |
                                       (std::uint32_t{bytes[1]} << 16) |
                                       (std::uint32_t{bytes[2]} << 8) | bytes[3])
                       : IpAddress::V6(bytes);
    }
  }
  return std::nullopt;
}

/// Addresses on and just across every route's range edges: its first
/// and last address, and their outside neighbours where they exist.
std::vector<IpAddress> BoundaryProbes(std::span<const asdb::RoutingTable::Route> routes) {
  std::vector<IpAddress> probes;
  for (const auto& [prefix, asn] : routes) {
    IpAddress last = prefix.address();
    for (int bit = prefix.length(); bit < last.bit_width(); ++bit) last = last.WithBit(bit, true);
    probes.push_back(prefix.address());
    probes.push_back(last);
    if (const auto before = StepAddress(prefix.address(), -1)) probes.push_back(*before);
    if (const auto after = StepAddress(last, +1)) probes.push_back(*after);
  }
  return probes;
}

TEST(RoutingTableDifferential, MatchesTrieOnSeededAnnouncementSequences) {
  for (const std::uint64_t seed : {3ULL, 42ULL, 2016ULL, 20161224ULL, 86243ULL}) {
    util::Rng rng(seed);
    const std::vector<asdb::RoutingTable::Route> sequence =
        RandomAnnouncements(rng, 1 + rng.UniformInt(0, 500));
    PrefixTrie<asdb::AsNumber> trie;
    for (const auto& [prefix, asn] : sequence) trie.Insert(prefix, asn);
    const asdb::RoutingTable rib(sequence);

    ASSERT_EQ(rib.size(), trie.size()) << "seed " << seed;
    EXPECT_TRUE(std::ranges::equal(rib.entries(), EntriesOf(trie))) << "seed " << seed;

    // Input already in Prefix order (repeats keeping their relative
    // order) takes the no-sort path to the same table.
    std::vector<asdb::RoutingTable::Route> sorted = sequence;
    std::ranges::stable_sort(sorted, {}, &asdb::RoutingTable::Route::first);
    EXPECT_TRUE(std::ranges::equal(asdb::RoutingTable(sorted).entries(), rib.entries()))
        << "seed " << seed;

    std::vector<IpAddress> probes = BoundaryProbes(rib.entries());
    const std::vector<IpAddress> random = ProbeSet(rng, {}, 2000);
    probes.insert(probes.end(), random.begin(), random.end());
    std::vector<asdb::AsNumber> want(probes.size());
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const asdb::AsNumber* found = trie.LongestMatch(probes[i]);
      want[i] = found == nullptr ? 0 : *found;
      ASSERT_EQ(rib.OriginOf(probes[i]).value_or(0), want[i]) << probes[i].ToString();
    }

    // The batch form, with the engine compiled by whichever executor
    // worker gets there first.
    const asdb::RoutingTable fresh(sequence);
    exec::Executor executor(4);
    std::vector<asdb::AsNumber> got(probes.size());
    const std::span<const IpAddress> in(probes);
    const std::span<asdb::AsNumber> out(got);
    executor.ParallelFor(probes.size(), /*grain=*/128, [&](std::size_t begin, std::size_t end) {
      fresh.OriginOfBatch(in.subspan(begin, end - begin), out.subspan(begin, end - begin));
    });
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

TEST(FlatLpmSnapshot, MmapServedEngineMatchesBuiltEngine) {
  const fs::path dir = fs::path(::testing::TempDir()) / "lpm_mmap_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path path = dir / "lpm.snap";

  asdb::RoutingTable rib = MakeRib(11, 200);
  snapshot::WriteSnapshotFile(path, snapshot::EncodeRibLpm(rib));

  util::Rng rng(12);
  std::vector<IpAddress> probes = ProbeSet(rng, {}, 2000);

  // The engine keeps the mapping alive after the image dies.
  asdb::RoutingTable::FlatRib viewed;
  {
    const snapshot::SnapshotImage image = snapshot::ReadSnapshotFile(path);
    viewed = snapshot::DecodeRibLpm(image);
    EXPECT_EQ(viewed.payload_bytes(), image.Payload(snapshot::kLpmRibSection).size());
  }
  EXPECT_TRUE(viewed.is_view());
  EXPECT_EQ(viewed.size(), rib.size());
  for (const IpAddress& addr : probes) {
    const auto want = rib.OriginOf(addr);
    const asdb::AsNumber* got = viewed.LongestMatch(addr);
    ASSERT_EQ(want.has_value(), got != nullptr) << addr.ToString();
    if (want.has_value()) {
      ASSERT_EQ(*want, *got) << addr.ToString();
    }
  }

  // A fresh table with identical announcements adopts it wholesale.
  asdb::RoutingTable rib2 = MakeRib(11, 200);
  EXPECT_TRUE(rib2.AdoptFlat(std::move(viewed)));
  EXPECT_TRUE(rib2.has_flat());
  for (const IpAddress& addr : probes) {
    ASSERT_EQ(rib.OriginOf(addr), rib2.OriginOf(addr)) << addr.ToString();
  }
}

TEST(FlatLpmSnapshot, AdoptRejectsMismatchedEngine) {
  asdb::RoutingTable rib = MakeRib(21, 100);
  asdb::RoutingTable other = MakeRib(22, 150);
  EXPECT_FALSE(rib.AdoptFlat(other.Flat()));
  EXPECT_TRUE(other.has_flat());
}

class LpmCacheCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::Global().ResetForTest();
    dir_ = fs::path(::testing::TempDir()) /
           ("lpmcorrupt_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    config_ = simnet::WorldConfig::Tiny();
    rib_ = MakeRib(33, 180);
    cache_.emplace(dir_);
    ASSERT_TRUE(cache_->enabled());
    cache_->StoreLpm(config_, rib_);
    path_ = cache_->LpmPath(config_);
    ASSERT_TRUE(fs::exists(path_));
    clean_bytes_ = ReadFileBytes(path_);
  }

  /// The damaged file must miss with `reason`, be quarantined, and a
  /// re-store must bring the warm mmap path back, byte-identical.
  void ExpectRejectedThenRecovers(std::string_view reason) {
    auto loaded = cache_->TryLoadLpm(config_);
    EXPECT_FALSE(loaded.has_value());
    EXPECT_EQ(CounterValue("snapshot.miss." + std::string(reason)), 1u)
        << "expected reason " << reason;
    EXPECT_FALSE(fs::exists(path_)) << "corrupt file must not stay in place";
    EXPECT_TRUE(fs::exists(path_.string() + ".corrupt"));

    cache_->StoreLpm(config_, rib_);
    EXPECT_EQ(ReadFileBytes(path_), clean_bytes_);
    auto reloaded = cache_->TryLoadLpm(config_);
    ASSERT_TRUE(reloaded.has_value());
    EXPECT_EQ(reloaded->Encode(), rib_.Flat().Encode());
  }

  fs::path dir_;
  fs::path path_;
  simnet::WorldConfig config_;
  asdb::RoutingTable rib_;
  std::optional<snapshot::StageCache> cache_;
  std::string clean_bytes_;
};

TEST_F(LpmCacheCorruption, WarmLoadIsAViewAndMatches) {
  auto loaded = cache_->TryLoadLpm(config_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->is_view());
  EXPECT_EQ(CounterValue("snapshot.hit"), 1u);
  ASSERT_TRUE(rib_.AdoptFlat(std::move(*loaded)));
  EXPECT_EQ(CounterValue("lpm.adopt"), 1u);
  util::Rng rng(34);
  asdb::RoutingTable cold = MakeRib(33, 180);
  for (const IpAddress& addr : ProbeSet(rng, {}, 1000)) {
    ASSERT_EQ(cold.OriginOf(addr), rib_.OriginOf(addr)) << addr.ToString();
  }
}

TEST_F(LpmCacheCorruption, TruncationFallsBack) {
  WriteFileBytes(path_, clean_bytes_.substr(0, clean_bytes_.size() / 2));
  ExpectRejectedThenRecovers("truncated");
}

TEST_F(LpmCacheCorruption, MagicFlipFallsBack) {
  std::string bytes = clean_bytes_;
  bytes[0] ^= 0x01;
  WriteFileBytes(path_, bytes);
  ExpectRejectedThenRecovers("bad-magic");
}

TEST_F(LpmCacheCorruption, PayloadFlipFailsCrc) {
  std::string bytes = clean_bytes_;
  bytes.back() ^= 0x40;
  WriteFileBytes(path_, bytes);
  ExpectRejectedThenRecovers("checksum");
}

TEST_F(LpmCacheCorruption, EmptyFileIsTruncated) {
  WriteFileBytes(path_, "");
  ExpectRejectedThenRecovers("truncated");
}

TEST_F(LpmCacheCorruption, StreamCorruptorDamageNeverCrashesOrLies) {
  std::istringstream in(clean_bytes_);
  std::ostringstream out;
  faultsim::StreamCorruptor corruptor(faultsim::FaultMix::Destructive(0.8), 4321);
  const auto stats = corruptor.Corrupt(in, out);
  ASSERT_GT(stats.total_faults(), 0u);
  ASSERT_NE(out.str(), clean_bytes_);
  WriteFileBytes(path_, out.str());

  auto loaded = cache_->TryLoadLpm(config_);
  EXPECT_FALSE(loaded.has_value());
  EXPECT_GE(CounterValue("snapshot.miss"), 1u);
  EXPECT_TRUE(fs::exists(path_.string() + ".corrupt"));

  cache_->StoreLpm(config_, rib_);
  auto reloaded = cache_->TryLoadLpm(config_);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->Encode(), rib_.Flat().Encode());
}

}  // namespace
}  // namespace cellspot::netaddr
