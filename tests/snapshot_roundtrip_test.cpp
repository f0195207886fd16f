// Binary snapshot format: container/varint/CRC primitives, and the
// save -> load -> re-encode property for every serialized artifact. The
// load-bearing guarantee is byte identity: the encoded image is the
// same at any thread count, and a decoded artifact re-encodes (and
// re-exports) to exactly the bytes the original produced.
#include "cellspot/snapshot/serde.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cellspot/asdb/serialization.hpp"
#include "cellspot/cdn/beacon_generator.hpp"
#include "cellspot/cdn/demand_generator.hpp"
#include "cellspot/core/classifier.hpp"
#include "cellspot/exec/executor.hpp"
#include "cellspot/snapshot/binary_io.hpp"
#include "cellspot/snapshot/snapshot.hpp"
#include "cellspot/util/rng.hpp"
#include "support/reference_crc32.hpp"

namespace cellspot::snapshot {
namespace {

// ---- primitives ------------------------------------------------------------

TEST(Crc32, MatchesIeeeReferenceVector) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

std::string RandomBytes(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.UniformInt(0, 255));
  return out;
}

// Lengths 0-64 cover zero, one and eight 8-byte steps with every tail
// length; starts 0-7 put the first step at every alignment.
TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  const std::string buffer = RandomBytes(20161224, 7 + 64);
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const std::string_view slice = std::string_view(buffer).substr(start, length);
      EXPECT_EQ(Crc32(slice), test_support::Crc32Bytewise(slice))
          << "start " << start << ", length " << length;
    }
  }
}

TEST(Crc32, MatchesBytewiseReferenceOnAMebibytePlusATail) {
  const std::string buffer = RandomBytes(42, (std::size_t{1} << 20) + 3);
  EXPECT_EQ(Crc32(buffer), test_support::Crc32Bytewise(buffer));
}

TEST(ByteIo, RoundtripsEveryFieldType) {
  ByteWriter w;
  w.U8(0xAB);
  w.U16(0xBEEF);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.I32(-123456);
  w.Varint(0);
  w.Varint(127);
  w.Varint(128);
  w.Varint(0xFFFFFFFFFFFFFFFFull);
  w.F64(-2.5e-3);
  w.Bool(true);
  w.String("héllo");
  const std::string bytes = std::move(w).Take();

  ByteReader r(bytes);
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U16(), 0xBEEF);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I32(), -123456);
  EXPECT_EQ(r.Varint(), 0u);
  EXPECT_EQ(r.Varint(), 127u);
  EXPECT_EQ(r.Varint(), 128u);
  EXPECT_EQ(r.Varint(), 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(r.F64(), -2.5e-3);
  EXPECT_TRUE(r.Bool());
  EXPECT_EQ(r.String(), "héllo");
  EXPECT_NO_THROW(r.ExpectEnd());
}

TEST(ByteIo, TruncatedReadThrowsTruncated) {
  ByteWriter w;
  w.U64(42);
  // Keep the truncated buffer alive: ByteReader views, it does not own.
  const std::string head = std::move(w).Take().substr(0, 3);
  ByteReader r(head);
  try {
    (void)r.U64();
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.reason(), SnapshotErrorReason::kTruncated);
  }
}

TEST(ByteIo, TrailingBytesThrowMalformed) {
  ByteReader r("abc");
  (void)r.U8();
  try {
    r.ExpectEnd();
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.reason(), SnapshotErrorReason::kMalformed);
  }
}

SnapshotErrorReason ReasonOf(const std::function<void()>& body) {
  try {
    body();
  } catch (const SnapshotError& e) {
    return e.reason();
  }
  ADD_FAILURE() << "expected SnapshotError";
  return SnapshotErrorReason::kIo;
}

TEST(ByteIo, BoolAcceptsOnlyZeroAndOne) {
  const std::string bytes("\x00\x01\x02", 3);
  ByteReader r(bytes);
  EXPECT_FALSE(r.Bool());
  EXPECT_TRUE(r.Bool());
  EXPECT_EQ(ReasonOf([&] { (void)r.Bool(); }), SnapshotErrorReason::kMalformed);
}

TEST(ByteIo, VarintRejectsATenthByteAboveOne) {
  // FF x9 then 01 is the writer's encoding of 2^64-1; 02 there would be
  // bit 64, and a set continuation bit would start an eleventh byte.
  const std::string max = std::string(9, '\xff') + '\x01';
  ByteReader ok(max);
  EXPECT_EQ(ok.Varint(), 0xFFFFFFFFFFFFFFFFull);
  for (const char tenth : {'\x02', '\x7f', '\x81'}) {
    const std::string bytes = std::string(9, '\xff') + tenth + '\x00';
    ByteReader r(bytes);
    EXPECT_EQ(ReasonOf([&] { (void)r.Varint(); }), SnapshotErrorReason::kMalformed)
        << static_cast<int>(static_cast<unsigned char>(tenth));
  }
}

TEST(Container, RoundtripsSectionsThroughFile) {
  const std::vector<Section> sections = {{"alpha", "payload-1"},
                                         {"beta", std::string("\0\n\xff raw", 7)}};
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "container_roundtrip.snap";
  WriteSnapshotFile(path, sections);
  for (const SnapshotImage& loaded :
       {ReadSnapshotFile(path), DecodeSnapshot(EncodeSnapshot(sections))}) {
    ASSERT_EQ(loaded.sections().size(), 2u);
    EXPECT_EQ(loaded.sections()[0].name, "alpha");
    EXPECT_EQ(loaded.sections()[0].payload, "payload-1");
    EXPECT_EQ(loaded.sections()[1].name, "beta");
    EXPECT_EQ(loaded.sections()[1].payload, sections[1].payload);
    EXPECT_EQ(loaded.Payload("beta"), sections[1].payload);
    EXPECT_EQ(loaded.size_bytes(), std::filesystem::file_size(path));
    EXPECT_EQ(ReasonOf([&] { (void)loaded.Payload("gamma"); }),
              SnapshotErrorReason::kMalformed);
  }
  std::filesystem::remove(path);
}

TEST(Container, NonRegularFilesAreIoErrors) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "container_non_regular";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  EXPECT_EQ(ReasonOf([&] { (void)ReadSnapshotFile(dir); }), SnapshotErrorReason::kIo);
  // A FIFO would block a reader that waits for a writer; it must fail
  // at once instead.
  const std::filesystem::path fifo = dir / "fifo.snap";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  EXPECT_EQ(ReasonOf([&] { (void)ReadSnapshotFile(fifo); }), SnapshotErrorReason::kIo);
  EXPECT_EQ(ReasonOf([&] { (void)ReadSnapshotFile(dir / "absent.snap"); }),
            SnapshotErrorReason::kIo);
  std::filesystem::remove_all(dir);
}

TEST(Container, ImageViewsOutliveTheirProducerCall) {
  // The views alias bytes the keepalive owns, not the caller's buffer.
  std::string bytes = EncodeSnapshot(std::vector<Section>{{"alpha", "payload-1"}});
  const SnapshotImage image = DecodeSnapshot(bytes);
  bytes.assign(bytes.size(), 'x');
  const SnapshotImage copy = image;
  EXPECT_EQ(copy.Payload("alpha"), "payload-1");
  EXPECT_EQ(copy.keepalive(), image.keepalive());
}

/// A datasets image whose one demand row is `block_bytes` (family,
/// length, address), framed with valid CRCs so only the serde
/// validation can object.
std::string DemandImage(const std::string& block_bytes) {
  ByteWriter beacon;
  beacon.Varint(0);
  ByteWriter demand;
  demand.Varint(1);
  demand.Bytes(block_bytes);
  demand.F64(1.0);
  demand.F64(1.0);
  return EncodeSnapshot(std::vector<Section>{{"beacon.blocks", std::move(beacon).Take()},
                                             {"demand.blocks", std::move(demand).Take()}});
}

TEST(SnapshotSerde, PrefixWithHostBitsSetIsMalformed) {
  const std::string v4_net("\x04\x18\x0a\x00\x00\x00", 6);   // 10.0.0.0/24
  const std::string v4_host("\x04\x18\x0a\x00\x00\x05", 6);  // 10.0.0.5/24
  auto [beacons, demand] = DecodeDatasets(DecodeSnapshot(DemandImage(v4_net)));
  EXPECT_EQ(demand.block_count(), 1u);
  EXPECT_EQ(ReasonOf([&] { (void)DecodeDatasets(DecodeSnapshot(DemandImage(v4_host))); }),
            SnapshotErrorReason::kMalformed);

  std::string v6_host("\x06\x30", 2);  // 2001:db8::1/48
  v6_host += std::string("\x20\x01\x0d\xb8", 4) + std::string(11, '\0') + '\x01';
  EXPECT_EQ(ReasonOf([&] { (void)DecodeDatasets(DecodeSnapshot(DemandImage(v6_host))); }),
            SnapshotErrorReason::kMalformed);
}

// ---- artifact roundtrips ---------------------------------------------------

/// `sections` with the leading row count of section `name` replaced by
/// `count`, re-framed so every CRC is valid.
SnapshotImage WithRowCount(std::vector<Section> sections, std::string_view name,
                           std::uint64_t count) {
  for (Section& s : sections) {
    if (s.name != name) continue;
    ByteReader r(s.payload);
    (void)r.Varint();
    ByteWriter w;
    w.Varint(count);
    w.Bytes(s.payload.substr(s.payload.size() - r.remaining()));
    s.payload = std::move(w).Take();
  }
  return DecodeSnapshot(EncodeSnapshot(sections));
}


struct Artifacts {
  simnet::World world;
  dataset::BeaconDataset beacons;
  dataset::DemandDataset demand;
  core::ClassifiedSubnets classified;
};

Artifacts Build(unsigned threads) {
  exec::Executor ex(threads);
  Artifacts a{simnet::World::Generate(simnet::WorldConfig::Tiny(), ex), {}, {}, {}};
  a.beacons = cdn::BeaconGenerator(a.world).GenerateDataset(ex);
  a.demand = cdn::DemandGenerator(a.world).GenerateDataset(ex);
  a.classified = core::SubnetClassifier(core::ClassifierConfig{}).Classify(a.beacons, ex);
  return a;
}

std::string WorldImage(const simnet::World& world) {
  return EncodeSnapshot(EncodeWorld(world));
}

class SnapshotRoundtrip : public ::testing::TestWithParam<unsigned> {};

TEST_P(SnapshotRoundtrip, SaveLoadReencodeIsByteIdentical) {
  const Artifacts a = Build(GetParam());

  // World: decode, re-encode, compare the full container image.
  const std::string world_image = WorldImage(a.world);
  const simnet::World world2 = DecodeWorld(DecodeSnapshot(world_image));
  EXPECT_EQ(WorldImage(world2), world_image);

  // …and the decoded world re-exports the same CSVs.
  std::ostringstream asdb1, asdb2, rib1, rib2;
  asdb::SaveAsDatabaseCsv(a.world.as_db(), asdb1);
  asdb::SaveAsDatabaseCsv(world2.as_db(), asdb2);
  EXPECT_EQ(asdb2.str(), asdb1.str());
  asdb::SaveRoutingTableCsv(a.world.rib(), rib1);
  asdb::SaveRoutingTableCsv(world2.rib(), rib2);
  EXPECT_EQ(rib2.str(), rib1.str());

  // Datasets: re-encode and re-export byte-identically.
  const std::string ds_image = EncodeSnapshot(EncodeDatasets(a.beacons, a.demand));
  auto [beacons2, demand2] = DecodeDatasets(DecodeSnapshot(ds_image));
  EXPECT_EQ(EncodeSnapshot(EncodeDatasets(beacons2, demand2)), ds_image);
  std::ostringstream bea1, bea2, dem1, dem2;
  a.beacons.SaveCsv(bea1);
  beacons2.SaveCsv(bea2);
  EXPECT_EQ(bea2.str(), bea1.str());
  a.demand.SaveCsv(dem1);
  demand2.SaveCsv(dem2);
  EXPECT_EQ(dem2.str(), dem1.str());
  EXPECT_EQ(demand2.total(), a.demand.total());

  // Classification output.
  const std::string cls_image = EncodeSnapshot(EncodeClassified(a.classified));
  const core::ClassifiedSubnets classified2 = DecodeClassified(DecodeSnapshot(cls_image));
  EXPECT_EQ(EncodeSnapshot(EncodeClassified(classified2)), cls_image);
  EXPECT_TRUE(std::ranges::equal(classified2.ratios(), a.classified.ratios()));
  EXPECT_TRUE(std::ranges::equal(classified2.cellular(), a.classified.cellular()));

  // Config alone roundtrips through its canonical encoding.
  const std::string cfg = EncodeWorldConfig(a.world.config());
  EXPECT_EQ(EncodeWorldConfig(DecodeWorldConfig(cfg)), cfg);
}

INSTANTIATE_TEST_SUITE_P(Threads, SnapshotRoundtrip, ::testing::Values(1u, 2u, 8u));

TEST(SnapshotSerde, ForgedRowCountsFailAsShortReads) {
  // A count no payload could hold, behind valid CRCs: the decoder must
  // run out of bytes, not size a container by the count.
  const Artifacts a = Build(1);
  for (const std::uint64_t count : {std::uint64_t{1} << 40, std::uint64_t{1} << 62}) {
    for (const char* name : {"world.subnets", "world.operators", "world.carriers"}) {
      EXPECT_EQ(ReasonOf([&] { (void)DecodeWorld(WithRowCount(EncodeWorld(a.world), name, count)); }),
                SnapshotErrorReason::kTruncated)
          << name;
    }
    for (const char* name : {"classified.ratios.3", "classified.cellular.5"}) {
      EXPECT_EQ(ReasonOf([&] {
                  (void)DecodeClassified(WithRowCount(EncodeClassified(a.classified), name, count));
                }),
                SnapshotErrorReason::kMalformed)
          << name;
    }
    // Past the real rows, the demand decoder reads the trailing f64
    // total as a row, whose first byte is no address family.
    for (const auto& [name, reason] :
         {std::pair{"beacon.blocks", SnapshotErrorReason::kTruncated},
          std::pair{"demand.blocks", SnapshotErrorReason::kMalformed}}) {
      EXPECT_EQ(ReasonOf([&] {
                  (void)DecodeDatasets(
                      WithRowCount(EncodeDatasets(a.beacons, a.demand), name, count));
                }),
                reason)
          << name;
    }
  }
}

/// `sections` with the first row of section `name` written twice and
/// its row count bumped, re-framed so every CRC is valid. `skip_row`
/// reads past one row of that section.
SnapshotImage WithFirstRowRepeated(std::vector<Section> sections, std::string_view name,
                                   const std::function<void(ByteReader&)>& skip_row) {
  bool found = false;
  for (Section& s : sections) {
    if (s.name != name) continue;
    found = true;
    ByteReader r(s.payload);
    const std::uint64_t count = r.Varint();
    EXPECT_GT(count, 0u) << name;
    const std::size_t rows = s.payload.size() - r.remaining();
    skip_row(r);
    const std::size_t first_row_end = s.payload.size() - r.remaining();
    ByteWriter w;
    w.Varint(count + 1);
    w.Bytes(std::string_view(s.payload).substr(rows, first_row_end - rows));
    w.Bytes(std::string_view(s.payload).substr(rows));
    s.payload = std::move(w).Take();
  }
  EXPECT_TRUE(found) << name;
  return DecodeSnapshot(EncodeSnapshot(sections));
}

void SkipPrefix(ByteReader& r) {
  const std::uint8_t family = r.U8();
  (void)r.U8();
  (void)r.Bytes(family == 4 ? 4 : 16);
}

/// The error `decode` throws; kIo and an empty message when it throws none.
std::pair<SnapshotErrorReason, std::string> ErrorOf(const std::function<void()>& decode) {
  try {
    decode();
  } catch (const SnapshotError& e) {
    return {e.reason(), e.what()};
  }
  return {SnapshotErrorReason::kIo, ""};
}

TEST(SnapshotSerde, DuplicateKeysInEverySectionAreMalformed) {
  const Artifacts a = Build(1);
  struct Case {
    const char* section;
    std::function<void(ByteReader&)> skip_row;
    const char* message;
  };
  const std::vector<Case> world_cases = {
      {"world.asdb",
       [](ByteReader& r) {
         (void)r.Varint();
         (void)r.String();
         (void)r.String();
         (void)r.Bytes(3);  // continent, class, kind
       },
       "duplicate ASNs in AS database"},
      {"world.rib",
       [](ByteReader& r) {
         (void)r.Varint();
         SkipPrefix(r);
       },
       "duplicate prefixes in RIB"},
      {"world.operators",
       [](ByteReader& r) {
         (void)r.Varint();
         (void)r.Bytes(1 + 2);  // kind, country
         (void)r.String();
         (void)r.Bytes(1 + 3 * 8 + 1 + 1 + 4 + 4);  // continent .. subnet_end
       },
       "duplicate operator ASNs"},
      {"world.subnets",
       [](ByteReader& r) {
         SkipPrefix(r);
         (void)r.Varint();
         (void)r.Bytes(2 + 1 + 4 * 8);  // country, flags, four f64
       },
       "duplicate subnet blocks"},
  };
  for (const Case& c : world_cases) {
    const auto [reason, message] = ErrorOf([&] {
      (void)DecodeWorld(WithFirstRowRepeated(EncodeWorld(a.world), c.section, c.skip_row));
    });
    EXPECT_EQ(reason, SnapshotErrorReason::kMalformed) << c.section;
    EXPECT_NE(message.find(c.message), std::string::npos) << c.section << ": " << message;
  }

  const std::vector<Case> dataset_cases = {
      {"beacon.blocks",
       [](ByteReader& r) {
         SkipPrefix(r);
         for (int field = 0; field < 7; ++field) (void)r.Varint();
       },
       "duplicate beacon blocks"},
      {"demand.blocks",
       [](ByteReader& r) {
         SkipPrefix(r);
         (void)r.Bytes(8);
       },
       "duplicate demand blocks"},
  };
  for (const Case& c : dataset_cases) {
    const auto [reason, message] = ErrorOf([&] {
      (void)DecodeDatasets(
          WithFirstRowRepeated(EncodeDatasets(a.beacons, a.demand), c.section, c.skip_row));
    });
    EXPECT_EQ(reason, SnapshotErrorReason::kMalformed) << c.section;
    EXPECT_NE(message.find(c.message), std::string::npos) << c.section << ": " << message;
  }

  const std::vector<Case> classified_cases = {
      {"classified.ratios.0",
       [](ByteReader& r) {
         SkipPrefix(r);
         (void)r.Bytes(8);
       },
       "duplicate classified block"},
      {"classified.cellular.0", SkipPrefix, "duplicate cellular block"},
  };
  for (const Case& c : classified_cases) {
    const auto [reason, message] = ErrorOf([&] {
      (void)DecodeClassified(
          WithFirstRowRepeated(EncodeClassified(a.classified), c.section, c.skip_row));
    });
    EXPECT_EQ(reason, SnapshotErrorReason::kMalformed) << c.section;
    EXPECT_NE(message.find(c.message), std::string::npos) << c.section << ": " << message;
  }
}

TEST(SnapshotSerde, RibOriginOutsideAsDatabaseIsMalformed) {
  // EncodeWorld refuses a RIB origin without an AS database record; an
  // image forged to hold one, behind valid CRCs, must not decode either.
  const Artifacts a = Build(1);
  constexpr asdb::AsNumber kUnknown = 0xFFFFFFFFU;
  ASSERT_EQ(a.world.as_db().Find(kUnknown), nullptr);
  std::vector<Section> sections = EncodeWorld(a.world);
  bool found = false;
  for (Section& s : sections) {
    if (s.name != "world.rib") continue;
    found = true;
    ByteReader r(s.payload);
    const std::uint64_t count = r.Varint();
    ASSERT_GT(count, 0u);
    (void)r.Varint();  // the first row's origin
    ByteWriter w;
    w.Varint(count);
    w.Varint(kUnknown);
    w.Bytes(std::string_view(s.payload).substr(s.payload.size() - r.remaining()));
    s.payload = std::move(w).Take();
  }
  ASSERT_TRUE(found);
  const auto [reason, message] =
      ErrorOf([&] { (void)DecodeWorld(DecodeSnapshot(EncodeSnapshot(sections))); });
  EXPECT_EQ(reason, SnapshotErrorReason::kMalformed);
  EXPECT_NE(message.find("RIB has announcements from ASNs outside the AS database"),
            std::string::npos)
      << message;
}

TEST(SnapshotRoundtrip, ImageIsIdenticalAtAnyThreadCount) {
  const Artifacts a1 = Build(1);
  const Artifacts a8 = Build(8);
  EXPECT_EQ(WorldImage(a8.world), WorldImage(a1.world));
  EXPECT_EQ(EncodeSnapshot(EncodeDatasets(a8.beacons, a8.demand)),
            EncodeSnapshot(EncodeDatasets(a1.beacons, a1.demand)));
  EXPECT_EQ(EncodeSnapshot(EncodeClassified(a8.classified)),
            EncodeSnapshot(EncodeClassified(a1.classified)));
}

}  // namespace
}  // namespace cellspot::snapshot
