#include "cellspot/snapshot/event_frame.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

namespace cellspot::snapshot {
namespace {

StreamEvent BeaconEvent() {
  StreamEvent e;
  e.kind = EventKind::kBeacon;
  e.subnet = 1234;
  e.seq = 7;
  e.stats.hits = 100;
  e.stats.netinfo_hits = 40;
  e.stats.cellular_labels = 25;
  e.stats.wifi_labels = 10;
  e.stats.ethernet_labels = 3;
  e.stats.other_labels = 2;
  e.stats.mobile_browser_hits = 60;
  return e;
}

StreamEvent DemandEvent() {
  StreamEvent e;
  e.kind = EventKind::kDemand;
  e.subnet = 9;
  e.seq = 3;
  e.demand_raw = 1234.5625;
  return e;
}

TEST(StreamEvent, BeaconRoundTrips) {
  const StreamEvent e = BeaconEvent();
  const auto decoded = DecodeEventFrame(EncodeEventFrame(e));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, e);
}

TEST(StreamEvent, DemandRoundTrips) {
  const StreamEvent e = DemandEvent();
  const auto decoded = DecodeEventFrame(EncodeEventFrame(e));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, e);
  EXPECT_EQ(decoded->demand_raw, e.demand_raw);  // exact, not approximate
}

TEST(StreamEvent, EverySingleByteFlipIsRejected) {
  const std::string frame = EncodeEventFrame(BeaconEvent());
  for (std::size_t pos = 0; pos < frame.size(); ++pos) {
    for (std::uint8_t bit = 0; bit < 8; ++bit) {
      std::string bad = frame;
      bad[pos] = static_cast<char>(static_cast<std::uint8_t>(bad[pos]) ^ (1u << bit));
      EXPECT_FALSE(DecodeEventFrame(bad).has_value())
          << "flip at byte " << pos << " bit " << int(bit) << " survived";
    }
  }
}

TEST(StreamEvent, RejectsShortAndEmptyFrames) {
  EXPECT_FALSE(DecodeEventFrame("").has_value());
  EXPECT_FALSE(DecodeEventFrame("a").has_value());
  EXPECT_FALSE(DecodeEventFrame("abcd").has_value());  // CRC alone, no body
  const std::string frame = EncodeEventFrame(DemandEvent());
  for (std::size_t n = 0; n < frame.size(); ++n) {
    EXPECT_FALSE(DecodeEventFrame(frame.substr(0, n)).has_value())
        << "truncation to " << n << " bytes survived";
  }
}

TEST(StreamEvent, RejectsTrailingBytes) {
  // Valid CRC over an extended body still fails: the payload must be
  // fully consumed.
  std::string frame = EncodeEventFrame(BeaconEvent());
  frame.insert(frame.size() - 4, "\0", 1);
  EXPECT_FALSE(DecodeEventFrame(frame).has_value());
}

TEST(StreamEvent, RejectsInconsistentBeaconStats) {
  // CRC-valid frames with impossible aggregates are rejected by field
  // validation (defence in depth behind the checksum).
  StreamEvent e = BeaconEvent();
  e.stats.netinfo_hits = e.stats.hits + 1;  // netinfo > hits
  EXPECT_FALSE(DecodeEventFrame(EncodeEventFrame(e)).has_value());

  e = BeaconEvent();
  e.stats.cellular_labels = e.stats.netinfo_hits + 1;  // labels > netinfo
  e.stats.wifi_labels = e.stats.ethernet_labels = e.stats.other_labels = 0;
  EXPECT_FALSE(DecodeEventFrame(EncodeEventFrame(e)).has_value());

  e = BeaconEvent();
  e.stats.mobile_browser_hits = e.stats.hits + 1;  // mobile > hits
  EXPECT_FALSE(DecodeEventFrame(EncodeEventFrame(e)).has_value());
}

TEST(StreamEvent, AcceptsLabelSumBelowNetinfo) {
  // Intermediate cumulative rounds floor each field independently, so
  // labels may lag netinfo hits; that must decode fine.
  StreamEvent e = BeaconEvent();
  e.stats.cellular_labels = 1;
  e.stats.wifi_labels = e.stats.ethernet_labels = e.stats.other_labels = 0;
  EXPECT_TRUE(DecodeEventFrame(EncodeEventFrame(e)).has_value());
}

TEST(StreamEvent, RejectsBadDemandValues) {
  StreamEvent e = DemandEvent();
  e.demand_raw = -1.0;
  EXPECT_FALSE(DecodeEventFrame(EncodeEventFrame(e)).has_value());
  e.demand_raw = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(DecodeEventFrame(EncodeEventFrame(e)).has_value());
  e.demand_raw = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(DecodeEventFrame(EncodeEventFrame(e)).has_value());
  e.demand_raw = 0.0;
  EXPECT_TRUE(DecodeEventFrame(EncodeEventFrame(e)).has_value());
}

TEST(StreamEvent, RejectsUnknownKind) {
  std::string frame = EncodeEventFrame(DemandEvent());
  // Rewrite the kind byte and fix up the CRC so only the kind is wrong.
  StreamEvent e = DemandEvent();
  std::string valid = EncodeEventFrame(e);
  valid[0] = 3;  // not a kind
  // Recompute CRC over the altered body.
  const std::string body = valid.substr(0, valid.size() - 4);
  // Borrow the snapshot CRC via a fresh encode comparison: simplest is
  // to check the decoder rejects it even with a fixed-up CRC.
  // (DecodeEventFrame checks CRC first, then kind.)
  // Build by hand:
  std::uint32_t crc = 0;
  {
    // CRC-32 IEEE, reflected 0xEDB88320 — tiny local impl to avoid
    // reaching into snapshot internals from this test.
    crc = 0xFFFFFFFFu;
    for (unsigned char ch : body) {
      crc ^= ch;
      for (int k = 0; k < 8; ++k) crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
    }
    crc ^= 0xFFFFFFFFu;
  }
  std::string patched = body;
  for (int i = 0; i < 4; ++i) patched.push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
  EXPECT_FALSE(DecodeEventFrame(patched).has_value());
}

}  // namespace
}  // namespace cellspot::snapshot
