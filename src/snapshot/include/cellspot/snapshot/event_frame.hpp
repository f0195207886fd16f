// The streaming wire format: one self-checking frame per event, built
// on the snapshot byte codec (ByteWriter/ByteReader, Crc32).
//
// Events carry *cumulative* per-subnet state, not deltas, mirroring the
// sACN receiver model where every packet restates the source's current
// universe. That single choice is what makes the daemon robust to the
// whole fault taxonomy: a duplicate frame is idempotent, a reordered
// frame is detected by its sequence number, and a shed or corrupted
// frame is healed by the next beacon from the same subnet — the stream
// converges to the exact batch aggregates as long as each subnet's
// final frame is eventually delivered.
//
//   frame := u8 kind | varint subnet | varint seq | payload | u32 CRC-32
//
// The CRC covers every preceding byte, so bit-flips anywhere in the
// frame are rejected at decode time (counted, never fatal). Payloads:
//   kBeacon  seven varints (hits, netinfo, cellular, wifi, ethernet,
//            other, mobile), cumulative beacon aggregates
//   kDemand  one F64, cumulative raw (pre-normalisation) demand
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "cellspot/dataset/beacon_dataset.hpp"

namespace cellspot::snapshot {

enum class EventKind : std::uint8_t {
  kBeacon = 1,
  kDemand = 2,
};

struct StreamEvent {
  EventKind kind = EventKind::kBeacon;
  std::uint32_t subnet = 0;  // index into World::subnets()
  std::uint32_t seq = 0;     // per-(subnet, kind) cumulative-state version

  dataset::BeaconBlockStats stats;  // kBeacon: cumulative aggregates
  double demand_raw = 0.0;          // kDemand: cumulative raw demand

  friend bool operator==(const StreamEvent&, const StreamEvent&);
};

/// Serialize one event into a CRC-protected frame.
[[nodiscard]] std::string EncodeEventFrame(const StreamEvent& event);

/// Parse and validate a frame. Returns nullopt on any defect — short
/// frame, CRC mismatch, unknown kind, inconsistent beacon stats
/// (labels exceeding netinfo hits, netinfo exceeding hits), negative or
/// non-finite demand, trailing bytes. Never throws: a hostile frame is
/// data, not an error condition.
[[nodiscard]] std::optional<StreamEvent> DecodeEventFrame(std::string_view frame) noexcept;

}  // namespace cellspot::snapshot
