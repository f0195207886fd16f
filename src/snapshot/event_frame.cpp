#include "cellspot/snapshot/event_frame.hpp"

#include <cmath>
#include <limits>

#include "cellspot/snapshot/binary_io.hpp"

namespace cellspot::snapshot {

bool operator==(const StreamEvent& a, const StreamEvent& b) {
  if (a.kind != b.kind || a.subnet != b.subnet || a.seq != b.seq) return false;
  if (a.kind == EventKind::kDemand) return a.demand_raw == b.demand_raw;
  return a.stats.hits == b.stats.hits && a.stats.netinfo_hits == b.stats.netinfo_hits &&
         a.stats.cellular_labels == b.stats.cellular_labels &&
         a.stats.wifi_labels == b.stats.wifi_labels &&
         a.stats.ethernet_labels == b.stats.ethernet_labels &&
         a.stats.other_labels == b.stats.other_labels &&
         a.stats.mobile_browser_hits == b.stats.mobile_browser_hits;
}

std::string EncodeEventFrame(const StreamEvent& event) {
  ByteWriter w;
  w.U8(static_cast<std::uint8_t>(event.kind));
  w.Varint(event.subnet);
  w.Varint(event.seq);
  if (event.kind == EventKind::kBeacon) {
    w.Varint(event.stats.hits);
    w.Varint(event.stats.netinfo_hits);
    w.Varint(event.stats.cellular_labels);
    w.Varint(event.stats.wifi_labels);
    w.Varint(event.stats.ethernet_labels);
    w.Varint(event.stats.other_labels);
    w.Varint(event.stats.mobile_browser_hits);
  } else {
    w.F64(event.demand_raw);
  }
  const std::uint32_t crc = Crc32(w.buffer());
  w.U32(crc);
  return std::move(w).Take();
}

std::optional<StreamEvent> DecodeEventFrame(std::string_view frame) noexcept {
  constexpr std::size_t kCrcBytes = 4;
  if (frame.size() <= kCrcBytes) return std::nullopt;
  const std::string_view body = frame.substr(0, frame.size() - kCrcBytes);
  try {
    ByteReader tail(frame.substr(frame.size() - kCrcBytes));
    if (tail.U32() != Crc32(body)) return std::nullopt;

    ByteReader r(body);
    StreamEvent event;
    const std::uint8_t kind = r.U8();
    if (kind != static_cast<std::uint8_t>(EventKind::kBeacon) &&
        kind != static_cast<std::uint8_t>(EventKind::kDemand)) {
      return std::nullopt;
    }
    event.kind = static_cast<EventKind>(kind);
    const std::uint64_t subnet = r.Varint();
    const std::uint64_t seq = r.Varint();
    if (subnet > std::numeric_limits<std::uint32_t>::max() ||
        seq > std::numeric_limits<std::uint32_t>::max()) {
      return std::nullopt;
    }
    event.subnet = static_cast<std::uint32_t>(subnet);
    event.seq = static_cast<std::uint32_t>(seq);
    if (event.kind == EventKind::kBeacon) {
      event.stats.hits = r.Varint();
      event.stats.netinfo_hits = r.Varint();
      event.stats.cellular_labels = r.Varint();
      event.stats.wifi_labels = r.Varint();
      event.stats.ethernet_labels = r.Varint();
      event.stats.other_labels = r.Varint();
      event.stats.mobile_browser_hits = r.Varint();
      // Decode-is-validate: aggregates that could not have come from the
      // generator are rejected even when the CRC happens to pass. Label
      // sums may lag netinfo hits mid-stream (intermediate cumulative
      // rounds floor each field independently), which IsConsistent allows.
      if (!event.stats.IsConsistent()) return std::nullopt;
    } else {
      event.demand_raw = r.F64();
      if (!std::isfinite(event.demand_raw) || event.demand_raw < 0.0) {
        return std::nullopt;
      }
    }
    r.ExpectEnd();
    return event;
  } catch (const SnapshotError&) {
    return std::nullopt;
  }
}

}  // namespace cellspot::snapshot
