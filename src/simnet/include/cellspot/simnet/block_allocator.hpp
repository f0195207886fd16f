// Sequential allocator of /24 (IPv4) and /48 (IPv6) blocks for the
// synthetic world. Hands out globally unique blocks, skipping reserved
// IPv4 space (loopback, RFC1918, link-local, multicast, ...), so every
// generated subnet is a plausible public block.
#pragma once

#include <cstdint>

#include "cellspot/netaddr/prefix.hpp"

namespace cellspot::simnet {

class BlockAllocator {
 public:
  BlockAllocator() = default;

  /// Next unused public IPv4 /24. Throws std::runtime_error on exhaustion
  /// (over 10M blocks available; our worlds use well under 1M).
  [[nodiscard]] netaddr::Prefix NextV4Block();

  /// Next unused IPv6 /48 under the synthetic global-unicast pool.
  [[nodiscard]] netaddr::Prefix NextV6Block();

  [[nodiscard]] std::uint64_t v4_allocated() const noexcept { return v4_count_; }

 private:
  std::uint32_t next_v4_ = 0x01000000;  // 1.0.0.0
  std::uint64_t next_v6_ = 0;           // /48 index under 2400::/12
  std::uint64_t v4_count_ = 0;
};

/// True if the /24 starting at `base` (host order, low 8 bits zero) falls
/// in reserved or special-use IPv4 space.
[[nodiscard]] bool IsReservedV4Block(std::uint32_t base) noexcept;

}  // namespace cellspot::simnet
