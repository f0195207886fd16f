#include "cellspot/simnet/block_allocator.hpp"

#include <stdexcept>

namespace cellspot::simnet {

bool IsReservedV4Block(std::uint32_t base) noexcept {
  const std::uint32_t first_octet = base >> 24;
  if (first_octet == 0 || first_octet == 10 || first_octet == 127) return true;
  if (first_octet >= 224) return true;                           // multicast + class E
  if ((base & 0xFFF00000U) == 0xAC100000U) return true;          // 172.16/12
  if ((base & 0xFFFF0000U) == 0xC0A80000U) return true;          // 192.168/16
  if ((base & 0xFFFF0000U) == 0xA9FE0000U) return true;          // 169.254/16
  if ((base & 0xFFC00000U) == 0x64400000U) return true;          // 100.64/10 (CGN)
  if ((base & 0xFFFFFF00U) == 0xC0000200U) return true;          // 192.0.2.0/24
  if ((base & 0xFFFFFF00U) == 0xC6336400U) return true;          // 198.51.100.0/24
  if ((base & 0xFFFFFF00U) == 0xCB007100U) return true;          // 203.0.113.0/24
  if ((base & 0xFFFE0000U) == 0xC6120000U) return true;          // 198.18/15
  return false;
}

netaddr::Prefix BlockAllocator::NextV4Block() {
  while (next_v4_ < 0xE0000000U) {
    const std::uint32_t base = next_v4_;
    next_v4_ += 0x100;
    if (IsReservedV4Block(base)) continue;
    ++v4_count_;
    return netaddr::Prefix(netaddr::IpAddress::V4(base), netaddr::kIpv4BlockBits);
  }
  throw std::runtime_error("BlockAllocator: IPv4 space exhausted");
}

netaddr::Prefix BlockAllocator::NextV6Block() {
  // Synthetic pool: 2400::/12 gives 2^36 /48s; write the index into the
  // bits between /12 and /48.
  if (next_v6_ >= (1ULL << 36)) {
    throw std::runtime_error("BlockAllocator: IPv6 pool exhausted");
  }
  const std::uint64_t index = next_v6_++;
  std::array<std::uint8_t, 16> bytes{};
  bytes[0] = 0x24;
  // Bits 12..47 (36 bits) hold the index, MSB first.
  for (int bit = 0; bit < 36; ++bit) {
    const bool set = (index >> (35 - bit)) & 1ULL;
    if (set) {
      const int pos = 12 + bit;
      bytes[static_cast<std::size_t>(pos / 8)] |=
          static_cast<std::uint8_t>(1U << (7 - pos % 8));
    }
  }
  return netaddr::Prefix(netaddr::IpAddress::V6(bytes), netaddr::kIpv6BlockBits);
}

}  // namespace cellspot::simnet
