// CIDR prefixes and the fixed-size aggregation blocks the paper works in:
// /24 for IPv4 and /48 for IPv6 (§3.2, §4.1).
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "cellspot/netaddr/ip_address.hpp"

namespace cellspot::netaddr {

/// A canonical CIDR prefix: the stored address always has all host bits
/// zeroed (the constructor masks them), so equality is structural.
class Prefix {
 public:
  /// 0.0.0.0/0 by default.
  constexpr Prefix() = default;

  /// Canonicalises: host bits of `address` beyond `length` are cleared.
  /// Throws std::invalid_argument if length exceeds the family width.
  Prefix(IpAddress address, int length);

  /// Parse "a.b.c.d/len" or "v6::/len".
  /// Throws cellspot::ParseError on malformed input.
  [[nodiscard]] static Prefix Parse(std::string_view text);

  [[nodiscard]] static std::optional<Prefix> TryParse(std::string_view text) noexcept;

  [[nodiscard]] constexpr const IpAddress& address() const noexcept { return address_; }
  [[nodiscard]] constexpr int length() const noexcept { return length_; }
  [[nodiscard]] constexpr Family family() const noexcept { return address_.family(); }

  /// True if `addr` (same family) falls inside this prefix.
  [[nodiscard]] bool Contains(const IpAddress& addr) const noexcept;

  /// True if `other` is equal to or more specific than this prefix.
  [[nodiscard]] bool Covers(const Prefix& other) const noexcept;

  /// "203.0.113.0/24"
  [[nodiscard]] std::string ToString() const;

  [[nodiscard]] constexpr auto operator<=>(const Prefix&) const = default;

 private:
  IpAddress address_{};
  int length_ = 0;
};

/// The paper's aggregation granularity per family.
inline constexpr int kIpv4BlockBits = 24;
inline constexpr int kIpv6BlockBits = 48;

/// The /24 (IPv4) or /48 (IPv6) block containing `addr`.
[[nodiscard]] Prefix BlockOf(const IpAddress& addr);

/// Block length for a family: 24 or 48.
[[nodiscard]] constexpr int BlockBits(Family f) noexcept {
  return f == Family::kIpv4 ? kIpv4BlockBits : kIpv6BlockBits;
}

/// True if `p` is exactly a block-granularity prefix for its family.
[[nodiscard]] constexpr bool IsBlock(const Prefix& p) noexcept {
  return p.length() == BlockBits(p.family());
}

/// Number of block-granularity subnets inside `p`
/// (e.g. a v4 /20 holds 16 /24 blocks). Requires p.length() <= block bits.
[[nodiscard]] std::uint64_t BlockCount(const Prefix& p);

/// The i-th block inside `p` (0-based). Requires i < BlockCount(p).
[[nodiscard]] Prefix NthBlock(const Prefix& p, std::uint64_t i);

/// The i-th host address inside block `b` (0-based; for v6, inside the
/// first /120 of the /48 which is plenty for simulation purposes).
[[nodiscard]] IpAddress NthAddress(const Prefix& block, std::uint64_t i);

}  // namespace cellspot::netaddr

template <>
struct std::hash<cellspot::netaddr::Prefix> {
  std::size_t operator()(const cellspot::netaddr::Prefix& p) const noexcept {
    return std::hash<cellspot::netaddr::IpAddress>{}(p.address()) ^
           (static_cast<std::size_t>(p.length()) << 48);
  }
};
