// IP address value types.
//
// A single IpAddress class covers both families: the address is stored as
// a 16-byte big-endian array (IPv4 occupies the first 4 bytes) plus a
// family tag. This keeps the prefix trie and the /24 / /48 block logic
// family-generic while remaining a cheap value type (17 bytes).
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace cellspot::netaddr {

enum class Family : std::uint8_t { kIpv4 = 4, kIpv6 = 6 };

class IpAddress {
 public:
  /// Default: IPv4 0.0.0.0.
  constexpr IpAddress() = default;

  /// Build an IPv4 address from its 32-bit host-order representation.
  [[nodiscard]] static constexpr IpAddress V4(std::uint32_t host_order) noexcept {
    IpAddress a;
    a.family_ = Family::kIpv4;
    a.bytes_ = {};
    a.bytes_[0] = static_cast<std::uint8_t>(host_order >> 24);
    a.bytes_[1] = static_cast<std::uint8_t>(host_order >> 16);
    a.bytes_[2] = static_cast<std::uint8_t>(host_order >> 8);
    a.bytes_[3] = static_cast<std::uint8_t>(host_order);
    return a;
  }

  /// Build an IPv6 address from 16 big-endian bytes.
  [[nodiscard]] static constexpr IpAddress V6(const std::array<std::uint8_t, 16>& bytes) noexcept {
    IpAddress a;
    a.family_ = Family::kIpv6;
    a.bytes_ = bytes;
    return a;
  }

  /// Parse either family ("192.0.2.1" or "2001:db8::1").
  /// Throws cellspot::ParseError on malformed input.
  [[nodiscard]] static IpAddress Parse(std::string_view text);

  /// Non-throwing parse.
  [[nodiscard]] static std::optional<IpAddress> TryParse(std::string_view text) noexcept;

  [[nodiscard]] constexpr Family family() const noexcept { return family_; }
  [[nodiscard]] constexpr bool is_v4() const noexcept { return family_ == Family::kIpv4; }
  [[nodiscard]] constexpr bool is_v6() const noexcept { return family_ == Family::kIpv6; }

  /// IPv4 value in host byte order. Requires is_v4().
  [[nodiscard]] constexpr std::uint32_t v4_value() const noexcept {
    return (static_cast<std::uint32_t>(bytes_[0]) << 24) |
           (static_cast<std::uint32_t>(bytes_[1]) << 16) |
           (static_cast<std::uint32_t>(bytes_[2]) << 8) |
           static_cast<std::uint32_t>(bytes_[3]);
  }

  /// Raw big-endian bytes (only the first 4 are meaningful for IPv4).
  [[nodiscard]] constexpr const std::array<std::uint8_t, 16>& bytes() const noexcept {
    return bytes_;
  }

  /// Number of address bits for this family: 32 or 128.
  [[nodiscard]] constexpr int bit_width() const noexcept { return is_v4() ? 32 : 128; }

  /// Bit i counted from the most significant end (0 == top bit).
  /// Requires 0 <= i < bit_width().
  [[nodiscard]] constexpr bool GetBit(int i) const noexcept {
    return (bytes_[static_cast<std::size_t>(i / 8)] >> (7 - i % 8)) & 1U;
  }

  /// Copy with bit i (MSB-first) set to `value`.
  [[nodiscard]] constexpr IpAddress WithBit(int i, bool value) const noexcept {
    IpAddress a = *this;
    const auto byte = static_cast<std::size_t>(i / 8);
    const auto mask = static_cast<std::uint8_t>(1U << (7 - i % 8));
    if (value) a.bytes_[byte] |= mask;
    else a.bytes_[byte] = static_cast<std::uint8_t>(a.bytes_[byte] & ~mask);
    return a;
  }

  /// Dotted-quad or RFC-5952-compressed textual form.
  [[nodiscard]] std::string ToString() const;

  [[nodiscard]] constexpr auto operator<=>(const IpAddress&) const = default;

 private:
  Family family_ = Family::kIpv4;
  std::array<std::uint8_t, 16> bytes_{};
};

}  // namespace cellspot::netaddr

template <>
struct std::hash<cellspot::netaddr::IpAddress> {
  /// Two 64-bit word loads plus the family, not mixed further: the
  /// consumer (util::PositionIndex) finalises. Never persisted, so the
  /// host byte order of the loads does not matter.
  std::size_t operator()(const cellspot::netaddr::IpAddress& a) const noexcept {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    std::memcpy(&hi, a.bytes().data(), sizeof hi);
    std::memcpy(&lo, a.bytes().data() + sizeof hi, sizeof lo);
    return static_cast<std::size_t>(
        hi ^ (lo * 0x9E3779B97F4A7C15ULL) ^
        (static_cast<std::uint64_t>(static_cast<std::uint8_t>(a.family())) << 56));
  }
};
