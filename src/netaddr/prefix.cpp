#include "cellspot/netaddr/prefix.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "cellspot/util/error.hpp"
#include "cellspot/util/strings.hpp"

namespace cellspot::netaddr {

namespace {

/// Clears the host bits past `length` (0 <= length <= bit_width()):
/// one 32-bit mask for v4; for v6 the byte holding the boundary keeps
/// its top length % 8 bits and every later byte is zeroed.
IpAddress MaskAddress(const IpAddress& addr, int length) {
  if (addr.is_v4()) {
    const std::uint32_t mask = length == 0 ? 0U : ~std::uint32_t{0} << (32 - length);
    return IpAddress::V4(addr.v4_value() & mask);
  }
  std::array<std::uint8_t, 16> bytes = addr.bytes();
  const auto boundary = static_cast<std::size_t>(length / 8);
  if (boundary < bytes.size()) {
    bytes[boundary] &= static_cast<std::uint8_t>(0xFF00U >> (length % 8));
    std::fill(bytes.begin() + static_cast<std::ptrdiff_t>(boundary) + 1, bytes.end(),
              std::uint8_t{0});
  }
  return IpAddress::V6(bytes);
}

}  // namespace

Prefix::Prefix(IpAddress address, int length) : length_(length) {
  if (length < 0 || length > address.bit_width()) {
    throw std::invalid_argument("Prefix: length out of range for family");
  }
  address_ = MaskAddress(address, length);
}

std::optional<Prefix> Prefix::TryParse(std::string_view text) noexcept {
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto addr = IpAddress::TryParse(text.substr(0, slash));
  if (!addr) return std::nullopt;
  const auto len = util::ParseUint(text.substr(slash + 1));
  if (!len || *len > static_cast<std::uint64_t>(addr->bit_width())) return std::nullopt;
  return Prefix(*addr, static_cast<int>(*len));
}

Prefix Prefix::Parse(std::string_view text) {
  auto parsed = TryParse(text);
  if (!parsed) {
    throw cellspot::ParseError("bad prefix: '" + std::string(text) + "'",
                               cellspot::ParseErrorCategory::kBadAddress);
  }
  return *parsed;
}

bool Prefix::Contains(const IpAddress& addr) const noexcept {
  if (addr.family() != family()) return false;
  for (int i = 0; i < length_; ++i) {
    if (addr.GetBit(i) != address_.GetBit(i)) return false;
  }
  return true;
}

bool Prefix::Covers(const Prefix& other) const noexcept {
  if (other.family() != family() || other.length() < length_) return false;
  return Contains(other.address());
}

std::string Prefix::ToString() const {
  return address_.ToString() + "/" + std::to_string(length_);
}

Prefix BlockOf(const IpAddress& addr) {
  return Prefix(addr, BlockBits(addr.family()));
}

std::uint64_t BlockCount(const Prefix& p) {
  const int block_bits = BlockBits(p.family());
  if (p.length() > block_bits) {
    throw std::invalid_argument("BlockCount: prefix more specific than block size");
  }
  const int spare = block_bits - p.length();
  if (spare >= 64) throw std::invalid_argument("BlockCount: prefix too coarse");
  return 1ULL << spare;
}

Prefix NthBlock(const Prefix& p, std::uint64_t i) {
  if (i >= BlockCount(p)) throw std::out_of_range("NthBlock: index out of range");
  const int block_bits = BlockBits(p.family());
  IpAddress addr = p.address();
  // Write i into the bits between p.length() and block_bits (MSB-first).
  const int spare = block_bits - p.length();
  for (int b = 0; b < spare; ++b) {
    const bool bit = (i >> (spare - 1 - b)) & 1ULL;
    addr = addr.WithBit(p.length() + b, bit);
  }
  return Prefix(addr, block_bits);
}

IpAddress NthAddress(const Prefix& block, std::uint64_t i) {
  const int width = block.address().bit_width();
  const int host_bits = width - block.length();
  const int usable = host_bits > 60 ? 60 : host_bits;  // cap shift for v6 /48
  if (i >= (1ULL << usable)) throw std::out_of_range("NthAddress: index out of range");
  IpAddress addr = block.address();
  for (int b = 0; b < usable; ++b) {
    const bool bit = (i >> b) & 1ULL;
    addr = addr.WithBit(width - 1 - b, bit);
  }
  return addr;
}

}  // namespace cellspot::netaddr
