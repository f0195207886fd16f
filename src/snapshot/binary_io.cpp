#include "cellspot/snapshot/binary_io.hpp"

#include <array>
#include <cstddef>

namespace cellspot::snapshot {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: kCrcTables[0] is the classic byte table, and
/// kCrcTables[k][b] is the CRC of byte b followed by k zero bytes, so one
/// step folds eight input bytes with eight lookups.
constexpr CrcTables MakeCrcTables() noexcept {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFU] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

/// Little-endian 32-bit load, independent of host byte order.
std::uint32_t LoadLe32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t Crc32(std::string_view data) noexcept {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t crc = 0xFFFFFFFFU;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ LoadLe32(p);
    const std::uint32_t hi = LoadLe32(p + 4);
    crc = kCrcTables[7][lo & 0xFFU] ^ kCrcTables[6][(lo >> 8) & 0xFFU] ^
          kCrcTables[5][(lo >> 16) & 0xFFU] ^ kCrcTables[4][lo >> 24] ^
          kCrcTables[3][hi & 0xFFU] ^ kCrcTables[2][(hi >> 8) & 0xFFU] ^
          kCrcTables[1][(hi >> 16) & 0xFFU] ^ kCrcTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = kCrcTables[0][(crc ^ *p) & 0xFFU] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFU;
}

}  // namespace cellspot::snapshot
