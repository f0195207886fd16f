// Reference CRC-32 for the differential tests: the textbook table-driven
// loop, one input byte per step (IEEE polynomial, reflected bit order).
// snapshot::Crc32 folds eight bytes per step and must agree with it on
// every length, tail and alignment.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace cellspot::test_support {

inline std::uint32_t Crc32Bytewise(std::string_view data) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFU;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<std::uint8_t>(ch)) & 0xFFU] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFU;
}

}  // namespace cellspot::test_support
