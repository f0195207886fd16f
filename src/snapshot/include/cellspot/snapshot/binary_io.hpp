// Endian-safe primitives for the snapshot format: little-endian
// fixed-width integers written byte by byte (the encoding is defined by
// the format, not by the host), LEB128 varints for counts and ASNs, and
// doubles as the little-endian bytes of their IEEE-754 bit pattern
// (exact round-trip, including signed zero).
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "cellspot/snapshot/error.hpp"

namespace cellspot::snapshot {

/// CRC-32 (IEEE, reflected polynomial 0xEDB88320) over `data`, folded
/// eight bytes per step (slicing-by-8); the value is the classic
/// byte-at-a-time CRC's.
[[nodiscard]] std::uint32_t Crc32(std::string_view data) noexcept;

/// Append-only encoder over a byte buffer.
class ByteWriter {
 public:
  void U8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void U16(std::uint16_t v) {
    U8(static_cast<std::uint8_t>(v));
    U8(static_cast<std::uint8_t>(v >> 8));
  }

  void U32(std::uint32_t v) {
    U16(static_cast<std::uint16_t>(v));
    U16(static_cast<std::uint16_t>(v >> 16));
  }

  void U64(std::uint64_t v) {
    U32(static_cast<std::uint32_t>(v));
    U32(static_cast<std::uint32_t>(v >> 32));
  }

  void I32(std::int32_t v) { U32(static_cast<std::uint32_t>(v)); }

  /// LEB128: 7 value bits per byte, high bit = continuation.
  void Varint(std::uint64_t v) {
    while (v >= 0x80) {
      U8(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    U8(static_cast<std::uint8_t>(v));
  }

  void F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }

  void Bool(bool v) { U8(v ? 1 : 0); }

  /// Varint length + raw bytes.
  void String(std::string_view s) {
    Varint(s.size());
    buf_.append(s);
  }

  void Bytes(std::string_view s) { buf_.append(s); }

  [[nodiscard]] const std::string& buffer() const noexcept { return buf_; }
  [[nodiscard]] std::string Take() && noexcept { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked decoder that accepts only what ByteWriter writes;
/// throws SnapshotError{kTruncated} on reads past the end and
/// {kMalformed} on overlong varints and bool bytes other than 0 and 1.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) noexcept : data_(data) {}

  [[nodiscard]] std::uint8_t U8() {
    Need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  [[nodiscard]] std::uint16_t U16() {
    const auto lo = U8();
    return static_cast<std::uint16_t>(lo | (U8() << 8));
  }

  [[nodiscard]] std::uint32_t U32() {
    const auto lo = U16();
    return lo | (static_cast<std::uint32_t>(U16()) << 16);
  }

  [[nodiscard]] std::uint64_t U64() {
    const auto lo = U32();
    return lo | (static_cast<std::uint64_t>(U32()) << 32);
  }

  [[nodiscard]] std::int32_t I32() { return static_cast<std::int32_t>(U32()); }

  /// The tenth byte carries only bit 63, so anything above 1 there is
  /// an overflow (or an eleventh byte) that Varint(v) never writes.
  [[nodiscard]] std::uint64_t Varint() {
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      const std::uint8_t byte = U8();
      if (shift == 63 && byte > 1) {
        throw SnapshotError("varint longer than 64 bits",
                            SnapshotErrorReason::kMalformed);
      }
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return v;
    }
  }

  [[nodiscard]] double F64() { return std::bit_cast<double>(U64()); }

  [[nodiscard]] bool Bool() {
    const std::uint8_t byte = U8();
    if (byte > 1) {
      throw SnapshotError("bool byte " + std::to_string(byte),
                          SnapshotErrorReason::kMalformed);
    }
    return byte == 1;
  }

  [[nodiscard]] std::string_view String() {
    const std::uint64_t n = Varint();
    return Bytes(n);
  }

  [[nodiscard]] std::string_view Bytes(std::uint64_t n) {
    Need(n);
    const std::string_view out = data_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] bool AtEnd() const noexcept { return pos_ == data_.size(); }

  /// Call when the payload should be fully consumed; trailing bytes mean
  /// the writer and reader disagree about the schema.
  void ExpectEnd() const {
    if (!AtEnd()) {
      throw SnapshotError("trailing bytes after payload",
                          SnapshotErrorReason::kMalformed);
    }
  }

 private:
  void Need(std::uint64_t n) const {
    if (n > data_.size() - pos_) {
      throw SnapshotError("unexpected end of snapshot data",
                          SnapshotErrorReason::kTruncated);
    }
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace cellspot::snapshot
