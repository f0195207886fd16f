// The snapshot container format and its file I/O.
//
//   offset  size     field
//   0       4        magic "CSPT"
//   4       4        format version, u32 LE (kSnapshotFormatVersion)
//   8       varint   section count
//           per section:
//             varint   name length, then name bytes
//             u64 LE   payload length
//             u32 LE   CRC-32 (IEEE) of the payload bytes
//             ...      payload
//
// Sections are self-checking (per-section CRC) and self-describing
// (named), so a reader can skip sections it does not know and detect
// bit-flips before decoding. A version bump invalidates every snapshot:
// readers refuse other versions (SnapshotErrorReason::kVersionMismatch)
// and the stage cache folds the version into its file names, so old and
// new binaries never feed each other stale bytes.
//
// The write side encodes owned Sections. The read side is one type,
// SnapshotImage, made only by ReadSnapshotFile (maps a file) and
// DecodeSnapshot (copies bytes already in memory); every decoder of a
// pipeline artifact takes an image.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cellspot/snapshot/error.hpp"

namespace cellspot::snapshot {

inline constexpr std::string_view kSnapshotMagic = "CSPT";
inline constexpr std::uint32_t kSnapshotFormatVersion = 1;

/// One named, CRC-protected blob, as the writer hands it over.
struct Section {
  std::string name;
  std::string payload;
};

/// One section of a SnapshotImage; both views alias the image's bytes.
struct SectionView {
  std::string_view name;
  std::string_view payload;
};

/// A validated snapshot image. Magic, version and every section's CRC
/// are checked once, when the image is made; after that each section is
/// a zero-copy view of bytes that keepalive() pins. Copies share those
/// bytes.
class SnapshotImage {
 public:
  [[nodiscard]] const std::vector<SectionView>& sections() const noexcept {
    return sections_;
  }

  /// Payload of the named section; throws SnapshotError{kMalformed}
  /// when absent.
  [[nodiscard]] std::string_view Payload(std::string_view name) const;

  /// Shared ownership of the bytes: while any copy is alive, every view
  /// into the image stays valid, so an artifact built over a payload
  /// (e.g. a FlatLpm view) can outlive the image itself.
  [[nodiscard]] const std::shared_ptr<const void>& keepalive() const noexcept {
    return keepalive_;
  }

  /// Size of the whole image (the file size, for a mapped file).
  [[nodiscard]] std::size_t size_bytes() const noexcept { return bytes_.size(); }

 private:
  friend SnapshotImage DecodeSnapshot(std::string_view bytes);
  friend SnapshotImage ReadSnapshotFile(const std::filesystem::path& path);

  /// Validates `bytes`, which `keepalive` keeps alive; throws
  /// SnapshotError on any defect.
  SnapshotImage(std::shared_ptr<const void> keepalive, std::string_view bytes);

  std::shared_ptr<const void> keepalive_;
  std::string_view bytes_;
  std::vector<SectionView> sections_;
};

/// Serialize sections into the container format.
[[nodiscard]] std::string EncodeSnapshot(std::span<const Section> sections);

/// Validate an image held in memory; the result owns a copy of
/// `bytes`. Throws SnapshotError on any defect.
[[nodiscard]] SnapshotImage DecodeSnapshot(std::string_view bytes);

/// Write atomically (tmp file + rename) so a crashed writer can never
/// leave a half-written snapshot under the final name.
/// Throws SnapshotError{kIo} on filesystem errors.
void WriteSnapshotFile(const std::filesystem::path& path,
                       std::span<const Section> sections);

/// Map `path` read-only and validate it. Throws SnapshotError: kIo when
/// the path cannot be opened, stat'd or mapped, or is not a regular
/// file; otherwise whatever DecodeSnapshot finds in the same bytes (a
/// 0-byte file is kTruncated). The mapping lives as long as the image
/// or a keepalive() copy.
[[nodiscard]] SnapshotImage ReadSnapshotFile(const std::filesystem::path& path);

/// Rename a corrupt snapshot to "<path>.corrupt" (quarantine-in-place,
/// preserving the bytes for diagnosis). Best-effort: returns false when
/// the rename itself fails.
bool QuarantineSnapshotFile(const std::filesystem::path& path) noexcept;

}  // namespace cellspot::snapshot
