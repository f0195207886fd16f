#include "cellspot/snapshot/snapshot.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iostream>
#include <system_error>
#include <utility>

#include "cellspot/obs/metrics.hpp"
#include "cellspot/snapshot/binary_io.hpp"
#include "cellspot/util/retry.hpp"

namespace cellspot::snapshot {

namespace {

[[noreturn]] void IoError(const std::filesystem::path& path, const std::string& what) {
  throw SnapshotError("cannot read snapshot '" + path.string() + "': " + what,
                      SnapshotErrorReason::kIo);
}

/// Owns a descriptor and closes it on every exit from ReadSnapshotFile.
struct FdGuard {
  explicit FdGuard(int descriptor) noexcept : fd(descriptor) {}
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
  const int fd;
};

}  // namespace

std::string EncodeSnapshot(std::span<const Section> sections) {
  ByteWriter w;
  w.Bytes(kSnapshotMagic);
  w.U32(kSnapshotFormatVersion);
  w.Varint(sections.size());
  for (const Section& s : sections) {
    w.String(s.name);
    w.U64(s.payload.size());
    w.U32(Crc32(s.payload));
    w.Bytes(s.payload);
  }
  return std::move(w).Take();
}

SnapshotImage::SnapshotImage(std::shared_ptr<const void> keepalive, std::string_view bytes)
    : keepalive_(std::move(keepalive)), bytes_(bytes) {
  if (bytes.size() < kSnapshotMagic.size()) {
    throw SnapshotError("snapshot shorter than its magic",
                        SnapshotErrorReason::kTruncated);
  }
  if (bytes.substr(0, kSnapshotMagic.size()) != kSnapshotMagic) {
    throw SnapshotError("not a snapshot file (bad magic)",
                        SnapshotErrorReason::kBadMagic);
  }
  ByteReader r(bytes.substr(kSnapshotMagic.size()));
  const std::uint32_t version = r.U32();
  if (version != kSnapshotFormatVersion) {
    throw SnapshotError("snapshot format version " + std::to_string(version) +
                            ", this build reads version " +
                            std::to_string(kSnapshotFormatVersion),
                        SnapshotErrorReason::kVersionMismatch);
  }
  const std::uint64_t count = r.Varint();
  // Every section takes at least 13 header bytes, so a forged count
  // cannot reserve more than the image could hold.
  sections_.reserve(std::min<std::uint64_t>(count, r.remaining() / 13));
  for (std::uint64_t i = 0; i < count; ++i) {
    SectionView s;
    s.name = r.String();
    const std::uint64_t payload_len = r.U64();
    const std::uint32_t stored_crc = r.U32();
    s.payload = r.Bytes(payload_len);
    if (Crc32(s.payload) != stored_crc) {
      throw SnapshotError("section '" + std::string(s.name) + "' fails its CRC32 check",
                          SnapshotErrorReason::kChecksum);
    }
    sections_.push_back(s);
  }
  r.ExpectEnd();
}

std::string_view SnapshotImage::Payload(std::string_view name) const {
  for (const SectionView& s : sections_) {
    if (s.name == name) return s.payload;
  }
  throw SnapshotError("snapshot is missing section '" + std::string(name) + "'",
                      SnapshotErrorReason::kMalformed);
}

SnapshotImage DecodeSnapshot(std::string_view bytes) {
  auto owned = std::make_shared<const std::string>(bytes);
  const std::string_view view = *owned;
  return {std::move(owned), view};
}

void WriteSnapshotFile(const std::filesystem::path& path,
                       std::span<const Section> sections) {
  const std::string image = EncodeSnapshot(sections);
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw SnapshotError("cannot open '" + tmp.string() + "' for writing",
                          SnapshotErrorReason::kIo);
    }
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
    out.flush();
    if (!out) {
      throw SnapshotError("short write to '" + tmp.string() + "'",
                          SnapshotErrorReason::kIo);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw SnapshotError("cannot rename snapshot into place at '" + path.string() + "'",
                        SnapshotErrorReason::kIo);
  }
}

SnapshotImage ReadSnapshotFile(const std::filesystem::path& path) {
  // O_NONBLOCK: opening a FIFO must not wait for a writer; the fstat
  // below rejects it like any other non-regular file.
  const FdGuard file{::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK)};
  if (file.fd < 0) IoError(path, std::string("open: ") + std::strerror(errno));
  struct stat st = {};
  if (::fstat(file.fd, &st) != 0) {
    IoError(path, std::string("stat: ") + std::strerror(errno));
  }
  if (!S_ISREG(st.st_mode)) IoError(path, "not a regular file");
  const auto len = static_cast<std::size_t>(st.st_size);
  // mmap rejects length 0; validation reports the empty image as
  // truncated, exactly as DecodeSnapshot("") does.
  if (len == 0) return {nullptr, {}};
  void* addr = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, file.fd, 0);
  if (addr == MAP_FAILED) IoError(path, std::string("mmap: ") + std::strerror(errno));
  // The mapping outlives the descriptor; the keepalive's deleter unmaps.
  std::shared_ptr<const void> mapping(
      addr, [len](const void* p) { ::munmap(const_cast<void*>(p), len); });
  return {std::move(mapping), std::string_view(static_cast<const char*>(addr), len)};
}

bool QuarantineSnapshotFile(const std::filesystem::path& path) noexcept {
  // Transient rename failures (EBUSY on some filesystems, a racing
  // reader) get a few immediate retries; a persistent failure is loud:
  // counted under 'snapshot.quarantine.fail' and reported on stderr, so
  // a quarantine that silently keeps serving the same corrupt bytes
  // cannot go unnoticed.
  std::error_code ec;
  const util::RetryOutcome outcome =
      util::RetryCall(util::RetryPolicy{.max_attempts = 3}, [&] {
        std::filesystem::rename(path, path.string() + ".corrupt", ec);
        return !ec;
      });
  if (outcome.retries() > 0) {
    obs::MetricsRegistry::Global()
        .counter("snapshot.quarantine.retry")
        .Increment(outcome.retries());
  }
  if (!outcome.ok) {
    obs::MetricsRegistry::Global().counter("snapshot.quarantine.fail").Increment();
    std::cerr << "cellspot: cannot quarantine corrupt snapshot '" << path.string()
              << "' as *.corrupt (" << ec.message()
              << "); the corrupt file stays in place\n";
  }
  return outcome.ok;
}

}  // namespace cellspot::snapshot
