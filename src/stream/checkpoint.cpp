#include "cellspot/stream/checkpoint.hpp"

#include <algorithm>
#include <iostream>
#include <system_error>
#include <utility>
#include <vector>

#include "cellspot/obs/metrics.hpp"
#include "cellspot/snapshot/binary_io.hpp"
#include "cellspot/snapshot/snapshot.hpp"
#include "cellspot/util/retry.hpp"

namespace cellspot::stream {

namespace {

constexpr std::string_view kMetaSection = "stream.checkpoint.meta";
constexpr std::string_view kStateSection = "stream.checkpoint.state";
constexpr std::string_view kCheckpointPrefix = "checkpoint.";
constexpr std::string_view kCheckpointSuffix = ".ckpt";

std::string Hex16(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

/// Checkpoint files in `dir`, newest tick first. Hex-padded ticks make
/// lexicographic order numeric order; the explicit sort makes the scan
/// independent of directory-iteration order.
std::vector<std::filesystem::path> ListCheckpoints(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> out;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() == kCheckpointPrefix.size() + 16 + kCheckpointSuffix.size() &&
        name.starts_with(kCheckpointPrefix) && name.ends_with(kCheckpointSuffix)) {
      out.push_back(it->path());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.filename() > b.filename(); });
  return out;
}

}  // namespace

CheckpointStore::CheckpointStore(std::filesystem::path dir, std::uint64_t config_hash)
    : dir_(std::move(dir)), config_hash_(config_hash) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    std::cerr << "cellspot: cannot create checkpoint directory '" << dir_.string()
              << "' (" << ec.message() << ")\n";
  }
}

std::filesystem::path CheckpointStore::PathForTick(std::uint64_t tick) const {
  return dir_ / (std::string(kCheckpointPrefix) + Hex16(tick) +
                 std::string(kCheckpointSuffix));
}

bool CheckpointStore::Save(std::uint64_t tick, const std::string& payload) {
  auto& reg = obs::MetricsRegistry::Global();

  snapshot::ByteWriter meta;
  meta.Varint(tick);
  meta.U64(config_hash_);
  const std::vector<snapshot::Section> sections = {
      {std::string(kMetaSection), std::move(meta).Take()},
      {std::string(kStateSection), payload},
  };

  const std::filesystem::path path = PathForTick(tick);
  std::string last_error;
  const util::RetryOutcome outcome = util::RetryCall(util::RetryPolicy{.max_attempts = 3}, [&] {
    try {
      snapshot::WriteSnapshotFile(path, sections);
      return true;
    } catch (const snapshot::SnapshotError& e) {
      last_error = e.what();
      return false;
    }
  });
  if (outcome.retries() > 0) {
    reg.counter("stream.checkpoint.save_retry").Increment(outcome.retries());
  }
  if (!outcome.ok) {
    reg.counter("stream.checkpoint.save_error").Increment();
    std::cerr << "cellspot: cannot save checkpoint '" << path.string() << "' after "
              << outcome.attempts << " attempts: " << last_error << "\n";
    return false;
  }
  reg.counter("stream.checkpoint.saved").Increment();

  // Prune beyond the retention window. Best effort: a prune failure
  // costs disk, not correctness.
  const std::vector<std::filesystem::path> all = ListCheckpoints(dir_);
  for (std::size_t i = kKeepGenerations; i < all.size(); ++i) {
    std::error_code ec;
    std::filesystem::remove(all[i], ec);
  }
  return true;
}

std::optional<CheckpointStore::Loaded> CheckpointStore::LoadLatest() {
  auto& reg = obs::MetricsRegistry::Global();
  for (const std::filesystem::path& path : ListCheckpoints(dir_)) {
    try {
      const snapshot::SnapshotImage image = snapshot::ReadSnapshotFile(path);
      snapshot::ByteReader meta(image.Payload(kMetaSection));
      Loaded loaded;
      loaded.tick = meta.Varint();
      const std::uint64_t hash = meta.U64();
      meta.ExpectEnd();
      if (hash != config_hash_) {
        reg.counter("stream.checkpoint.incompatible").Increment();
        std::cerr << "cellspot: skipping checkpoint '" << path.string()
                  << "': written under a different configuration\n";
        continue;
      }
      loaded.payload = std::string(image.Payload(kStateSection));
      reg.counter("stream.checkpoint.restored").Increment();
      return loaded;
    } catch (const snapshot::SnapshotError& e) {
      reg.counter("stream.checkpoint.corrupt").Increment();
      const bool quarantined = snapshot::QuarantineSnapshotFile(path);
      std::cerr << "cellspot: discarding corrupt checkpoint '" << path.string()
                << "': " << e.what()
                << (quarantined ? "; quarantined as *.corrupt" : "")
                << "; falling back to previous generation\n";
    }
  }
  return std::nullopt;
}

}  // namespace cellspot::stream
