#include "cellspot/snapshot/stage_cache.hpp"

#include <iostream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "cellspot/obs/metrics.hpp"
#include "cellspot/obs/trace.hpp"
#include "cellspot/snapshot/serde.hpp"
#include "cellspot/snapshot/snapshot.hpp"
#include "cellspot/util/retry.hpp"
#include "cellspot/util/rng.hpp"

namespace cellspot::snapshot {

namespace {

void CountMiss(std::string_view reason) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.counter("snapshot.miss").Increment();
  reg.counter("snapshot.miss." + std::string(reason)).Increment();
}

std::uint64_t ImageBytes(std::span<const Section> sections) {
  std::uint64_t total = 0;
  for (const Section& s : sections) total += s.payload.size();
  return total;
}

std::string Hex16(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

std::filesystem::path EntryPath(const std::filesystem::path& dir, std::string_view stage,
                                std::uint64_t key) {
  return dir / (std::string(stage) + "." + Hex16(key) + ".snap");
}

/// Best-effort store; transient IO failures are retried (deterministic
/// capped policy, no waiting), persistent ones counted, never propagated.
void TryStore(const std::filesystem::path& path, std::string_view stage,
              std::span<const Section> sections) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::TraceSpan span("snapshot.save." + std::string(stage));
  std::string last_error;
  const util::RetryOutcome outcome =
      util::RetryCall(util::RetryPolicy{.max_attempts = 3}, [&] {
        try {
          WriteSnapshotFile(path, sections);
          return true;
        } catch (const SnapshotError& e) {
          last_error = e.what();
          return false;
        }
      });
  if (outcome.retries() > 0) {
    reg.counter("snapshot.save_retry").Increment(outcome.retries());
  }
  if (outcome.ok) {
    const std::uint64_t bytes = ImageBytes(sections);
    reg.counter("snapshot.bytes_written").Increment(bytes);
    span.set_items(bytes);
  } else {
    reg.counter("snapshot.save_error").Increment();
    std::cerr << "cellspot: cannot save " << stage << " snapshot '" << path.string()
              << "' after " << outcome.attempts << " attempts: " << last_error << "\n";
  }
}

}  // namespace

std::uint64_t Fnv1a64(std::string_view bytes, std::uint64_t seed) noexcept {
  std::uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t WorldKey(const simnet::WorldConfig& config) {
  const std::string stream = "rng-stream " + std::to_string(util::kRngStreamVersion);
  return Fnv1a64(EncodeWorldConfig(config),
                 Fnv1a64(stream, 0xcbf29ce484222325ULL ^ kSnapshotFormatVersion));
}

std::uint64_t ClassifiedKey(const simnet::WorldConfig& config,
                            const core::ClassifierConfig& classifier) {
  return Fnv1a64(EncodeClassifierConfig(classifier), WorldKey(config));
}

bool StageCache::Quarantine(const std::filesystem::path& path) const {
  std::lock_guard<util::OrderedMutex> lock(quarantine_mu_);
  return QuarantineSnapshotFile(path);
}

StageCache::StageCache(std::filesystem::path dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_, ec) || ec) {
    std::cerr << "cellspot: cannot create snapshot directory '" << dir_.string()
              << "' (" << ec.message() << "); snapshot cache disabled\n";
    return;
  }
  enabled_ = true;
}

template <typename Decode>
auto StageCache::TryLoad(const std::filesystem::path& path, std::string_view stage,
                         Decode decode) const {
  using Artifact = decltype(decode(std::declval<const SnapshotImage&>()));
  if (!enabled_) return std::optional<Artifact>();
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) {
    CountMiss("absent");
    return std::optional<Artifact>();
  }
  obs::TraceSpan span("snapshot.load." + std::string(stage));
  try {
    const SnapshotImage image = ReadSnapshotFile(path);
    std::optional<Artifact> artifact(decode(image));
    auto& reg = obs::MetricsRegistry::Global();
    reg.counter("snapshot.hit").Increment();
    reg.counter("snapshot.bytes_read").Increment(image.size_bytes());
    span.set_items(image.size_bytes());
    return artifact;
  } catch (const SnapshotError& e) {
    CountMiss(SnapshotErrorReasonName(e.reason()));
    const bool quarantined = Quarantine(path);
    std::cerr << "cellspot: discarding " << stage << " snapshot '" << path.string()
              << "': " << e.what() << " [" << SnapshotErrorReasonName(e.reason())
              << "]" << (quarantined ? "; quarantined as *.corrupt" : "") << "\n";
    return std::optional<Artifact>();
  }
}

std::filesystem::path StageCache::WorldPath(const simnet::WorldConfig& config) const {
  return EntryPath(dir_, "world", WorldKey(config));
}

std::filesystem::path StageCache::DatasetsPath(const simnet::WorldConfig& config) const {
  return EntryPath(dir_, "datasets", WorldKey(config));
}

std::filesystem::path StageCache::ClassifiedPath(
    const simnet::WorldConfig& config, const core::ClassifierConfig& classifier) const {
  return EntryPath(dir_, "classified", ClassifiedKey(config, classifier));
}

std::filesystem::path StageCache::LpmPath(const simnet::WorldConfig& config) const {
  return EntryPath(dir_, "lpm", WorldKey(config));
}

std::optional<simnet::World> StageCache::TryLoadWorld(const simnet::WorldConfig& config) {
  return TryLoad(WorldPath(config), "world",
                 [](const SnapshotImage& image) { return DecodeWorld(image); });
}

void StageCache::StoreWorld(const simnet::World& world) {
  if (!enabled_) return;
  TryStore(WorldPath(world.config()), "world", EncodeWorld(world));
}

std::optional<std::pair<dataset::BeaconDataset, dataset::DemandDataset>>
StageCache::TryLoadDatasets(const simnet::WorldConfig& config) {
  return TryLoad(DatasetsPath(config), "datasets",
                 [](const SnapshotImage& image) { return DecodeDatasets(image); });
}

void StageCache::StoreDatasets(const simnet::WorldConfig& config,
                               const dataset::BeaconDataset& beacons,
                               const dataset::DemandDataset& demand) {
  if (!enabled_) return;
  TryStore(DatasetsPath(config), "datasets", EncodeDatasets(beacons, demand));
}

std::optional<core::ClassifiedSubnets> StageCache::TryLoadClassified(
    const simnet::WorldConfig& config, const core::ClassifierConfig& classifier,
    exec::Executor* executor) {
  return TryLoad(ClassifiedPath(config, classifier), "classified",
                 [executor](const SnapshotImage& image) {
                   return DecodeClassified(image, executor);
                 });
}

void StageCache::StoreClassified(const simnet::WorldConfig& config,
                                 const core::ClassifierConfig& classifier,
                                 const core::ClassifiedSubnets& classified) {
  if (!enabled_) return;
  TryStore(ClassifiedPath(config, classifier), "classified", EncodeClassified(classified));
}

std::optional<asdb::RoutingTable::FlatRib> StageCache::TryLoadLpm(
    const simnet::WorldConfig& config) {
  return TryLoad(LpmPath(config), "lpm",
                 [](const SnapshotImage& image) { return DecodeRibLpm(image); });
}

void StageCache::StoreLpm(const simnet::WorldConfig& config,
                          const asdb::RoutingTable& rib) {
  if (!enabled_) return;
  TryStore(LpmPath(config), "lpm", EncodeRibLpm(rib));
}

}  // namespace cellspot::snapshot
