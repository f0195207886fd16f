#include "cellspot/snapshot/stage_cache.hpp"

#include <iostream>
#include <string>
#include <system_error>
#include <vector>

#include "cellspot/obs/metrics.hpp"
#include "cellspot/obs/trace.hpp"
#include "cellspot/snapshot/mapped.hpp"
#include "cellspot/snapshot/serde.hpp"
#include "cellspot/snapshot/snapshot.hpp"
#include "cellspot/util/retry.hpp"

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

/// Probe one snapshot file and decode it via `decode`. Absent files are
/// quiet misses; anything corrupt is reported, counted by reason and
/// quarantined so the next run does not trip over the same bytes.
template <typename Artifact, typename Decode, typename Quarantine>
std::optional<Artifact> TryLoad(const std::filesystem::path& path,
                                std::string_view stage, Decode&& decode,
                                Quarantine&& quarantine) {
  auto& reg = obs::MetricsRegistry::Global();
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) {
    CountMiss("absent");
    return std::nullopt;
  }
  obs::TraceSpan span("snapshot.load");
  try {
    std::vector<Section> sections = ReadSnapshotFile(path);
    Artifact artifact = decode(sections);
    reg.counter("snapshot.hit").Increment();
    reg.counter("snapshot.bytes_read").Increment(ImageBytes(sections));
    span.set_items(1);
    return artifact;
  } catch (const SnapshotError& e) {
    CountMiss(SnapshotErrorReasonName(e.reason()));
    const bool quarantined = quarantine(path);
    std::cerr << "cellspot: discarding " << stage << " snapshot '" << path.string()
              << "': " << e.what() << " [" << SnapshotErrorReasonName(e.reason())
              << "]" << (quarantined ? "; quarantined as *.corrupt" : "") << "\n";
    return std::nullopt;
  }
}

/// Best-effort store; transient IO failures are retried (deterministic
/// capped policy, no waiting), persistent ones counted, never propagated.
void TryStore(const std::filesystem::path& path, std::string_view stage,
              std::span<const Section> sections) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::TraceSpan span("snapshot.save");
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
    reg.counter("snapshot.bytes_written").Increment(ImageBytes(sections));
    span.set_items(1);
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

std::filesystem::path StageCache::WorldPath(const simnet::WorldConfig& config) const {
  std::uint64_t key = Fnv1a64(EncodeWorldConfig(config),
                              0xcbf29ce484222325ULL ^ kSnapshotFormatVersion);
  return dir_ / ("world." + Hex16(key) + ".snap");
}

std::filesystem::path StageCache::DatasetsPath(const simnet::WorldConfig& config) const {
  std::uint64_t key = Fnv1a64(EncodeWorldConfig(config),
                              0xcbf29ce484222325ULL ^ kSnapshotFormatVersion);
  return dir_ / ("datasets." + Hex16(key) + ".snap");
}

std::filesystem::path StageCache::ClassifiedPath(
    const simnet::WorldConfig& config, const core::ClassifierConfig& classifier) const {
  std::uint64_t key = Fnv1a64(EncodeWorldConfig(config),
                              0xcbf29ce484222325ULL ^ kSnapshotFormatVersion);
  key = Fnv1a64(EncodeClassifierConfig(classifier), key);
  return dir_ / ("classified." + Hex16(key) + ".snap");
}

std::optional<simnet::World> StageCache::TryLoadWorld(const simnet::WorldConfig& config) {
  if (!enabled_) return std::nullopt;
  return TryLoad<simnet::World>(
      WorldPath(config), "world",
      [](const std::vector<Section>& sections) { return DecodeWorld(sections); },
      [this](const std::filesystem::path& p) { return Quarantine(p); });
}

void StageCache::StoreWorld(const simnet::World& world) {
  if (!enabled_) return;
  TryStore(WorldPath(world.config()), "world", EncodeWorld(world));
}

std::optional<std::pair<dataset::BeaconDataset, dataset::DemandDataset>>
StageCache::TryLoadDatasets(const simnet::WorldConfig& config) {
  if (!enabled_) return std::nullopt;
  return TryLoad<std::pair<dataset::BeaconDataset, dataset::DemandDataset>>(
      DatasetsPath(config), "datasets",
      [](const std::vector<Section>& sections) { return DecodeDatasets(sections); },
      [this](const std::filesystem::path& p) { return Quarantine(p); });
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
  if (!enabled_) return std::nullopt;
  const std::filesystem::path path = ClassifiedPath(config, classifier);
  auto& reg = obs::MetricsRegistry::Global();
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) {
    CountMiss("absent");
    return std::nullopt;
  }
  obs::TraceSpan span("snapshot.load");
  try {
    // Mapped rather than read: container validation runs once over the
    // mapping and the per-shard sections decode in place — in parallel
    // when an executor is given (the mapping is read-only; shards touch
    // disjoint sections).
    MappedSnapshot snap = MappedSnapshot::Open(path);
    core::ClassifiedSubnets classified = DecodeClassifiedMapped(snap, executor);
    reg.counter("snapshot.hit").Increment();
    reg.counter("snapshot.bytes_read").Increment(snap.size_bytes());
    span.set_items(1);
    return classified;
  } catch (const SnapshotError& e) {
    CountMiss(SnapshotErrorReasonName(e.reason()));
    const bool quarantined = Quarantine(path);
    std::cerr << "cellspot: discarding classified snapshot '" << path.string()
              << "': " << e.what() << " [" << SnapshotErrorReasonName(e.reason())
              << "]" << (quarantined ? "; quarantined as *.corrupt" : "") << "\n";
    return std::nullopt;
  }
}

void StageCache::StoreClassified(const simnet::WorldConfig& config,
                                 const core::ClassifierConfig& classifier,
                                 const core::ClassifiedSubnets& classified) {
  if (!enabled_) return;
  TryStore(ClassifiedPath(config, classifier), "classified", EncodeClassified(classified));
}

std::filesystem::path StageCache::LpmPath(const simnet::WorldConfig& config) const {
  std::uint64_t key = Fnv1a64(EncodeWorldConfig(config),
                              0xcbf29ce484222325ULL ^ kSnapshotFormatVersion);
  return dir_ / ("lpm." + Hex16(key) + ".snap");
}

std::optional<asdb::RoutingTable::FlatRib> StageCache::TryLoadLpm(
    const simnet::WorldConfig& config) {
  if (!enabled_) return std::nullopt;
  const std::filesystem::path path = LpmPath(config);
  auto& reg = obs::MetricsRegistry::Global();
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) {
    CountMiss("absent");
    return std::nullopt;
  }
  obs::TraceSpan span("snapshot.load");
  try {
    // Unlike the other entries this one is not read into memory:
    // MappedSnapshot validates the container over the mapping and the
    // engine views the payload in place, pinning the map via keepalive.
    MappedSnapshot snap = MappedSnapshot::Open(path);
    asdb::RoutingTable::FlatRib flat =
        ViewRibLpm(snap.SectionPayload(kLpmRibSection), snap.keepalive());
    reg.counter("snapshot.hit").Increment();
    reg.counter("snapshot.bytes_read").Increment(flat.payload_bytes());
    span.set_items(1);
    return flat;
  } catch (const SnapshotError& e) {
    CountMiss(SnapshotErrorReasonName(e.reason()));
    const bool quarantined = Quarantine(path);
    std::cerr << "cellspot: discarding lpm snapshot '" << path.string()
              << "': " << e.what() << " [" << SnapshotErrorReasonName(e.reason())
              << "]" << (quarantined ? "; quarantined as *.corrupt" : "") << "\n";
    return std::nullopt;
  }
}

void StageCache::StoreLpm(const simnet::WorldConfig& config,
                          const asdb::RoutingTable& rib) {
  if (!enabled_) return;
  TryStore(LpmPath(config), "lpm", EncodeRibLpm(rib));
}

}  // namespace cellspot::snapshot
