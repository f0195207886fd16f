// Crash-safe checkpoint generations for the streaming daemon.
//
// Each checkpoint is one CSPT container (write-to-temp + atomic rename,
// per-section CRC) named checkpoint.<%016x tick>.ckpt. The store keeps
// the newest kKeepGenerations files so a checkpoint that is corrupted —
// torn write, bit rot, chaos injection — falls back to the previous
// generation instead of aborting recovery: the corrupt file is
// quarantined as *.corrupt, counted, and the next-newest generation is
// tried. A checkpoint written under a different world/classifier config
// (detected by the embedded config hash) is skipped the same way. No
// checkpoint defect is ever fatal; the worst case is an empty restore,
// which just means replaying the stream from scratch.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>

namespace cellspot::stream {

class CheckpointStore {
 public:
  /// Generations kept on disk; older files are pruned after each save.
  static constexpr std::size_t kKeepGenerations = 2;

  /// `config_hash` keys compatibility: LoadLatest only restores
  /// checkpoints written with the same hash.
  CheckpointStore(std::filesystem::path dir, std::uint64_t config_hash);

  /// Persist `payload` as the checkpoint for logical tick `tick`.
  /// A failed write is retried at once, up to three attempts in all;
  /// persistent failure is counted (stream.checkpoint.save_error) and
  /// reported on stderr, never thrown. Returns true on success.
  bool Save(std::uint64_t tick, const std::string& payload);

  struct Loaded {
    std::uint64_t tick = 0;
    std::string payload;
  };

  /// Restore the newest usable checkpoint: corrupt files are
  /// quarantined and counted, incompatible configs skipped, and the
  /// next-newest generation tried. nullopt when nothing usable remains.
  [[nodiscard]] std::optional<Loaded> LoadLatest();

  /// Path a checkpoint for `tick` would live at (exposed for tests and
  /// the chaos harness, which corrupts checkpoints in place).
  [[nodiscard]] std::filesystem::path PathForTick(std::uint64_t tick) const;

  [[nodiscard]] const std::filesystem::path& dir() const noexcept { return dir_; }

 private:
  std::filesystem::path dir_;
  std::uint64_t config_hash_;
};

}  // namespace cellspot::stream
