// Deterministic corruption harness for ingestion testing.
//
// StreamCorruptor injects a configurable mix of line-level faults into
// any log/CSV stream: truncation, field drops, byte garbling, column
// shuffles, duplicated rows, and blank/whitespace lines. All draws come
// from a seeded cellspot::util::Rng, so a (stream, mix, seed) triple
// reproduces the same corrupted bytes on every run — tests can assert
// exact rejection counts and quarantine contents.
//
// Two modes:
//   destroy (default)  — the faulty line replaces the original record,
//                        as real corruption does (records are lost).
//   preserve originals — the corrupted bytes are injected *alongside*
//                        the intact record. Clean data survives
//                        bit-for-bit, which lets tests prove lenient
//                        ingestion of the corrupted stream reproduces
//                        the clean aggregates exactly.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "cellspot/util/rng.hpp"

namespace cellspot::faultsim {

enum class FaultKind : std::uint8_t {
  kTruncate = 0,       // cut the line mid-field
  kDropField,          // remove one comma-separated field
  kGarbleBytes,        // overwrite 1-3 bytes with junk characters
  kShuffleColumns,     // rotate the comma-separated fields
  kDuplicateRow,       // emit the line twice (valid but repeated data)
  kBlankLine,          // replace with an empty or whitespace-only line
};

inline constexpr std::size_t kFaultKindCount = 6;

/// Per-line fault probabilities; the remainder (1 - Total()) passes the
/// line through untouched. Total() must not exceed 1.
struct FaultMix {
  double truncate = 0.0;
  double drop_field = 0.0;
  double garble_bytes = 0.0;
  double shuffle_columns = 0.0;
  double duplicate_row = 0.0;
  double blank_line = 0.0;

  [[nodiscard]] double Total() const noexcept {
    return truncate + drop_field + garble_bytes + shuffle_columns + duplicate_row +
           blank_line;
  }

  /// `rate` spread evenly over the record-destroying kinds (truncate,
  /// drop-field, garble, shuffle) — the mix used by the ingestion
  /// convergence tests, where duplicates/blanks would change semantics.
  [[nodiscard]] static FaultMix Destructive(double rate) noexcept {
    FaultMix m;
    m.truncate = m.drop_field = m.garble_bytes = m.shuffle_columns = rate / 4.0;
    return m;
  }
};

struct CorruptionStats {
  std::uint64_t lines_in = 0;
  std::uint64_t lines_out = 0;  // includes duplicates and blanks
  std::array<std::uint64_t, kFaultKindCount> faults{};

  [[nodiscard]] std::uint64_t count(FaultKind k) const noexcept {
    return faults[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::uint64_t total_faults() const noexcept;
};

class StreamCorruptor {
 public:
  /// Throws std::invalid_argument when mix.Total() > 1.
  StreamCorruptor(const FaultMix& mix, std::uint64_t seed,
                  bool preserve_originals = false);

  /// Corrupt one line: appends the resulting line(s) to `out` (possibly
  /// zero lines for a destroyed-to-blank record, two for duplicates or
  /// preserved originals) and updates stats.
  void CorruptLine(std::string_view line, std::vector<std::string>& out);

  /// Corrupt a whole stream line by line ('\n'-terminated output).
  /// Returns the stats for this pass (also accumulated in stats()).
  CorruptionStats Corrupt(std::istream& in, std::ostream& out);

  [[nodiscard]] const CorruptionStats& stats() const noexcept { return stats_; }

 private:
  [[nodiscard]] std::string Truncate(std::string_view line);
  [[nodiscard]] std::string DropField(std::string_view line);
  [[nodiscard]] std::string Garble(std::string_view line);
  [[nodiscard]] std::string ShuffleColumns(std::string_view line);

  FaultMix mix_;
  bool preserve_originals_;
  util::Rng rng_;
  CorruptionStats stats_;
};

}  // namespace cellspot::faultsim
