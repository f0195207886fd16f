// Unified tabular output sink: one interface for every component that
// renders rows — analysis::export figure writers, CLI report printing,
// and the query engine — so `--format`/`--out` behave identically across
// subcommands.
//
// A sink receives pre-formatted string cells (the producer owns numeric
// formatting, e.g. FormatDouble(v, 6) for figure series) and renders
// them as CSV (the exact dialect CsvWriter always produced), JSON (one
// object with header and row arrays), or a human text table. Usage is
// strictly Begin → Row* → End; End flushes buffered formats (the human
// table renders everything at once to align columns).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cellspot::util {

enum class TableFormat : std::uint8_t {
  kCsv = 0,
  kJson,
  kHuman,
};

/// The format named "csv", "json" or "human"; nullopt for anything else.
[[nodiscard]] std::optional<TableFormat> ParseTableFormat(std::string_view name) noexcept;

class TableSink {
 public:
  virtual ~TableSink() = default;

  /// Start a table with its column names. Must be called exactly once,
  /// before any Row().
  virtual void Begin(const std::vector<std::string>& header) = 0;

  /// Emit one data row. Cells beyond the header width are rejected by
  /// the human renderer (TextTable contract); keep rows <= header size.
  virtual void Row(const std::vector<std::string>& cells) = 0;

  /// Finish the table. Buffering sinks (human, json) write here.
  virtual void End() = 0;
};

/// Sink writing to `out`, which must outlive the sink. `title` is a
/// banner for the human format and a "title" field for JSON; CSV ignores
/// it (figure files stay byte-identical to the pre-sink writers).
[[nodiscard]] std::unique_ptr<TableSink> MakeTableSink(TableFormat format,
                                                       std::ostream& out,
                                                       std::string title = {});

}  // namespace cellspot::util
