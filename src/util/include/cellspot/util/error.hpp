// Error types shared across the cellspot libraries.
//
// Following the C++ Core Guidelines (E.14), we throw purpose-designed
// exception types derived from the standard hierarchy and reserve error
// codes for hot paths that must not throw.
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace cellspot {

/// Taxonomy of input faults the loaders can encounter. Every ParseError
/// carries one of these so fault-tolerant ingestion (util/ingest.hpp) can
/// account rejected lines per category.
enum class ParseErrorCategory : std::uint8_t {
  kTruncatedLine = 0,   // fewer fields than the record format requires
  kBadFieldCount,       // extra fields / wrong column count
  kBadAddress,          // unparsable IP address or prefix
  kBadNumber,           // numeric field that does not parse or is out of range
  kBadEnumValue,        // unknown enum name (browser, connection, class, ...)
  kDuplicateKey,        // key seen twice where the format forbids it
  kUnterminatedQuote,   // CSV quote opened but never closed
  kBadHeader,           // missing or wrong header line
  kInconsistentRecord,  // fields parse individually but contradict each other
  kOther,               // anything else
};

inline constexpr std::size_t kParseErrorCategoryCount = 10;

/// Stable lowercase name for a category ("truncated-line", "bad-address", ...).
[[nodiscard]] std::string_view ParseErrorCategoryName(ParseErrorCategory c) noexcept;

/// Thrown when parsing of external input (addresses, log lines, CSV rows)
/// fails. Carries a human-readable description of what was being parsed,
/// a fault category, and — when the failure happened inside a line-oriented
/// loader — the 1-based line number of the offending line.
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what,
                      ParseErrorCategory category = ParseErrorCategory::kOther)
      : std::runtime_error(what), category_(category) {}

  ParseError(const std::string& what, ParseErrorCategory category, std::size_t line_no)
      : std::runtime_error("line " + std::to_string(line_no) + ": " + what),
        category_(category),
        line_no_(line_no) {}

  ParseError(const std::string& what, std::size_t line_no)
      : ParseError(what, ParseErrorCategory::kOther, line_no) {}

  [[nodiscard]] ParseErrorCategory category() const noexcept { return category_; }

  /// 1-based line number of the offending input line, when known.
  [[nodiscard]] std::optional<std::size_t> line_number() const noexcept {
    return line_no_;
  }

 private:
  ParseErrorCategory category_ = ParseErrorCategory::kOther;
  std::optional<std::size_t> line_no_;
};

/// Thrown when a configuration object is internally inconsistent
/// (e.g. a WorldConfig whose demand shares do not sum to ~1).
class ConfigError : public std::logic_error {
 public:
  explicit ConfigError(const std::string& what) : std::logic_error(what) {}
};

}  // namespace cellspot
