#include "cellspot/util/sink.hpp"

#include <ostream>
#include <utility>

#include "cellspot/util/csv.hpp"
#include "cellspot/util/table.hpp"

namespace cellspot::util {

namespace {

/// Minimal JSON string escaping (the sink emits every cell as a string;
/// producers format numbers before they reach the sink).
std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

class CsvSink final : public TableSink {
 public:
  explicit CsvSink(std::ostream& out) : writer_(out) {}

  void Begin(const std::vector<std::string>& header) override { writer_.WriteRow(header); }
  void Row(const std::vector<std::string>& cells) override { writer_.WriteRow(cells); }
  void End() override {}

 private:
  CsvWriter writer_;
};

class JsonSink final : public TableSink {
 public:
  JsonSink(std::ostream& out, std::string title) : out_(out), title_(std::move(title)) {}

  void Begin(const std::vector<std::string>& header) override {
    out_ << "{";
    if (!title_.empty()) out_ << "\"title\":\"" << JsonEscape(title_) << "\",";
    out_ << "\"header\":";
    WriteArray(header);
    out_ << ",\"rows\":[";
  }

  void Row(const std::vector<std::string>& cells) override {
    if (!first_row_) out_ << ",";
    first_row_ = false;
    out_ << "\n  ";
    WriteArray(cells);
  }

  void End() override { out_ << (first_row_ ? "]}\n" : "\n]}\n"); }

 private:
  void WriteArray(const std::vector<std::string>& cells) {
    out_ << "[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) out_ << ",";
      out_ << "\"" << JsonEscape(cells[i]) << "\"";
    }
    out_ << "]";
  }

  std::ostream& out_;
  std::string title_;
  bool first_row_ = true;
};

class HumanSink final : public TableSink {
 public:
  HumanSink(std::ostream& out, std::string title) : out_(out), title_(std::move(title)) {}

  void Begin(const std::vector<std::string>& header) override {
    table_ = std::make_unique<TextTable>(header);
  }

  void Row(const std::vector<std::string>& cells) override { table_->AddRow(cells); }

  void End() override {
    out_ << (title_.empty() ? table_->Render() : table_->RenderWithTitle(title_));
  }

 private:
  std::ostream& out_;
  std::string title_;
  std::unique_ptr<TextTable> table_;
};

}  // namespace

std::optional<TableFormat> ParseTableFormat(std::string_view name) noexcept {
  if (name == "csv") return TableFormat::kCsv;
  if (name == "json") return TableFormat::kJson;
  if (name == "human") return TableFormat::kHuman;
  return std::nullopt;
}

std::unique_ptr<TableSink> MakeTableSink(TableFormat format, std::ostream& out,
                                         std::string title) {
  switch (format) {
    case TableFormat::kCsv: return std::make_unique<CsvSink>(out);
    case TableFormat::kJson: return std::make_unique<JsonSink>(out, std::move(title));
    case TableFormat::kHuman: return std::make_unique<HumanSink>(out, std::move(title));
  }
  return std::make_unique<CsvSink>(out);
}

}  // namespace cellspot::util
