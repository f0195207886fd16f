#include "cellspot/faultsim/stream_corruptor.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>

#include "cellspot/util/strings.hpp"

namespace cellspot::faultsim {

namespace {

// Junk bytes no cellspot record format accepts in any field.
constexpr std::string_view kGarbleChars = "#~?^!";

std::string JoinFields(const std::vector<std::string_view>& fields) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out.push_back(',');
    out += fields[i];
  }
  return out;
}

}  // namespace

std::uint64_t CorruptionStats::total_faults() const noexcept {
  std::uint64_t n = 0;
  for (std::uint64_t f : faults) n += f;
  return n;
}

StreamCorruptor::StreamCorruptor(const FaultMix& mix, std::uint64_t seed,
                                 bool preserve_originals)
    : mix_(mix), preserve_originals_(preserve_originals), rng_(seed) {
  if (mix.Total() > 1.0) {
    throw std::invalid_argument("StreamCorruptor: fault mix exceeds probability 1");
  }
  if (mix.truncate < 0 || mix.drop_field < 0 || mix.garble_bytes < 0 ||
      mix.shuffle_columns < 0 || mix.duplicate_row < 0 || mix.blank_line < 0) {
    throw std::invalid_argument("StreamCorruptor: negative fault probability");
  }
}

std::string StreamCorruptor::Truncate(std::string_view line) {
  if (line.size() < 2) return Garble(line);
  const auto cut = rng_.UniformInt(1, line.size() - 1);
  return std::string(line.substr(0, cut));
}

std::string StreamCorruptor::DropField(std::string_view line) {
  auto fields = util::Split(line, ',');
  if (fields.size() < 2) return Garble(line);
  const auto victim = rng_.UniformInt(0, fields.size() - 1);
  fields.erase(fields.begin() + static_cast<std::ptrdiff_t>(victim));
  return JoinFields(fields);
}

std::string StreamCorruptor::Garble(std::string_view line) {
  std::string out(line);
  if (out.empty()) return out;
  const auto n = rng_.UniformInt(1, std::min<std::uint64_t>(3, out.size()));
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto pos = rng_.UniformInt(0, out.size() - 1);
    out[pos] = kGarbleChars[rng_.UniformInt(0, kGarbleChars.size() - 1)];
  }
  return out;
}

std::string StreamCorruptor::ShuffleColumns(std::string_view line) {
  auto fields = util::Split(line, ',');
  if (fields.size() < 2) return Garble(line);
  // A rotation by 1..n-1 guarantees every field moves.
  const auto shift = rng_.UniformInt(1, fields.size() - 1);
  std::vector<std::string_view> rotated;
  rotated.reserve(fields.size());
  for (std::size_t i = 0; i < fields.size(); ++i) {
    rotated.push_back(fields[(i + shift) % fields.size()]);
  }
  return JoinFields(rotated);
}

void StreamCorruptor::CorruptLine(std::string_view line,
                                  std::vector<std::string>& out) {
  ++stats_.lines_in;
  auto emit = [&](std::string s) {
    out.push_back(std::move(s));
    ++stats_.lines_out;
  };
  if (line.empty()) {  // nothing to corrupt; keep the rng stream aligned
    emit(std::string(line));
    return;
  }

  const double u = rng_.UniformDouble();
  double cum = 0.0;
  auto hit = [&](double p) {
    cum += p;
    return u < cum;
  };

  FaultKind kind;
  if (hit(mix_.truncate)) kind = FaultKind::kTruncate;
  else if (hit(mix_.drop_field)) kind = FaultKind::kDropField;
  else if (hit(mix_.garble_bytes)) kind = FaultKind::kGarbleBytes;
  else if (hit(mix_.shuffle_columns)) kind = FaultKind::kShuffleColumns;
  else if (hit(mix_.duplicate_row)) kind = FaultKind::kDuplicateRow;
  else if (hit(mix_.blank_line)) kind = FaultKind::kBlankLine;
  else {
    emit(std::string(line));
    return;
  }
  ++stats_.faults[static_cast<std::size_t>(kind)];

  switch (kind) {
    case FaultKind::kTruncate: emit(Truncate(line)); break;
    case FaultKind::kDropField: emit(DropField(line)); break;
    case FaultKind::kGarbleBytes: emit(Garble(line)); break;
    case FaultKind::kShuffleColumns: emit(ShuffleColumns(line)); break;
    case FaultKind::kDuplicateRow:
      emit(std::string(line));
      emit(std::string(line));
      return;  // the original is already in the stream twice
    case FaultKind::kBlankLine:
      emit(rng_.Chance(0.5) ? std::string() : std::string("   "));
      break;
  }
  if (preserve_originals_) emit(std::string(line));
}

CorruptionStats StreamCorruptor::Corrupt(std::istream& in, std::ostream& out) {
  const CorruptionStats before = stats_;
  std::string line;
  std::vector<std::string> produced;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    produced.clear();
    CorruptLine(line, produced);
    for (const std::string& l : produced) out << l << '\n';
  }
  CorruptionStats pass = stats_;
  pass.lines_in -= before.lines_in;
  pass.lines_out -= before.lines_out;
  for (std::size_t i = 0; i < kFaultKindCount; ++i) pass.faults[i] -= before.faults[i];
  return pass;
}

}  // namespace cellspot::faultsim
