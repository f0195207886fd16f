#include "cli/command.hpp"

#include <array>
#include <cstdio>
#include <string>

#include "cli/exit_codes.hpp"

namespace cellspot::cli {
namespace {

constexpr std::array<Command, 9> kCommands = {{
    {"generate",
     "build a synthetic world and export its datasets as CSV",
     "--out DIR [--scale S] [--seed N] [--tiny]",
     CmdGenerate},
    {"classify",
     "per-block cellular classification from a beacon CSV",
     "--beacons F [--threshold T] [--min-hits N] [--out F]",
     CmdClassify},
    {"ases",
     "run the AS pipeline (aggregate + the three filters)",
     "--beacons F --demand F --rib F --asdb F\n"
     "              [--threshold T] [--min-demand D] [--min-hits N]\n"
     "              [--no-class-rule]",
     CmdAses},
    {"report",
     "country demand summary from CSV inputs",
     "--beacons F --demand F --rib F --asdb F\n"
     "              [--format {human,csv,json}] [--out F]",
     CmdReport},
    {"validate",
     "score classification against a ground-truth block list",
     "--beacons F --demand F --truth F [--threshold T]",
     CmdValidate},
    {"compress",
     "aggregate classified blocks into covering prefixes",
     "--classified F   (output of `classify`)",
     CmdCompress},
    {"figures",
     "run the full pipeline and export every paper figure CSV",
     "--out DIR [--scale S] [--seed N] [--format {csv,json}]",
     CmdFigures},
    {"stream",
     "drive the streaming daemon over a generated event stream",
     "[--scale S] [--seed N] [--tiny] [--rounds R]\n"
     "              [--queue-capacity N] [--backpressure "
     "{block,shed-oldest,shed-newest}]\n"
     "              [--checkpoint-dir DIR] [--checkpoint-interval T]\n"
     "              [--staleness-ticks T] [--events-per-tick N]\n"
     "              [--chaos RATE] [--chaos-seed N] [--verify]",
     CmdStream},
    {"query",
     "run a columnar query over snapshots or a stream checkpoint",
     "{--snapshot-dir DIR | --world F --datasets F [--classified F]\n"
     "               | --world F --checkpoint-dir DIR}\n"
     "              [--table {beacon,demand,classified}] [--where EXPR]...\n"
     "              [--select COLS] [--group-by COLS] [--agg LIST]\n"
     "              [--order-by COL[:desc]] [--top N] [--limit N]\n"
     "              [--preset {table2,fig2_cdf,country_share}]\n"
     "              [--threshold T] [--min-hits N]\n"
     "              [--format {human,csv,json}] [--out F]",
     CmdQuery},
}};

}  // namespace

std::span<const Command> Registry() { return kCommands; }

const Command* FindCommand(std::string_view name) {
  for (const Command& cmd : kCommands) {
    if (cmd.name == name) return &cmd;
  }
  return nullptr;
}

int PrintUsage() {
  std::string out = "usage:\n";
  for (const Command& cmd : kCommands) {
    out += "  cellspot ";
    out += cmd.name;
    out += ' ';
    out += cmd.usage;
    out += '\n';
  }
  out += "\nsubcommands:\n";
  for (const Command& cmd : kCommands) {
    out += "  ";
    out += cmd.name;
    out.append(cmd.name.size() < 10 ? 10 - cmd.name.size() : 1, ' ');
    out += cmd.summary;
    out += '\n';
  }
  std::fprintf(stderr, "%s", out.c_str());
  std::fprintf(
      stderr,
      "\nglobal options:\n"
      "  --threads N                        worker threads for parallel stages\n"
      "                                     (default: CELLSPOT_THREADS, else\n"
      "                                     hardware concurrency); results are\n"
      "                                     identical at any thread count\n"
      "  --metrics-out F                    write a cellspot-metrics/2 JSON\n"
      "                                     snapshot at exit (also honours\n"
      "                                     CELLSPOT_METRICS)\n"
      "  --snapshot-dir DIR                 cache generate/figures stage output\n"
      "                                     as binary snapshots in DIR; repeat\n"
      "                                     runs with the same config skip world\n"
      "                                     and dataset generation (also honours\n"
      "                                     CELLSPOT_SNAPSHOT_DIR; corrupt files\n"
      "                                     are quarantined as *.corrupt and\n"
      "                                     regenerated)\n"
      "  --format {human,csv,json}          table output format where supported\n"
      "  --out F                            write table output to F, not stdout\n"
      "\n"
      "ingestion options (classify/ases/report/validate/compress):\n"
      "  --on-error {fail,skip,quarantine}  first-fault abort (default),\n"
      "                                     skip-and-account, or skip + write\n"
      "                                     rejected lines verbatim\n"
      "  --max-error-rate R                 lenient-mode budget; rejecting more\n"
      "                                     than this fraction of lines exits %d\n"
      "  --quarantine-file F                where quarantined lines go\n"
      "                                     (default: cellspot.quarantine)\n"
      "\n"
      "exit codes: 0 ok, 1 error, 2 usage, %d parse failure (strict),\n"
      "            %d error budget exceeded, %d query/snapshot error\n",
      kExitBudgetExceeded, kExitParseFailure, kExitBudgetExceeded, kExitQuery);
  return kExitUsage;
}

}  // namespace cellspot::cli
