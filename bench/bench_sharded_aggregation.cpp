// Sharded aggregation engine vs the sequential single-merge baseline.
//
// Setup (untimed): the shared paper-scale experiment up to the classify
// stage — RIB, classified subnets, BEACON and DEMAND datasets. Each rep
// then aggregates the candidate-AS set four ways over the identical
// inputs: the sequential reference (tests/support), then the sharded
// engine at 1, 2 and 8 shards. Every sharded output is fingerprinted
// (doubles bit-cast, prefixes byte-for-byte) against the sequential
// one; any divergence zeroes the item count, which trips the harness's
// items-consistency check and fails the run with exit 3. The printed
// 8-shard speedup is the acceptance number: it must stay >= 2x over the
// sequential engine at the default scale (see ISSUE/DESIGN.md §14).
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cellspot/core/sharded_aggregation.hpp"
#include "cellspot/exec/executor.hpp"
#include "support/sequential_aggregation.hpp"

namespace {

using namespace cellspot;

/// Canonical byte encoding of an aggregate list. Doubles go through
/// bit_cast so "equal" means bit-identical, not approximately close —
/// the sharded engine's contract is byte-identity, and a fold-order
/// slip would show up here long before it moved any report.
std::string Fingerprint(const std::vector<core::AsAggregate>& ases) {
  std::string out;
  out.reserve(ases.size() * 96);
  const auto u64 = [&out](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<char>(v & 0xFF));
      v >>= 8;
    }
  };
  const auto f64 = [&](double v) { u64(std::bit_cast<std::uint64_t>(v)); };
  for (const core::AsAggregate& as : ases) {
    u64(as.asn);
    u64(as.cell_blocks_v4);
    u64(as.cell_blocks_v6);
    u64(as.observed_blocks_v4);
    u64(as.observed_blocks_v6);
    u64(as.demand_blocks);
    f64(as.cell_demand_du);
    f64(as.total_demand_du);
    u64(as.beacon_hits);
    u64(as.cellular_blocks.size());
    for (const netaddr::Prefix& p : as.cellular_blocks) {
      out.push_back(static_cast<char>(p.family()));
      out.append(reinterpret_cast<const char*>(p.address().bytes().data()), 16);
      out.push_back(static_cast<char>(p.length()));
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::size_t kShardCounts[] = {1, 2, 8};

  const int rc = bench::RunBench(argc, argv, "sharded_aggregation", [&]() -> std::uint64_t {
    // First-use statics: RunBench has parsed --threads by the time the
    // body runs, so the shared executor picks up the requested width
    // (Shared() pins its thread count at construction).
    static const analysis::Experiment& exp = analysis::SharedPaperExperiment();
    static exec::Executor& executor = exec::Executor::Shared();
    std::vector<core::AsAggregate> sequential;
    const double sequential_ms = bench::TimedSpan("aggregate.bench.sequential", [&] {
      sequential = test_support::AggregateCandidateAsesSequential(
          exp.world.rib(), exp.classified, exp.beacons, exp.demand, executor);
    });
    const std::string want = Fingerprint(sequential);

    double sharded_ms[std::size(kShardCounts)] = {};
    for (std::size_t i = 0; i < std::size(kShardCounts); ++i) {
      std::vector<core::AsAggregate> sharded;
      sharded_ms[i] =
          bench::TimedSpan("aggregate.bench.shard" + std::to_string(kShardCounts[i]), [&] {
            sharded = core::AggregateCandidateAsesSharded(
                exp.world.rib(), exp.classified, exp.beacons, exp.demand, executor,
                core::AggregationConfig{.shards = kShardCounts[i]});
          });
      if (Fingerprint(sharded) != want) {
        std::fprintf(stderr,
                     "sharded_aggregation: %zu-shard output diverges from sequential\n",
                     kShardCounts[i]);
        return 0;  // forces the items-consistency check to flag the run
      }
    }

    bench::PrintHeader("sharded_aggregation",
                       "sharded candidate-AS aggregation vs sequential merge",
                       exp.world.config());
    std::printf("inputs: %zu beacon blocks, %zu demand blocks -> %zu candidate ASes\n",
                exp.beacons.block_count(), exp.demand.block_count(), sequential.size());
    std::printf("  sequential merge %8.2f ms\n", sequential_ms);
    for (std::size_t i = 0; i < std::size(kShardCounts); ++i) {
      std::printf("  %zu shard(s)       %8.2f ms  speedup %.2fx  (%u threads)\n",
                  kShardCounts[i], sharded_ms[i], sequential_ms / sharded_ms[i],
                  executor.thread_count());
    }
    return sequential.size();
  });
  return rc;
}
