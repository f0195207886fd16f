// FlatLpm vs reference-trie lookup microbenchmark.
//
// Setup (untimed): a seeded 120k-prefix table — same clumpy nested/
// overlapping mix as lpm_differential_test — compiled once into a
// FlatLpm, plus a 400k-address probe set biased toward prefix
// boundaries. Each rep then runs the same probes three ways: per-item
// LongestMatch on the binary trie of tests/support (the lookup path
// before FlatLpm), single-thread FlatLpm::LongestMatchBatch, and one
// batch per subspan inside executor.ParallelFor, the shape the
// classify/aggregate stages drive.
// The printed speedup (trie / flat batch) is the acceptance number:
// it must stay >= 2x on this >= 100k-prefix world. A Tiny-world
// pipeline run supplies end-to-end classify-stage timings so the
// micro numbers stay anchored to the real lookup path.
#include <array>
#include <cstdint>
#include <cstdio>
#include <span>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "cellspot/analysis/pipeline.hpp"
#include "cellspot/exec/executor.hpp"
#include "cellspot/netaddr/flat_lpm.hpp"
#include "cellspot/obs/metrics.hpp"
#include "cellspot/util/rng.hpp"
#include "support/reference_prefix_trie.hpp"

namespace {

using namespace cellspot;
using netaddr::IpAddress;
using netaddr::Prefix;

constexpr std::size_t kPrefixCount = 120'000;  // acceptance floor is 100k
constexpr std::size_t kProbeCount = 400'000;
constexpr std::size_t kGrain = 4096;  // matches the pipeline's batch grain

IpAddress RandomV4(util::Rng& rng) {
  return IpAddress::V4(static_cast<std::uint32_t>(rng.UniformInt(0, 0xFFFFFFFFULL)));
}

IpAddress RandomV6(util::Rng& rng) {
  std::array<std::uint8_t, 16> bytes{};
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
  return IpAddress::V6(bytes);
}

// Same shape as the differential test's set: half the prefixes refine
// earlier ones, so the matcher sees deep nesting, not uniform noise.
std::vector<Prefix> BuildPrefixSet(util::Rng& rng, std::size_t count) {
  std::vector<Prefix> prefixes;
  prefixes.reserve(count);
  while (prefixes.size() < count) {
    const bool v6 = rng.Chance(0.35);
    IpAddress addr = v6 ? RandomV6(rng) : RandomV4(rng);
    if (!prefixes.empty() && rng.Chance(0.5)) {
      const Prefix& base = prefixes[rng.UniformInt(0, prefixes.size() - 1)];
      const int max_len = base.family() == netaddr::Family::kIpv4 ? 32 : 128;
      const int length = static_cast<int>(
          rng.UniformInt(static_cast<std::uint64_t>(base.length()),
                         static_cast<std::uint64_t>(max_len)));
      IpAddress refined = base.address();
      IpAddress noise =
          base.family() == netaddr::Family::kIpv4 ? RandomV4(rng) : RandomV6(rng);
      for (int bit = base.length(); bit < length; ++bit) {
        refined = refined.WithBit(bit, noise.GetBit(bit));
      }
      prefixes.emplace_back(refined, length);
      continue;
    }
    const int max_len = v6 ? 128 : 32;
    const int length =
        static_cast<int>(rng.UniformInt(1, static_cast<std::uint64_t>(max_len)));
    prefixes.emplace_back(addr, length);
  }
  return prefixes;
}

// Probes biased toward stored prefixes (hits dominate, as in the real
// classify stage where most traffic blocks are routed).
std::vector<IpAddress> BuildProbes(util::Rng& rng, const std::vector<Prefix>& prefixes,
                                   std::size_t count) {
  std::vector<IpAddress> probes;
  probes.reserve(count);
  while (probes.size() < count) {
    if (!prefixes.empty() && rng.Chance(0.75)) {
      const Prefix& p = prefixes[rng.UniformInt(0, prefixes.size() - 1)];
      IpAddress addr = p.address();
      const int max_len = p.family() == netaddr::Family::kIpv4 ? 32 : 128;
      IpAddress noise = p.family() == netaddr::Family::kIpv4 ? RandomV4(rng) : RandomV6(rng);
      for (int bit = p.length(); bit < max_len; ++bit) {
        addr = addr.WithBit(bit, noise.GetBit(bit));
      }
      probes.push_back(addr);
    } else {
      probes.push_back(rng.Chance(0.35) ? RandomV6(rng) : RandomV4(rng));
    }
  }
  return probes;
}

}  // namespace

int main(int argc, char** argv) {
  util::Rng rng(20170406);  // paper-vintage seed; fixed so reps are comparable
  std::vector<Prefix> prefixes;
  test_support::PrefixTrie<std::uint32_t> trie;
  // The clumpy generator repeats itself, so top up until the table
  // really holds kPrefixCount UNIQUE prefixes (the acceptance floor).
  while (trie.size() < kPrefixCount) {
    const auto batch = BuildPrefixSet(rng, kPrefixCount - trie.size());
    for (const Prefix& p : batch) {
      trie.Insert(p, static_cast<std::uint32_t>(prefixes.size() % 5000 + 1));
      prefixes.push_back(p);
    }
  }
  std::vector<std::pair<Prefix, std::uint32_t>> entries;
  trie.ForEach([&](const Prefix& p, std::uint32_t v) { entries.emplace_back(p, v); });
  const auto flat = netaddr::FlatLpm<std::uint32_t>::Build(entries);
  const std::vector<IpAddress> probes = BuildProbes(rng, prefixes, kProbeCount);

  // End-to-end anchor: a Tiny-world pipeline run whose classify and
  // aggregate stages resolve origins through the same batch engine.
  // Its stage spans are copied out before the bench harness runs.
  analysis::Pipeline::Config pipe_config;
  pipe_config.world = simnet::WorldConfig::Tiny();
  analysis::Pipeline pipeline(pipe_config);
  (void)pipeline.Run();
  std::vector<obs::MetricsSnapshot::SpanRow> stages;
  for (const auto& row : obs::MetricsRegistry::Global().Snapshot().spans) {
    if (row.depth == 0 && row.path.starts_with("pipeline.")) stages.push_back(row);
  }

  exec::Executor& executor = exec::Executor::Shared();
  const int rc = bench::RunBench(argc, argv, "lpm_lookup", [&]() -> std::uint64_t {
    // Per-item trie walks, the pre-refactor lookup path.
    std::uint64_t trie_hits = 0;
    const double trie_ms = bench::TimedSpan("lpm.bench.trie", [&] {
      for (const IpAddress& addr : probes) {
        if (trie.LongestMatch(addr) != nullptr) ++trie_hits;
      }
    });

    // Single-thread flat batch over the packed ranges.
    std::vector<std::uint32_t> out(probes.size());
    const double flat_ms =
        bench::TimedSpan("lpm.bench.flat", [&] { flat.LongestMatchBatch(probes, out, 0u); });
    std::uint64_t flat_hits = 0;
    for (const std::uint32_t v : out) {
      if (v != 0) ++flat_hits;
    }

    // One batch per executor chunk, the shape the classify stage drives.
    std::vector<std::uint32_t> chunked(probes.size());
    const std::span<const IpAddress> in(probes);
    const std::span<std::uint32_t> chunked_out(chunked);
    const double chunked_ms = bench::TimedSpan("lpm.bench.chunked", [&] {
      executor.ParallelFor(probes.size(), kGrain, [&](std::size_t begin, std::size_t end) {
        flat.LongestMatchBatch(in.subspan(begin, end - begin),
                               chunked_out.subspan(begin, end - begin), 0u);
      });
    });

    if (flat_hits != trie_hits || chunked != out) {
      std::fprintf(stderr, "lpm_lookup: engines disagree (trie %llu, flat %llu)\n",
                   static_cast<unsigned long long>(trie_hits),
                   static_cast<unsigned long long>(flat_hits));
      return 0;  // forces the items-consistency check to flag the run
    }

    bench::PrintHeader("lpm_lookup", "FlatLpm batch vs reference-trie per-item lookups",
                       pipe_config.world);
    std::printf("table: %zu prefixes -> %zu packed segments (%.1f KiB payload)\n",
                flat.size(), flat.segment_count(),
                static_cast<double>(flat.payload_bytes()) / 1024.0);
    std::printf("probes: %zu (%llu routed)\n", probes.size(),
                static_cast<unsigned long long>(trie_hits));
    const double per_trie = trie_ms * 1e6 / static_cast<double>(probes.size());
    const double per_flat = flat_ms * 1e6 / static_cast<double>(probes.size());
    std::printf("  trie per-item    %8.2f ms  (%6.1f ns/lookup)\n", trie_ms, per_trie);
    std::printf("  flat batch       %8.2f ms  (%6.1f ns/lookup)  speedup %.2fx\n",
                flat_ms, per_flat, trie_ms / flat_ms);
    std::printf("  flat chunked     %8.2f ms  (executor, %zu-address grain, %u threads)\n",
                chunked_ms, kGrain, executor.thread_count());
    std::printf("end-to-end (Tiny world pipeline, warm-start path in README):\n");
    for (const obs::MetricsSnapshot::SpanRow& row : stages) {
      std::printf("  %-27s %8.2f ms  (%llu items)\n", row.path.c_str(), row.total_ms,
                  static_cast<unsigned long long>(row.items));
    }
    return trie_hits;
  });
  return rc;
}
