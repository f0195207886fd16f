// TraceSpan contract tests: per-thread nesting produces '/'-joined
// aggregate paths, worker threads do not inherit the caller's stack, and
// running the analysis pipeline emits one span aggregate per stage (plus
// nested exec.batch spans) into the global registry, with the cache
// saves outside the stage spans and one lpm.build span per compile.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cellspot/analysis/pipeline.hpp"
#include "cellspot/obs/metrics.hpp"
#include "cellspot/obs/trace.hpp"
#include "cellspot/simnet/world.hpp"

namespace cellspot {
namespace {

using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::TraceSpan;

const MetricsSnapshot::SpanRow* FindSpan(const MetricsSnapshot& snap,
                                         std::string_view path) {
  const auto it = std::find_if(snap.spans.begin(), snap.spans.end(),
                               [&](const auto& row) { return row.path == path; });
  return it == snap.spans.end() ? nullptr : &*it;
}

TEST(TraceSpan, NestingJoinsPathsWithSlash) {
  MetricsRegistry reg;
  {
    TraceSpan outer("outer", reg);
    EXPECT_EQ(outer.path(), "outer");
    EXPECT_EQ(outer.depth(), 0);
    EXPECT_EQ(TraceSpan::Current(), &outer);
    {
      TraceSpan inner("inner", reg);
      EXPECT_EQ(inner.path(), "outer/inner");
      EXPECT_EQ(inner.depth(), 1);
      inner.set_items(5);
      EXPECT_EQ(TraceSpan::Current(), &inner);
    }
    EXPECT_EQ(TraceSpan::Current(), &outer);
    outer.AddItems(2);
    outer.AddItems(3);
  }
  EXPECT_EQ(TraceSpan::Current(), nullptr);

  const MetricsSnapshot snap = reg.Snapshot();
  const auto* outer_row = FindSpan(snap, "outer");
  const auto* inner_row = FindSpan(snap, "outer/inner");
  ASSERT_NE(outer_row, nullptr);
  ASSERT_NE(inner_row, nullptr);
  EXPECT_EQ(outer_row->count, 1u);
  EXPECT_EQ(outer_row->depth, 0);
  EXPECT_EQ(outer_row->items, 5u);
  EXPECT_EQ(inner_row->count, 1u);
  EXPECT_EQ(inner_row->depth, 1);
  EXPECT_EQ(inner_row->items, 5u);
  // The parent's wall time covers the child's.
  EXPECT_GE(outer_row->total_ms, inner_row->total_ms);
}

TEST(TraceSpan, RepeatedOccurrencesFoldIntoOneRow) {
  MetricsRegistry reg;
  for (int i = 0; i < 3; ++i) {
    TraceSpan span("repeat", reg);
    span.set_items(10);
  }
  const MetricsSnapshot snap = reg.Snapshot();
  const auto* row = FindSpan(snap, "repeat");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->count, 3u);
  EXPECT_EQ(row->items, 30u);
  EXPECT_GE(row->max_ms, row->min_ms);
  EXPECT_GE(row->total_ms, row->max_ms);
}

TEST(TraceSpan, OtherThreadsDoNotInheritTheCallersStack) {
  MetricsRegistry reg;
  TraceSpan outer("outer", reg);
  std::string other_path;
  std::thread worker([&] {
    EXPECT_EQ(TraceSpan::Current(), nullptr);
    TraceSpan mine("worker", reg);
    other_path = mine.path();
  });
  worker.join();
  EXPECT_EQ(other_path, "worker");  // not "outer/worker"
}

TEST(TraceSpan, ElapsedIsMonotonic) {
  TraceSpan span("clock");
  const double a = span.elapsed_ms();
  const double b = span.elapsed_ms();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(PipelineTracing, EveryStageEmitsASpanAggregate) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.ResetForTest();

  analysis::Pipeline::Config config;
  config.world = simnet::WorldConfig::Tiny();
  analysis::Pipeline pipeline(config);
  (void)pipeline.Run();

  const MetricsSnapshot snap = reg.Snapshot();
  const analysis::Experiment& exp = pipeline.experiment();
  // Each stage span carries the size of what the stage produced.
  const std::pair<const char*, std::size_t> stages[] = {
      {"pipeline.build_world", exp.world.subnets().size()},
      {"pipeline.compile_lpm", exp.world.rib().Flat().segment_count()},
      {"pipeline.generate_datasets", exp.beacons.block_count() + exp.demand.block_count()},
      {"pipeline.classify", exp.classified.ratios().size()},
      {"pipeline.aggregate", exp.candidates.size()},
      {"pipeline.filter", exp.filtered.kept.size()}};
  for (const auto& [stage, items] : stages) {
    const auto* row = FindSpan(snap, stage);
    ASSERT_NE(row, nullptr) << stage;
    EXPECT_EQ(row->count, 1u) << stage;
    EXPECT_EQ(row->depth, 0) << stage;
    EXPECT_EQ(row->items, static_cast<std::uint64_t>(items)) << stage;
  }
  // Executor batches launched inside a stage nest under it.
  const bool has_nested_batch =
      std::any_of(snap.spans.begin(), snap.spans.end(), [](const auto& row) {
        return row.depth == 1 && row.path.ends_with("/exec.batch");
      });
  EXPECT_TRUE(has_nested_batch);
  reg.ResetForTest();
}

/// Occurrences of every span whose leaf is `leaf`, wherever it nests.
std::uint64_t LeafCount(const MetricsSnapshot& snap, std::string_view leaf) {
  std::uint64_t count = 0;
  for (const auto& row : snap.spans) {
    if (row.path == leaf || row.path.ends_with("/" + std::string(leaf))) count += row.count;
  }
  return count;
}

std::filesystem::path FreshDir(const std::string& name) {
  const std::filesystem::path dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(PipelineTracing, CacheSavesAreRootSpansOutsideTheStages) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.ResetForTest();
  analysis::Pipeline pipeline({.world = simnet::WorldConfig::Tiny(),
                               .snapshot_dir = FreshDir("trace_cache_saves").string()});
  (void)pipeline.Run();

  const MetricsSnapshot snap = reg.Snapshot();
  for (const char* save : {"snapshot.save.world", "snapshot.save.lpm",
                           "snapshot.save.datasets", "snapshot.save.classified"}) {
    const auto* row = FindSpan(snap, save);
    ASSERT_NE(row, nullptr) << save;
    EXPECT_EQ(row->depth, 0) << save;
    EXPECT_EQ(row->count, 1u) << save;
    EXPECT_EQ(LeafCount(snap, save), 1u) << save;
  }
  reg.ResetForTest();
}

TEST(PipelineTracing, OneLpmBuildSpanPerCompile) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const std::string dir = FreshDir("trace_lpm_build").string();

  // Cold: the RIB compiles once, inside its stage.
  reg.ResetForTest();
  analysis::Pipeline cold({.world = simnet::WorldConfig::Tiny(), .snapshot_dir = dir});
  (void)cold.Run();
  MetricsSnapshot snap = reg.Snapshot();
  const auto* build = FindSpan(snap, "pipeline.compile_lpm/lpm.build");
  ASSERT_NE(build, nullptr);
  EXPECT_EQ(build->count, 1u);
  EXPECT_EQ(build->depth, 1);
  EXPECT_EQ(LeafCount(snap, "lpm.build"), 1u);

  // Warm: the cached engine is adopted and nothing compiles.
  reg.ResetForTest();
  analysis::Pipeline warm({.world = simnet::WorldConfig::Tiny(), .snapshot_dir = dir});
  (void)warm.Run();
  snap = reg.Snapshot();
  EXPECT_EQ(LeafCount(snap, "lpm.build"), 0u);
  EXPECT_EQ(FindSpan(snap, "pipeline.compile_lpm"), nullptr);
  EXPECT_EQ(reg.counter("lpm.adopt").value(), 1u);
  EXPECT_EQ(reg.counter("lpm.build").value(), 0u);
  reg.ResetForTest();
}

}  // namespace
}  // namespace cellspot
