// MetricsRegistry contract tests: handle stability across ResetForTest,
// find-or-create under concurrent registration, counter and span updates
// from inside executor workers (the TSan variant runs this binary with
// CELLSPOT_THREADS=8, see tools/ci.sh), the snapshot JSON round trip,
// and reading the previous schema's documents.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "cellspot/exec/executor.hpp"
#include "cellspot/obs/json.hpp"
#include "cellspot/obs/metrics.hpp"
#include "cellspot/obs/trace.hpp"

namespace cellspot {
namespace {

using obs::MetricsRegistry;
using obs::MetricsSnapshot;

TEST(Counter, IncrementAndDelta) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAddReset) {
  obs::Gauge g;
  g.Set(1.5);
  g.Add(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(MetricsRegistry, FindOrCreateReturnsSameHandle) {
  MetricsRegistry reg;
  obs::Counter& a = reg.counter("test.counter");
  obs::Counter& b = reg.counter("test.counter");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&reg.counter("test.other"), &a);
}

TEST(MetricsRegistry, ResetForTestKeepsHandlesValid) {
  MetricsRegistry reg;
  obs::Counter& c = reg.counter("test.counter");
  obs::Gauge& g = reg.gauge("test.gauge");
  c.Increment(7);
  g.Set(3.5);
  reg.RecordSpan("test.span", 0, 2.0, 10);

  reg.ResetForTest();

  // The same references still work after the reset — this is what lets
  // hot code cache `static Counter&` across test cases.
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  c.Increment();
  EXPECT_EQ(reg.counter("test.counter").value(), 1u);
  EXPECT_TRUE(reg.Snapshot().spans.empty());
}

TEST(MetricsRegistry, SnapshotRowsAreSortedByName) {
  MetricsRegistry reg;
  reg.counter("test.zebra").Increment();
  reg.counter("test.alpha").Increment();
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "test.alpha");
  EXPECT_EQ(snap.counters[1].name, "test.zebra");
}

TEST(MetricsRegistry, ConcurrentFindOrCreateIsSingleInstance) {
  // Hammer the registration path for the same names from many raw
  // threads; every thread must resolve to the same node.
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kNames = 4;
  std::vector<obs::Counter*> seen(static_cast<std::size_t>(kThreads) * kNames);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &seen, t] {
      for (int n = 0; n < kNames; ++n) {
        obs::Counter& c = reg.counter("race.name" + std::to_string(n));
        c.Increment();
        seen[static_cast<std::size_t>(t) * kNames + n] = &c;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int n = 0; n < kNames; ++n) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[static_cast<std::size_t>(t) * kNames + n], seen[n]);
    }
    EXPECT_EQ(seen[n]->value(), static_cast<std::uint64_t>(kThreads));
  }
}

TEST(MetricsRegistry, UpdatesFromExecutorWorkersAreExact) {
  // Counters and spans updated from inside ParallelFor bodies must
  // account for every chunk and element exactly once, at any thread
  // count (the TSan run forces CELLSPOT_THREADS=8 so the relaxed-atomic
  // counter path and the span folds actually interleave).
  MetricsRegistry reg;
  obs::Counter& elements = reg.counter("workers.elements");
  constexpr std::size_t kN = 100000;
  exec::Executor::Shared().ParallelFor(kN, 64, [&](std::size_t begin, std::size_t end) {
    obs::TraceSpan span("workers.chunk", reg);
    span.set_items(end - begin);
    elements.Increment(end - begin);
  });
  EXPECT_EQ(elements.value(), kN);
  // A chunk run on the calling thread nests under its exec.batch span,
  // one run on a worker is a root: count both.
  std::uint64_t chunks = 0;
  std::uint64_t items = 0;
  for (const MetricsSnapshot::SpanRow& row : reg.Snapshot().spans) {
    if (row.path != "workers.chunk" && !row.path.ends_with("/workers.chunk")) continue;
    chunks += row.count;
    items += row.items;
  }
  EXPECT_EQ(chunks, (kN + 63) / 64);
  EXPECT_EQ(items, kN);
}

TEST(MetricsSnapshot, JsonRoundTripIsLossless) {
  MetricsRegistry reg;
  reg.counter("rt.counter").Increment(123);
  reg.gauge("rt.gauge").Set(0.25);
  reg.RecordSpan("rt.outer", 0, 5.0, 100);
  reg.RecordSpan("rt.outer/rt.inner", 1, 2.0, 40);

  const MetricsSnapshot snap = reg.Snapshot();
  const std::string json = obs::MetricsSnapshotJson(snap);
  const MetricsSnapshot parsed = obs::MetricsSnapshotFromJson(json);
  EXPECT_EQ(parsed, snap);
  // And the serialized form is stable under a second round trip.
  EXPECT_EQ(obs::MetricsSnapshotJson(parsed), json);
}

TEST(MetricsSnapshot, FreshSnapshotIsV2WithoutLatencies) {
  MetricsRegistry reg;
  reg.counter("v2.counter").Increment();
  reg.RecordSpan("v2.span", 0, 1.0, 1);
  const obs::JsonValue doc = obs::MetricsSnapshotToJson(reg.Snapshot());
  EXPECT_EQ(doc.Find("schema")->as_string(), "cellspot-metrics/2");
  EXPECT_EQ(doc.Find("latencies"), nullptr);
  EXPECT_NE(doc.Find("spans"), nullptr);
}

TEST(MetricsSnapshot, ReadsV1DocumentsAndIgnoresTheirLatencies) {
  // The rows every version shares, and the histogram rows only "/1"
  // wrote (the committed bench trajectories embed such documents).
  const std::string rows =
      R"("counters":{"rt.counter":123},"gauges":{"rt.gauge":0.25},)"
      R"("spans":[{"path":"rt.outer","depth":0,"count":2,"total_ms":5,)"
      R"("min_ms":2,"max_ms":3,"items":100}])";
  const std::string latencies =
      R"("latencies":[{"name":"rt.latency","count":1,"total_ms":1.5,"min_ms":1.5,)"
      R"("max_ms":1.5,"p50_ms":1.5,"p90_ms":1.5,"p99_ms":1.5}],)";
  const MetricsSnapshot with =
      obs::MetricsSnapshotFromJson(R"({"schema":"cellspot-metrics/1",)" + latencies + rows + "}");
  const MetricsSnapshot without =
      obs::MetricsSnapshotFromJson(R"({"schema":"cellspot-metrics/1",)" + rows + "}");
  EXPECT_EQ(with, without);
  EXPECT_EQ(with, obs::MetricsSnapshotFromJson(R"({"schema":"cellspot-metrics/2",)" + rows + "}"));
  ASSERT_EQ(with.spans.size(), 1u);
  EXPECT_EQ(with.spans[0].count, 2u);
  ASSERT_EQ(with.counters.size(), 1u);
  EXPECT_EQ(with.counters[0].value, 123u);
}

TEST(MetricsSnapshot, FromJsonRejectsWrongSchema) {
  EXPECT_THROW((void)obs::MetricsSnapshotFromJson(R"({"schema":"bogus/9"})"),
               std::invalid_argument);
  EXPECT_THROW((void)obs::MetricsSnapshotFromJson("not json"), std::invalid_argument);
}

TEST(MetricsRegistry, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

}  // namespace
}  // namespace cellspot
