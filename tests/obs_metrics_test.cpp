// MetricsRegistry contract tests: handle stability across ResetForTest,
// find-or-create under concurrent registration, counter/latency updates
// from inside executor workers (the TSan variant runs this binary with
// CELLSPOT_THREADS=8, see tools/ci.sh), and the snapshot JSON round
// trip.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "cellspot/exec/executor.hpp"
#include "cellspot/obs/json.hpp"
#include "cellspot/obs/metrics.hpp"

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

TEST(LatencyHistogram, RecordsIntoPowerOfTwoBuckets) {
  obs::LatencyHistogram h;
  h.Record(0.0001);  // < 1µs -> bucket 0
  h.Record(0.003);   // 3µs -> [2, 4) = bucket 2
  h.Record(1.0);     // 1000µs -> [512, 1024) = bucket 10
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(10), 1u);
  EXPECT_GT(h.max_ms(), h.min_ms());
  // The interpolated median must land inside the recorded range.
  const double p50 = h.ApproxQuantileMs(0.5);
  EXPECT_GE(p50, h.min_ms());
  EXPECT_LE(p50, h.max_ms());
}

TEST(LatencyHistogram, EmptyQuantilesAreZero) {
  const obs::LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.ApproxQuantileMs(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.min_ms(), 0.0);
  EXPECT_DOUBLE_EQ(h.max_ms(), 0.0);
}

TEST(LatencyHistogram, SingleSampleQuantilesEqualTheSample) {
  // 489.8 ms falls in the [262.144, 524.288) ms bucket; interpolating
  // inside it alone would put p50 at 393 ms, below the only sample.
  obs::LatencyHistogram h;
  h.Record(489.8);
  EXPECT_DOUBLE_EQ(h.min_ms(), 489.8);
  EXPECT_DOUBLE_EQ(h.max_ms(), 489.8);
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.ApproxQuantileMs(q), 489.8) << "q=" << q;
  }
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
  obs::LatencyHistogram& h = reg.latency("test.latency");
  c.Increment(7);
  g.Set(3.5);
  h.Record(1.0);
  reg.RecordSpan("test.span", 0, 2.0, 10);

  reg.ResetForTest();

  // The same references still work after the reset — this is what lets
  // hot code cache `static Counter&` across test cases.
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
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
  // Counters updated from inside ParallelFor bodies must account for
  // every element exactly once, at any thread count (the TSan run forces
  // CELLSPOT_THREADS=8 so the relaxed-atomic path actually interleaves).
  MetricsRegistry reg;
  obs::Counter& elements = reg.counter("workers.elements");
  obs::LatencyHistogram& lat = reg.latency("workers.chunk_ms");
  constexpr std::size_t kN = 100000;
  exec::Executor::Shared().ParallelFor(kN, 64, [&](std::size_t begin, std::size_t end) {
    elements.Increment(end - begin);
    lat.Record(0.001 * static_cast<double>(end - begin));
  });
  EXPECT_EQ(elements.value(), kN);
  EXPECT_EQ(lat.count(), (kN + 63) / 64);
}

TEST(MetricsSnapshot, JsonRoundTripIsLossless) {
  MetricsRegistry reg;
  reg.counter("rt.counter").Increment(123);
  reg.gauge("rt.gauge").Set(0.25);
  reg.latency("rt.latency").Record(1.5);
  reg.RecordSpan("rt.outer", 0, 5.0, 100);
  reg.RecordSpan("rt.outer/rt.inner", 1, 2.0, 40);

  const MetricsSnapshot snap = reg.Snapshot();
  const std::string json = obs::MetricsSnapshotJson(snap);
  const MetricsSnapshot parsed = obs::MetricsSnapshotFromJson(json);
  EXPECT_EQ(parsed, snap);
  // And the serialized form is stable under a second round trip.
  EXPECT_EQ(obs::MetricsSnapshotJson(parsed), json);
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
