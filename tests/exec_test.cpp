// The deterministic execution engine: chunking math, coverage and
// ordering guarantees of ParallelFor/ParallelReduce at several thread
// counts, and the CELLSPOT_THREADS / override plumbing.
#include "cellspot/exec/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cellspot/obs/metrics.hpp"
#include "cellspot/obs/trace.hpp"

namespace cellspot::exec {
namespace {

TEST(ChunkCount, EdgeCases) {
  EXPECT_EQ(Executor::ChunkCount(0, 16), 0u);
  EXPECT_EQ(Executor::ChunkCount(1, 16), 1u);
  EXPECT_EQ(Executor::ChunkCount(16, 16), 1u);
  EXPECT_EQ(Executor::ChunkCount(17, 16), 2u);
  EXPECT_EQ(Executor::ChunkCount(32, 16), 2u);
  EXPECT_EQ(Executor::ChunkCount(5, 0), 5u);  // grain 0 behaves as 1
}

TEST(ParallelFor, EmptyRangeRunsNothing) {
  Executor ex(4);
  std::atomic<int> calls{0};
  ex.ParallelFor(0, 8, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, SingleItem) {
  Executor ex(4);
  std::atomic<std::uint64_t> sum{0};
  ex.ParallelFor(1, 8, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
    sum += 1;
  });
  EXPECT_EQ(sum.load(), 1u);
}

TEST(ParallelFor, EveryIndexCoveredExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    Executor ex(threads);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> visits(kN);
    ex.ParallelFor(kN, 7, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) ++visits[i];
    });
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelFor, FewerItemsThanThreads) {
  Executor ex(8);
  std::atomic<std::uint64_t> sum{0};
  ex.ParallelFor(3, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) sum += i + 1;
  });
  EXPECT_EQ(sum.load(), 6u);  // 1 + 2 + 3
}

TEST(ParallelForChunks, ChunkIndicesMatchChunkMath) {
  Executor ex(4);
  constexpr std::size_t kN = 103;
  constexpr std::size_t kGrain = 10;
  std::mutex mu;
  std::set<std::size_t> seen;
  ex.ParallelForChunks(kN, kGrain,
                       [&](std::size_t begin, std::size_t end, std::size_t chunk) {
                         EXPECT_EQ(begin, chunk * kGrain);
                         EXPECT_EQ(end, std::min(kN, (chunk + 1) * kGrain));
                         const std::lock_guard<std::mutex> lock(mu);
                         seen.insert(chunk);
                       });
  EXPECT_EQ(seen.size(), Executor::ChunkCount(kN, kGrain));
}

TEST(ParallelReduce, MatchesSerialSumAtAnyThreadCount) {
  constexpr std::size_t kN = 4321;
  std::vector<double> values(kN);
  for (std::size_t i = 0; i < kN; ++i) values[i] = 1.0 / (1.0 + static_cast<double>(i));

  // Ordered fold: the reference is the same chunk-ordered sum, so the
  // comparison is exact (==), not approximate.
  const auto chunked_sum = [&](std::size_t grain) {
    double sum = 0.0;
    for (std::size_t begin = 0; begin < kN; begin += grain) {
      double partial = 0.0;
      for (std::size_t i = begin; i < std::min(kN, begin + grain); ++i) {
        partial += values[i];
      }
      sum += partial;
    }
    return sum;
  };

  for (const unsigned threads : {1u, 2u, 8u}) {
    Executor ex(threads);
    const double sum = ex.ParallelReduce(
        kN, 64, 0.0,
        [&](std::size_t begin, std::size_t end) {
          double partial = 0.0;
          for (std::size_t i = begin; i < end; ++i) partial += values[i];
          return partial;
        },
        [](double acc, double partial) { return acc + partial; });
    EXPECT_EQ(sum, chunked_sum(64)) << "threads " << threads;
  }
}

TEST(ParallelReduce, OrderedFoldPreservesChunkOrder) {
  Executor ex(8);
  const auto concat = ex.ParallelReduce(
      26, 3, std::string(),
      [](std::size_t begin, std::size_t end) {
        std::string s;
        for (std::size_t i = begin; i < end; ++i) {
          s.push_back(static_cast<char>('a' + i));
        }
        return s;
      },
      [](std::string acc, std::string partial) { return acc + partial; });
  EXPECT_EQ(concat, "abcdefghijklmnopqrstuvwxyz");
}

TEST(ParallelReduce, EmptyRangeReturnsInit) {
  Executor ex(4);
  const int result = ex.ParallelReduce(
      0, 8, 42, [](std::size_t, std::size_t) { return 0; },
      [](int acc, int partial) { return acc + partial; });
  EXPECT_EQ(result, 42);
}

TEST(DefaultThreadCount, EnvParsingAndOverride) {
  // Programmatic override wins and 0 clears it.
  Executor::SetDefaultThreadCount(3);
  EXPECT_EQ(Executor::DefaultThreadCount(), 3u);
  Executor::SetDefaultThreadCount(0);

  ::setenv("CELLSPOT_THREADS", "5", 1);
  EXPECT_EQ(Executor::DefaultThreadCount(), 5u);

  ::setenv("CELLSPOT_THREADS", "zero", 1);
  EXPECT_THROW((void)Executor::DefaultThreadCount(), std::invalid_argument);
  ::setenv("CELLSPOT_THREADS", "0", 1);
  EXPECT_THROW((void)Executor::DefaultThreadCount(), std::invalid_argument);

  ::unsetenv("CELLSPOT_THREADS");
  EXPECT_GE(Executor::DefaultThreadCount(), 1u);
}

TEST(Executor, ZeroThreadsUsesDefault) {
  Executor::SetDefaultThreadCount(2);
  Executor ex;
  EXPECT_EQ(ex.thread_count(), 2u);
  Executor::SetDefaultThreadCount(0);
}

// ---- batch-shape observability ---------------------------------------------
// Locks the span/counter contract for the degenerate batch shapes: an
// empty range must not report a batch at all, while oversized grains and
// thread counts must still report exactly one job with accurate items.

std::uint64_t CounterValue(const obs::MetricsSnapshot& snap, std::string_view name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

const obs::MetricsSnapshot::SpanRow* FindSpan(const obs::MetricsSnapshot& snap,
                                              std::string_view path) {
  for (const auto& s : snap.spans) {
    if (s.path == path) return &s;
  }
  return nullptr;
}

TEST(BatchObservability, EmptyRangeEmitsNoSpanOrCounters) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.ResetForTest();
  Executor ex(4);
  ex.ParallelFor(0, 16, [](std::size_t, std::size_t) { FAIL(); });
  ex.ParallelForChunks(0, 1, [](std::size_t, std::size_t, std::size_t) { FAIL(); });
  const auto snap = reg.Snapshot();
  EXPECT_EQ(CounterValue(snap, "exec.jobs"), 0u);
  EXPECT_EQ(CounterValue(snap, "exec.chunks"), 0u);
  EXPECT_EQ(FindSpan(snap, "exec.batch"), nullptr)
      << "an empty batch must not open an exec.batch span";
}

TEST(BatchObservability, GrainLargerThanRangeIsOneChunk) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.ResetForTest();
  Executor ex(4);
  std::atomic<int> calls{0};
  ex.ParallelForChunks(3, 1000, [&](std::size_t begin, std::size_t end, std::size_t chunk) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 3u);
    EXPECT_EQ(chunk, 0u);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
  const auto snap = reg.Snapshot();
  EXPECT_EQ(CounterValue(snap, "exec.jobs"), 1u);
  EXPECT_EQ(CounterValue(snap, "exec.chunks"), 1u);
  const auto* span = FindSpan(snap, "exec.batch");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->count, 1u);
  EXPECT_EQ(span->items, 3u);  // items reflect the range, not the grain
}

TEST(BatchObservability, MoreThreadsThanItemsCoversEachIndexOnce) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.ResetForTest();
  Executor ex(8);
  std::mutex mu;
  std::vector<std::size_t> seen;
  ex.ParallelFor(3, 1, [&](std::size_t begin, std::size_t end) {
    std::lock_guard<std::mutex> lock(mu);
    for (std::size_t i = begin; i < end; ++i) seen.push_back(i);
  });
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2}));
  const auto snap = reg.Snapshot();
  EXPECT_EQ(CounterValue(snap, "exec.jobs"), 1u);
  EXPECT_EQ(CounterValue(snap, "exec.chunks"), 3u);
  const auto* span = FindSpan(snap, "exec.batch");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->count, 1u);
  EXPECT_EQ(span->items, 3u);
}

// Trace causality: a worker runs a job's chunks under the submitting
// thread's "exec.batch" span, so every span a chunk opens nests under
// it, whichever participant ran the chunk.
TEST(BatchObservability, ChunkSpansNestUnderTheCallersBatchOnEveryThread) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.ResetForTest();
  Executor ex(4);
  constexpr std::size_t kChunks = 64;
  std::mutex mu;
  std::set<std::thread::id> participants;
  const auto chunk_body = [&](const char* name) {
    return [&, name](std::size_t, std::size_t, std::size_t) {
      const obs::TraceSpan span(name);
      {
        std::lock_guard<std::mutex> lock(mu);
        participants.insert(std::this_thread::get_id());
      }
      // Long enough that the workers wake and take chunks.
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    };
  };
  {
    const obs::TraceSpan outer("outer");
    ex.ParallelForChunks(kChunks, 1, chunk_body("chunk"));
  }
  // A job submitted with no span open parents its chunks to its own
  // batch span alone: nothing of the previous job stays installed.
  ex.ParallelForChunks(kChunks, 1, chunk_body("after"));
  ASSERT_GT(participants.size(), 1u) << "no worker ran a chunk";

  const auto snap = reg.Snapshot();
  const auto* nested = FindSpan(snap, "outer/exec.batch/chunk");
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->count, kChunks);
  EXPECT_EQ(nested->depth, 2);
  const auto* after = FindSpan(snap, "exec.batch/after");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->count, kChunks);
  EXPECT_EQ(after->depth, 1);
  for (const auto& s : snap.spans) {
    EXPECT_TRUE(s.path == "outer" || s.path == "outer/exec.batch" ||
                s.path == "outer/exec.batch/chunk" || s.path == "exec.batch" ||
                s.path == "exec.batch/after")
        << "orphan or misplaced span " << s.path;
  }
  EXPECT_EQ(obs::TraceSpan::Current(), nullptr);
}

}  // namespace
}  // namespace cellspot::exec
