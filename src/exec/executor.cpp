#include "cellspot/exec/executor.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>

#include "cellspot/obs/metrics.hpp"
#include "cellspot/obs/trace.hpp"
#include "cellspot/util/strings.hpp"

namespace cellspot::exec {

namespace {

std::atomic<unsigned> g_thread_override{0};

// Registered once, then lock-free increments on the hot path. The
// registry hands out node-stable references, so caching them here is
// safe even across MetricsRegistry::ResetForTest.
obs::Counter& JobsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().counter("exec.jobs");
  return c;
}

obs::Counter& ChunksCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().counter("exec.chunks");
  return c;
}

obs::Counter& StealsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().counter("exec.steals");
  return c;
}

}  // namespace

/// One ParallelForChunks invocation. Lives on the caller's stack; workers
/// may only touch it between registering (active++ under mu_) and
/// deregistering, and the caller does not return before active drains.
struct Executor::Job {
  std::size_t n = 0;
  std::size_t grain = 1;
  const std::function<void(std::size_t, std::size_t, std::size_t)>* body = nullptr;
  const obs::TraceSpan* span = nullptr;  // the caller's "exec.batch", parent of worker spans

  std::vector<Range> ranges;            // one span of chunk indices per participant
  std::vector<std::unique_ptr<std::mutex>> range_mu;
  std::atomic<std::size_t> chunks_left{0};
  std::atomic<std::uint64_t> steals{0};  // successful range steals, all participants
  unsigned active = 0;  // workers currently inside RunJob (guarded by mu_)
};

Executor::Executor(unsigned threads) {
  threads_ = threads == 0 ? DefaultThreadCount() : threads;
  if (threads_ < 1) threads_ = 1;
  workers_.reserve(threads_ - 1);
  for (unsigned w = 1; w < threads_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void Executor::ParallelFor(std::size_t n, std::size_t grain,
                           const std::function<void(std::size_t, std::size_t)>& body) {
  ParallelForChunks(n, grain,
                    [&](std::size_t begin, std::size_t end, std::size_t) {
                      body(begin, end);
                    });
}

void Executor::ParallelForChunks(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (grain == 0) grain = 1;
  const std::size_t chunks = ChunkCount(n, grain);
  if (chunks == 0) return;

  obs::TraceSpan batch_span("exec.batch");
  batch_span.set_items(static_cast<std::uint64_t>(n));
  JobsCounter().Increment();
  ChunksCounter().Increment(static_cast<std::uint64_t>(chunks));

  auto run_chunk = [&](std::size_t chunk) {
    const std::size_t begin = chunk * grain;
    const std::size_t end = std::min(n, begin + grain);
    body(begin, end, chunk);
  };

  if (threads_ == 1 || chunks == 1) {
    for (std::size_t c = 0; c < chunks; ++c) run_chunk(c);
    return;
  }

  // One job at a time; a second calling thread queues up here.
  std::lock_guard<std::mutex> submit_lock(submit_mu_);

  Job job;
  job.n = n;
  job.grain = grain;
  job.body = &body;
  job.span = &batch_span;
  job.chunks_left.store(chunks, std::memory_order_relaxed);
  const unsigned participants = threads_;
  job.ranges.resize(participants);
  job.range_mu.reserve(participants);
  for (unsigned p = 0; p < participants; ++p) {
    job.range_mu.push_back(std::make_unique<std::mutex>());
    job.ranges[p].next = chunks * p / participants;
    job.ranges[p].end = chunks * (p + 1) / participants;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    ++job_seq_;
  }
  work_cv_.notify_all();

  RunJob(job, 0);  // the caller is participant 0

  // Unpublish, then wait for every registered worker to leave the job
  // before it goes out of scope.
  std::unique_lock<std::mutex> lock(mu_);
  job_ = nullptr;
  done_cv_.wait(lock, [&] { return job.active == 0; });
  lock.unlock();
  StealsCounter().Increment(job.steals.load(std::memory_order_relaxed));
}

void Executor::RunJob(Job& job, unsigned participant) {
  const unsigned participants = static_cast<unsigned>(job.ranges.size());
  while (job.chunks_left.load(std::memory_order_acquire) > 0) {
    // Pop the next chunk of our own span.
    std::size_t chunk = static_cast<std::size_t>(-1);
    {
      std::lock_guard<std::mutex> lock(*job.range_mu[participant]);
      Range& mine = job.ranges[participant];
      if (mine.next < mine.end) chunk = mine.next++;
    }
    if (chunk == static_cast<std::size_t>(-1)) {
      // Steal half of the first victim with work remaining.
      bool stole = false;
      for (unsigned delta = 1; delta < participants && !stole; ++delta) {
        const unsigned victim = (participant + delta) % participants;
        std::scoped_lock lock(*job.range_mu[participant], *job.range_mu[victim]);
        Range& theirs = job.ranges[victim];
        const std::size_t remaining =
            theirs.end > theirs.next ? theirs.end - theirs.next : 0;
        if (remaining == 0) continue;
        const std::size_t take = (remaining + 1) / 2;
        Range& mine = job.ranges[participant];
        mine.next = theirs.end - take;
        mine.end = theirs.end;
        theirs.end -= take;
        stole = true;
        job.steals.fetch_add(1, std::memory_order_relaxed);
      }
      if (!stole) {
        // Someone else is finishing the last chunks; don't spin hard.
        std::this_thread::yield();
      }
      continue;
    }
    const std::size_t begin = chunk * job.grain;
    const std::size_t end = std::min(job.n, begin + job.grain);
    (*job.body)(begin, end, chunk);
    job.chunks_left.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void Executor::WorkerLoop(unsigned participant) {
  std::uint64_t last_seen = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || (job_ != nullptr && job_seq_ != last_seen); });
      if (stop_) return;
      job = job_;
      last_seen = job_seq_;
      ++job->active;
    }
    {
      const obs::CurrentSpanScope parent(job->span);
      RunJob(*job, participant);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --job->active;
    }
    done_cv_.notify_all();
  }
}

unsigned Executor::DefaultThreadCount() {
  const unsigned override_threads = g_thread_override.load(std::memory_order_relaxed);
  if (override_threads > 0) return override_threads;
  if (const char* env = std::getenv("CELLSPOT_THREADS")) {
    const auto parsed = util::ParseUint(env);
    if (!parsed || *parsed == 0 || *parsed > 1024) {
      throw std::invalid_argument(
          std::string("CELLSPOT_THREADS: expected a positive integer (<= 1024), got '") +
          env + "'");
    }
    return static_cast<unsigned>(*parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void Executor::SetDefaultThreadCount(unsigned threads) {
  g_thread_override.store(threads, std::memory_order_relaxed);
}

Executor& Executor::Shared() {
  // Leaked on purpose: joining pool threads during static destruction
  // would race with other teardown.
  static Executor* shared = new Executor(DefaultThreadCount());
  return *shared;
}

}  // namespace cellspot::exec
