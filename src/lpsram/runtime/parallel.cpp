#include "lpsram/runtime/parallel.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "lpsram/util/error.hpp"

namespace lpsram {

// ---------------------------------------------------------------------------
// SweepExecutor

namespace {

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  if (requested < 0)
    throw InvalidArgument("SweepExecutor: thread count must be >= 0");
  return SweepExecutor::default_threads();
}

}  // namespace

int SweepExecutor::default_threads() {
  if (const char* env = std::getenv("LPSRAM_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int SweepExecutor::threads_per_process(int processes) {
  if (processes <= 0)
    throw InvalidArgument("SweepExecutor: process count must be >= 1");
  const int total = default_threads();
  return total / processes > 0 ? total / processes : 1;
}

// Shared state of one run() invocation. Workers claim chunks off `cursor`;
// exceptions land in per-index slots so run() can rethrow the lowest-index
// one after the pool drains. `active` counts slots currently draining the
// batch (guarded by the executor mutex): a pool worker joins only while the
// batch is still published, and run() returns only once active hits zero —
// so a worker that sleeps through a short batch simply never joins it.
struct SweepExecutor::Batch {
  std::size_t count = 0;
  const std::function<void(std::size_t, int)>* body = nullptr;
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> cancelled{false};
  std::size_t active = 0;  // guarded by the executor mutex
  std::vector<std::exception_ptr> errors;  // per index; written by the slot
                                           // that ran the index, read by
                                           // run() after the active==0
                                           // barrier publishes them
};

SweepExecutor::SweepExecutor(SweepExecutorOptions options)
    : threads_(resolve_threads(options.threads)),
      chunk_(options.chunk > 0 ? options.chunk : 1),
      fail_fast_(options.fail_fast) {
  // The calling thread is worker slot 0; only extra slots need real threads.
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int w = 1; w < threads_; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

SweepExecutor::~SweepExecutor() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void SweepExecutor::run(
    std::size_t count,
    const std::function<void(std::size_t index, int worker)>& body) {
  if (count == 0) return;

  if (threads_ == 1) {
    // Serial degenerate case: inline loop, immediate propagation. The
    // exception that escapes is the lowest-index one by construction.
    for (std::size_t i = 0; i < count; ++i) body(i, 0);
    return;
  }

  Batch batch;
  batch.count = count;
  batch.body = &body;
  batch.errors.assign(count, nullptr);

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    batch_ = &batch;
    batch.active = 1;  // the calling thread, worker slot 0
    ++batch_id_;
  }
  cv_.notify_all();

  // Participate as worker slot 0.
  const std::size_t chunk = static_cast<std::size_t>(chunk_);
  while (!batch.cancelled.load(std::memory_order_relaxed)) {
    const std::size_t begin =
        batch.cursor.fetch_add(chunk, std::memory_order_relaxed);
    if (begin >= count) break;
    const std::size_t end = std::min(begin + chunk, count);
    for (std::size_t i = begin; i < end; ++i) {
      try {
        body(i, 0);
      } catch (...) {
        batch.errors[i] = std::current_exception();
        if (fail_fast_) batch.cancelled.store(true, std::memory_order_relaxed);
      }
    }
  }

  // Unpublish the batch (no late joiners) and wait until every joined
  // worker has left it. This barrier also publishes the error slots the
  // workers wrote.
  {
    std::unique_lock<std::mutex> lock(mutex_);
    batch_ = nullptr;
    --batch.active;
    if (batch.active > 0)
      done_cv_.wait(lock, [&batch] { return batch.active == 0; });
  }

  for (std::size_t i = 0; i < count; ++i)
    if (batch.errors[i]) std::rethrow_exception(batch.errors[i]);
}

void SweepExecutor::worker_loop(int worker) {
  std::uint64_t seen_batch = 0;
  for (;;) {
    Batch* batch = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this, seen_batch] {
        return shutdown_ || (batch_ != nullptr && batch_id_ != seen_batch);
      });
      if (shutdown_) return;
      batch = batch_;
      seen_batch = batch_id_;
      ++batch->active;  // joined while the batch is still published
    }

    const std::size_t chunk = static_cast<std::size_t>(chunk_);
    while (!batch->cancelled.load(std::memory_order_relaxed)) {
      const std::size_t begin =
          batch->cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= batch->count) break;
      const std::size_t end = std::min(begin + chunk, batch->count);
      for (std::size_t i = begin; i < end; ++i) {
        try {
          (*batch->body)(i, worker);
        } catch (...) {
          batch->errors[i] = std::current_exception();
          if (fail_fast_)
            batch->cancelled.store(true, std::memory_order_relaxed);
        }
      }
    }

    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --batch->active;
    }
    done_cv_.notify_all();
  }
}

// ---------------------------------------------------------------------------
// SolveCache

SolveCache::SolveCache() : shards_(kShards) {}

SolveCache::Shard& SolveCache::shard_for(const SolveCacheKey& key) const noexcept {
  return shards_[SolveCacheKeyHash{}(key) % kShards];
}

bool SolveCache::lookup_nearest(const SolveCacheKey& key, double r,
                                std::vector<double>* x) const {
  const double log_r = std::log(r);
  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.map.find(key);
  if (it == shard.map.end() || it->second.empty()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const std::vector<Entry>& entries = it->second;
  // Entries are sorted by log_r: the nearest neighbour brackets the
  // insertion point.
  auto lb = std::lower_bound(
      entries.begin(), entries.end(), log_r,
      [](const Entry& e, double v) { return e.log_r < v; });
  const Entry* best = nullptr;
  if (lb != entries.end()) best = &*lb;
  if (lb != entries.begin()) {
    const Entry* prev = &*(lb - 1);
    if (!best || std::abs(prev->log_r - log_r) <= std::abs(best->log_r - log_r))
      best = prev;
  }
  *x = best->x;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void SolveCache::store(const SolveCacheKey& key, double r,
                       const std::vector<double>& x) {
  const double log_r = std::log(r);
  {
    Shard& shard = shard_for(key);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    std::vector<Entry>& entries = shard.map[key];
    auto lb = std::lower_bound(
        entries.begin(), entries.end(), log_r,
        [](const Entry& e, double v) { return e.log_r < v; });
    if (lb != entries.end() && lb->log_r == log_r) {
      lb->x = x;
    } else {
      entries.insert(lb, Entry{log_r, x});
      stores_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Notify outside the shard lock so a journaling listener never serializes
  // unrelated shards behind file I/O.
  StoreListener listener;
  {
    const std::lock_guard<std::mutex> lock(listener_mutex_);
    listener = listener_;
  }
  if (listener) listener(key, r, x);
}

void SolveCache::set_store_listener(StoreListener listener) {
  const std::lock_guard<std::mutex> lock(listener_mutex_);
  listener_ = std::move(listener);
}

void SolveCache::clear() {
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.map.clear();
  }
}

std::size_t SolveCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [key, entries] : shard.map) total += entries.size();
  }
  return total;
}

// ---------------------------------------------------------------------------
// SweepTelemetry

void SweepTelemetry::merge(const SweepTelemetry& other) {
  tasks += other.tasks;
  threads = std::max(threads, other.threads);
  wall_s += other.wall_s;
  cpu_s += other.cpu_s;
  solves.merge(other.solves);
}

std::string SweepTelemetry::summary() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "%zu tasks on %d threads: %llu solves, %.1f%% cache hits, "
                "%.2f s wall (%.2f s cpu)",
                tasks, threads,
                static_cast<unsigned long long>(solves.solves),
                cache_hit_rate() * 100.0, wall_s, cpu_s);
  return buf;
}

}  // namespace lpsram
