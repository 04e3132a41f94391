/**
 * @file
 * Small fixed-size thread pool with a parallel-for helper.
 *
 * Used to parallelize per-sample emulation during batched DONN training and
 * row-wise FFT work. Degrades gracefully to serial execution on single-core
 * hosts (worker count 0 or 1 runs inline on the caller's thread).
 */
#pragma once

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "utils/sync.hpp"

namespace lightridge {

/** Fixed-size worker pool executing enqueued std::function jobs. */
class ThreadPool
{
  public:
    /**
     * Create a pool with the given number of workers.
     * @param workers 0 selects std::thread::hardware_concurrency().
     */
    explicit ThreadPool(std::size_t workers = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads (0 means inline/serial execution). */
    std::size_t workerCount() const { return threads_.size(); }

    /**
     * Run fn(i) for i in [0, count) across the pool and block until all
     * iterations complete. Executes serially when the pool has <= 1 worker.
     * If any iteration throws, remaining iterations are abandoned and the
     * first exception is rethrown on the calling thread.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &fn)
        LIGHTRIDGE_EXCLUDES(mutex_);

    /**
     * Enqueue one fire-and-forget job. Unlike parallelFor this does not
     * block: the caller arranges its own completion signalling, which is
     * what lets the shard-stream prefetcher decode the next shards while
     * the trainer computes on the current ones. On a pool with
     * no workers the job runs inline before returning (same side effects,
     * no concurrency), so single-core hosts degrade gracefully instead of
     * deadlocking on a queue nobody drains. Jobs must not throw.
     */
    void enqueue(std::function<void()> job) LIGHTRIDGE_EXCLUDES(mutex_);

    /** Shared process-wide pool sized from hardware concurrency. */
    static ThreadPool &global();

    /**
     * True when the calling thread is a worker of any ThreadPool. Used by
     * layers that parallelize internally (row-parallel FFT2) to fall back
     * to serial execution instead of nesting parallelFor — a nested wait
     * inside a worker could deadlock the queue and oversubscribes cores.
     */
    static bool insideWorker();

  private:
    void workerLoop() LIGHTRIDGE_EXCLUDES(mutex_);

    std::vector<std::thread> threads_;
    Mutex mutex_;
    CondVar cv_;
    std::queue<std::function<void()>> jobs_ LIGHTRIDGE_GUARDED_BY(mutex_);
    bool stop_ LIGHTRIDGE_GUARDED_BY(mutex_) = false;
};

} // namespace lightridge
