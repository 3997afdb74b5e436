/**
 * @file
 * Queue-based worker pool for the fleet runner.
 *
 * Plain std::thread + mutex/condvar (no external dependencies). Tasks
 * receive the id of the worker executing them so callers can keep cheap
 * worker-local state (the fleet runner's per-worker trace-generator
 * caches) without locking. The pool makes no ordering promises — fleet
 * determinism comes from aggregating results in job order, never from
 * scheduling.
 *
 * A task that throws does NOT terminate the process (the default fate
 * of an exception escaping a std::thread): the pool catches it, records
 * a diagnostic, and keeps draining the queue. Callers collect the
 * diagnostics after wait() via errors() — the fleet runner surfaces
 * them as run-level diagnostics on FleetOutcome.
 */

#ifndef PES_RUNNER_THREAD_POOL_HH
#define PES_RUNNER_THREAD_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace pes {

/**
 * Saturation telemetry of one pool's lifetime (see ThreadPool::stats).
 * Queue depth is tracked unconditionally (one compare under the queue
 * lock); busy/idle wall times only when the pool is instrumented —
 * they cost two clock reads per task and one per wait.
 */
struct ThreadPoolStats
{
    /** Tasks executed (including ones that threw). */
    uint64_t tasks = 0;
    /** Deepest the task queue ever got. */
    uint64_t maxQueueDepth = 0;
    /** Summed wall time workers spent running tasks (ms). */
    double busyMs = 0.0;
    /** Summed wall time workers spent waiting for work (ms). */
    double idleMs = 0.0;
};

/**
 * Fixed-size worker pool over a FIFO task queue.
 */
class ThreadPool
{
  public:
    /** Task signature: receives the executing worker's id [0, threads). */
    using Task = std::function<void(int worker)>;

    /**
     * Spawn @p threads workers (clamped to >= 1). @p instrument arms
     * busy/idle wall-time collection for stats().
     */
    explicit ThreadPool(int threads, bool instrument = false);

    /** Drains the queue, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of workers. */
    int threadCount() const { return static_cast<int>(workers_.size()); }

    /** Enqueue a task. Safe from any thread, including workers. */
    void submit(Task task);

    /** Block until every submitted task has finished. */
    void wait();

    /**
     * Diagnostics of tasks that threw, in completion order ("worker N:
     * what()"). Empty when every task finished cleanly. Call after
     * wait() for a complete picture.
     */
    std::vector<std::string> errors() const;

    /**
     * Lifetime saturation counters so far. Call after wait() for a
     * consistent picture; busy/idle stay 0 unless the pool was
     * constructed with instrument = true.
     */
    ThreadPoolStats stats() const;

  private:
    void workerLoop(int worker);

    std::vector<std::thread> workers_;
    std::deque<Task> queue_;
    mutable std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable drained_;
    std::vector<std::string> errors_;
    int inFlight_ = 0;
    bool stopping_ = false;
    bool instrument_ = false;
    ThreadPoolStats stats_;
};

} // namespace pes

#endif // PES_RUNNER_THREAD_POOL_HH
