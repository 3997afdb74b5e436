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

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pes {

/**
 * Saturation telemetry of one pool's lifetime (see ThreadPool::stats).
 * Queue depth is tracked unconditionally (one compare under the queue
 * lock); busy/idle wall times only when the pool is instrumented —
 * they cost two clock reads per task and one per wait.
 */
/**
 * One worker's share of the pool's lifetime (scaling attribution).
 * Only populated when the pool is instrumented; queueWaitMs is the
 * summed time the tasks THIS worker executed sat in the queue before
 * being picked up — high values with low busyMs point at dispatch
 * contention rather than slow tasks.
 */
struct ThreadPoolWorkerStats
{
    uint64_t tasks = 0;
    double busyMs = 0.0;
    double idleMs = 0.0;
    double queueWaitMs = 0.0;
};

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
    /** Summed time tasks sat queued before a worker picked them up (ms). */
    double queueWaitMs = 0.0;
    /** Per-worker breakdown (index = worker id; instrumented pools only). */
    std::vector<ThreadPoolWorkerStats> workers;
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

    /** Queued task plus its enqueue stamp (only read when instrumented). */
    struct Queued
    {
        Task fn;
        std::chrono::steady_clock::time_point enqueued;
    };

    std::vector<std::thread> workers_;
    std::deque<Queued> queue_;
    mutable std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable drained_;
    std::vector<std::string> errors_;
    int inFlight_ = 0;
    bool stopping_ = false;
    bool instrument_ = false;
    ThreadPoolStats stats_;
};

/**
 * Run fn(i, worker) for every i in [0, n) on a temporary pool of
 * @p threads workers and block until done.
 */
void parallelFor(int n, int threads,
                 const std::function<void(int index, int worker)> &fn);

} // namespace pes

#endif // PES_RUNNER_THREAD_POOL_HH
