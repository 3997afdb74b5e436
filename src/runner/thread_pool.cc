#include "runner/thread_pool.hh"

#include <algorithm>
#include <chrono>
#include <exception>

namespace pes {

ThreadPool::ThreadPool(int threads, bool instrument)
    : instrument_(instrument)
{
    const int count = std::max(1, threads);
    workers_.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::submit(Task task)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
        stats_.maxQueueDepth =
            std::max(stats_.maxQueueDepth,
                     static_cast<uint64_t>(queue_.size()));
    }
    wake_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    drained_.wait(lock, [this] { return queue_.empty() && inFlight_ == 0; });
}

std::vector<std::string>
ThreadPool::errors() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    return errors_;
}

ThreadPoolStats
ThreadPool::stats() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    return stats_;
}

void
ThreadPool::workerLoop(int worker)
{
    using clock = std::chrono::steady_clock;
    const auto elapsedMs = [](clock::time_point since) {
        return std::chrono::duration<double, std::milli>(clock::now() -
                                                         since)
            .count();
    };
    for (;;) {
        Task task;
        double idle_ms = 0.0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if (instrument_ && (stopping_ || !queue_.empty())) {
                // Work (or shutdown) is already here: no idle wait.
            } else if (instrument_) {
                const auto wait_start = clock::now();
                wake_.wait(lock, [this] {
                    return stopping_ || !queue_.empty();
                });
                idle_ms = elapsedMs(wait_start);
            } else {
                wake_.wait(lock, [this] {
                    return stopping_ || !queue_.empty();
                });
            }
            if (queue_.empty()) {
                // stopping_ set and nothing left to do.
                stats_.idleMs += idle_ms;
                return;
            }
            task = std::move(queue_.front());
            queue_.pop_front();
            ++inFlight_;
        }
        // A worker thread must never let an exception escape (that
        // would std::terminate the whole process); capture it as a
        // run-level diagnostic instead and keep draining.
        const auto task_start = clock::now();
        std::string error;
        try {
            task(worker);
        } catch (const std::exception &e) {
            error = e.what();
        } catch (...) {
            error = "unknown exception";
        }
        const double busy_ms = instrument_ ? elapsedMs(task_start) : 0.0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if (!error.empty()) {
                errors_.push_back("worker " + std::to_string(worker) +
                                  ": " + error);
            }
            ++stats_.tasks;
            stats_.busyMs += busy_ms;
            stats_.idleMs += idle_ms;
            --inFlight_;
            if (queue_.empty() && inFlight_ == 0)
                drained_.notify_all();
        }
    }
}

} // namespace pes
