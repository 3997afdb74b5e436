/**
 * @file
 * In-process trace cache: synthesize once, replay many — now bounded.
 *
 * A fleet sweep replays the same (device, app, user) trace under every
 * scheduler, yet historically each job re-synthesized it. The cache
 * keys traces on (device, app, userSeed) — device included because the
 * generator's oracle-feasibility repair pass consults the platform —
 * and hands out shared_ptr handles, so one synthesis (or one corpus
 * load) serves the whole scheduler axis.
 *
 * Capacity: setCapacity() arms an LRU bound on entries and/or resident
 * bytes, so a million-user fresh fleet is no longer memory-bounded by
 * the cache (ROADMAP follow-on). Eviction never invalidates a handle a
 * worker already holds — entries are shared_ptr-owned and die with
 * their last reference — and never changes results: an evicted key
 * simply re-materializes through its deterministic loader on the next
 * miss, producing byte-identical traces.
 *
 * Thread model: lookups, inserts and recency updates take a mutex;
 * generation/loading runs OUTSIDE the lock. getOrLoad is single-flight:
 * the first worker to miss a key registers an in-progress latch and
 * materializes; workers arriving meanwhile wait on the latch and adopt
 * the winner's trace instead of re-synthesizing it, so concurrent
 * getOrLoad traffic never duplicates a synthesis (duplicate_synthesis
 * stays 0 by construction for that path — only insert() races can
 * still discard a materialization).
 */

#ifndef PES_CORPUS_TRACE_CACHE_HH
#define PES_CORPUS_TRACE_CACHE_HH

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>

#include "trace/generator.hh"
#include "util/contention.hh"

namespace pes {

/** Shared read-only handle to a cached trace. */
using TraceHandle = std::shared_ptr<const InteractionTrace>;

/** Resident-set estimate of one trace (events + strings + bookkeeping). */
size_t traceFootprintBytes(const InteractionTrace &trace);

/**
 * Shared read-only trace storage for fleet runs.
 */
class TraceCache
{
  public:
    TraceCache() = default;
    TraceCache(const TraceCache &) = delete;
    TraceCache &operator=(const TraceCache &) = delete;

    /**
     * Bound the cache: at most @p max_entries traces and @p max_bytes
     * estimated resident bytes (0 = unlimited for either). The newest
     * entry is never evicted, so a single oversized trace still
     * materializes. Shrinking an armed cache evicts immediately.
     */
    void setCapacity(size_t max_entries, size_t max_bytes);

    /**
     * The cached trace, or nullptr. Refreshes recency but never counts
     * toward hit/miss stats (those track getOrLoad traffic only).
     */
    TraceHandle lookup(const std::string &device, const std::string &app,
                       uint64_t user_seed) const;

    /**
     * The cached trace for (device, app, user_seed), materializing it
     * through @p loader on first use (or after eviction). The loader
     * MUST be deterministic — re-materialized entries must be
     * byte-identical, or capped and uncapped runs would diverge.
     */
    TraceHandle getOrLoad(const std::string &device,
                          const std::string &app, uint64_t user_seed,
                          const std::function<InteractionTrace()> &loader);

    /**
     * Insert a trace (e.g. preloaded from a corpus) unless the key is
     * already present — first insert wins, so handles given out earlier
     * always match later lookups. Returns whether it was inserted.
     */
    bool insert(const std::string &device, InteractionTrace trace);

    /** Number of cached traces. */
    size_t size() const;

    /** Estimated resident bytes of all cached traces. */
    size_t residentBytes() const;

    /** getOrLoad calls served from the cache. */
    uint64_t hits() const;

    /** getOrLoad calls that materialized. */
    uint64_t misses() const;

    /** Entries evicted by the LRU bound. */
    uint64_t evictions() const;

    /**
     * Materializations thrown away because another worker inserted the
     * same key first (the getOrLoad race documented above, and insert()
     * calls that found the key present). Each one is a whole synthesis
     * or corpus load whose result was discarded — wasted work that only
     * exists under contention, so it is deterministically 0 at one
     * thread. This is also why a t4 bench run can show one more cache
     * miss than t1: the miss was real, the work was duplicated.
     */
    uint64_t duplicateSynthesis() const;

    /** Contended acquisitions of the cache mutex (scaling telemetry). */
    LockContention lockContention() const;

    /**
     * Observe evictions (telemetry): @p hook runs once per evicted
     * entry, while the cache mutex is held — it must be cheap and must
     * never call back into this cache. An empty function detaches.
     */
    void setEvictionHook(std::function<void()> hook);

    /** Drop all entries and reset the counters (keeps the capacity). */
    void clear();

  private:
    using Key = std::tuple<std::string, std::string, uint64_t>;

    struct Entry
    {
        TraceHandle trace;
        size_t bytes = 0;
        /** Position in lru_ (front = most recently used). */
        std::list<Key>::iterator lruPos;
    };

    /** One in-progress materialization other workers can wait on. */
    struct InFlightLoad
    {
        TraceHandle trace;
        std::exception_ptr error;
        bool done = false;
    };

    /** Move @p it to the recency front. Caller holds mutex_. */
    void touch(std::map<Key, Entry>::iterator it) const;

    /** Insert under the lock; evicts past-capacity LRU entries. */
    TraceHandle adopt(Key key, TraceHandle trace);

    /** adopt() body; caller holds mutex_. */
    TraceHandle adoptLocked(Key key, TraceHandle trace);

    /** Evict LRU entries until within capacity, sparing @p keep. */
    void enforceCapacity(const Key &keep);

    mutable std::mutex mutex_;
    /** Keys being materialized right now; guarded by mutex_. */
    std::map<Key, std::shared_ptr<InFlightLoad>> inFlight_;
    /** Signaled when an in-flight materialization completes. */
    std::condition_variable inFlightCv_;
    mutable std::map<Key, Entry> traces_;
    /** Recency order, front = most recent. */
    mutable std::list<Key> lru_;
    std::function<void()> evictionHook_;
    size_t maxEntries_ = 0;
    size_t maxBytes_ = 0;
    size_t residentBytes_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
    uint64_t duplicateSynthesis_ = 0;
    /** Contended mutex_ acquisitions; guarded by mutex_ itself. */
    mutable LockContention contention_;
};

} // namespace pes

#endif // PES_CORPUS_TRACE_CACHE_HH
