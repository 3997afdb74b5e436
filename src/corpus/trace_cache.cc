#include "corpus/trace_cache.hh"

namespace pes {

size_t
traceFootprintBytes(const InteractionTrace &trace)
{
    return sizeof(InteractionTrace) + trace.appName.capacity() +
        trace.events.capacity() * sizeof(TraceEvent);
}

void
TraceCache::setCapacity(size_t max_entries, size_t max_bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    maxEntries_ = max_entries;
    maxBytes_ = max_bytes;
    enforceCapacity(lru_.empty() ? Key{} : lru_.front());
}

void
TraceCache::touch(std::map<Key, Entry>::iterator it) const
{
    lru_.splice(lru_.begin(), lru_, it->second.lruPos);
}

void
TraceCache::enforceCapacity(const Key &keep)
{
    const auto over = [this] {
        return (maxEntries_ > 0 && traces_.size() > maxEntries_) ||
            (maxBytes_ > 0 && residentBytes_ > maxBytes_);
    };
    while (over() && !lru_.empty()) {
        const Key victim = lru_.back();
        if (victim == keep)
            break;  // never evict the entry being handed out
        const auto it = traces_.find(victim);
        residentBytes_ -= it->second.bytes;
        traces_.erase(it);
        lru_.pop_back();
        ++evictions_;
        if (evictionHook_)
            evictionHook_();
    }
}

void
TraceCache::setEvictionHook(std::function<void()> hook)
{
    std::lock_guard<std::mutex> lock(mutex_);
    evictionHook_ = std::move(hook);
}

TraceHandle
TraceCache::adopt(Key key, TraceHandle trace)
{
    ContentionGuard lock(mutex_, contention_);
    return adoptLocked(std::move(key), std::move(trace));
}

TraceHandle
TraceCache::adoptLocked(Key key, TraceHandle trace)
{
    const auto it = traces_.find(key);
    if (it != traces_.end()) {
        // Another worker won the race; its copy is identical
        // (deterministic loader) — adopt it. The materialization this
        // caller just paid for is discarded: wasted duplicate work.
        ++duplicateSynthesis_;
        touch(it);
        return it->second.trace;
    }
    Entry entry;
    entry.trace = std::move(trace);
    entry.bytes = traceFootprintBytes(*entry.trace);
    lru_.push_front(key);
    entry.lruPos = lru_.begin();
    residentBytes_ += entry.bytes;
    const auto inserted =
        traces_.emplace(std::move(key), std::move(entry)).first;
    enforceCapacity(inserted->first);
    return inserted->second.trace;
}

TraceHandle
TraceCache::lookup(const std::string &device, const std::string &app,
                   uint64_t user_seed) const
{
    ContentionGuard lock(mutex_, contention_);
    const auto it = traces_.find(Key{device, app, user_seed});
    if (it == traces_.end())
        return nullptr;
    touch(it);
    return it->second.trace;
}

TraceHandle
TraceCache::getOrLoad(const std::string &device, const std::string &app,
                      uint64_t user_seed,
                      const std::function<InteractionTrace()> &loader)
{
    Key key{device, app, user_seed};
    std::shared_ptr<InFlightLoad> flight;
    bool winner = false;
    {
        ContentionGuard lock(mutex_, contention_);
        const auto it = traces_.find(key);
        if (it != traces_.end()) {
            ++hits_;
            touch(it);
            return it->second.trace;
        }
        const auto in_flight = inFlight_.find(key);
        if (in_flight != inFlight_.end()) {
            flight = in_flight->second;
        } else {
            ++misses_;
            flight = std::make_shared<InFlightLoad>();
            inFlight_.emplace(key, flight);
            winner = true;
        }
    }

    if (!winner) {
        // Single-flight: another worker is materializing this key right
        // now. Wait for its latch instead of duplicating the synthesis.
        std::unique_lock<std::mutex> lock(mutex_);
        inFlightCv_.wait(lock, [&] { return flight->done; });
        if (flight->error)
            std::rethrow_exception(flight->error);
        ++hits_;
        // The winner's entry may already have been evicted; the handle
        // in the latch stays valid regardless (shared ownership).
        const auto it = traces_.find(key);
        if (it != traces_.end())
            touch(it);
        return flight->trace;
    }

    // Materialize outside the lock, then publish through the latch.
    try {
        auto trace = std::make_shared<const InteractionTrace>(loader());
        TraceHandle out;
        {
            ContentionGuard lock(mutex_, contention_);
            out = adoptLocked(key, std::move(trace));
            flight->trace = out;
            flight->done = true;
            inFlight_.erase(key);
        }
        inFlightCv_.notify_all();
        return out;
    } catch (...) {
        {
            ContentionGuard lock(mutex_, contention_);
            flight->error = std::current_exception();
            flight->done = true;
            inFlight_.erase(key);
        }
        inFlightCv_.notify_all();
        throw;
    }
}

bool
TraceCache::insert(const std::string &device, InteractionTrace trace)
{
    Key key{device, trace.appName, trace.userSeed};
    // First insert wins, like getOrLoad: replacing would let one key
    // alias two different payloads within a single run. adopt() hands
    // back whichever trace the key resolves to, so pointer identity
    // tells whether this call's copy was the one inserted.
    auto owned = std::make_shared<const InteractionTrace>(std::move(trace));
    return adopt(std::move(key), owned) == owned;
}

size_t
TraceCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return traces_.size();
}

size_t
TraceCache::residentBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return residentBytes_;
}

uint64_t
TraceCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

uint64_t
TraceCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

uint64_t
TraceCache::evictions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return evictions_;
}

uint64_t
TraceCache::duplicateSynthesis() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return duplicateSynthesis_;
}

LockContention
TraceCache::lockContention() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return contention_;
}

void
TraceCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    traces_.clear();
    lru_.clear();
    residentBytes_ = 0;
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
    duplicateSynthesis_ = 0;
    contention_.reset();
}

} // namespace pes
