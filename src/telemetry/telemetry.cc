#include "telemetry/telemetry.hh"

#include <algorithm>
#include <cmath>

namespace pes {

void
DurationStats::record(double ms)
{
    if (count == 0) {
        minMs = ms;
        maxMs = ms;
    } else {
        minMs = std::min(minMs, ms);
        maxMs = std::max(maxMs, ms);
    }
    ++count;
    sumMs += ms;
    // Bucket on whole microseconds: bucket i covers [2^i, 2^(i+1)) us,
    // with sub-microsecond samples landing in bucket 0.
    const double us = ms * 1000.0;
    int bucket = 0;
    if (us >= 1.0) {
        const auto whole = static_cast<uint64_t>(us);
        while ((uint64_t{1} << (bucket + 1)) <= whole &&
               bucket + 1 < kBuckets - 1)
            ++bucket;
    }
    ++buckets[static_cast<size_t>(bucket)];
}

void
DurationStats::merge(const DurationStats &other)
{
    if (other.count == 0)
        return;
    if (count == 0) {
        minMs = other.minMs;
        maxMs = other.maxMs;
    } else {
        minMs = std::min(minMs, other.minMs);
        maxMs = std::max(maxMs, other.maxMs);
    }
    count += other.count;
    sumMs += other.sumMs;
    for (int i = 0; i < kBuckets; ++i)
        buckets[static_cast<size_t>(i)] +=
            other.buckets[static_cast<size_t>(i)];
}

uint64_t
TelemetrySnapshot::counter(const std::string &name) const
{
    for (const auto &entry : counters) {
        if (entry.first == name)
            return entry.second;
    }
    return 0;
}

double
TelemetrySnapshot::gaugeValue(const std::string &name) const
{
    for (const auto &entry : gauges) {
        if (entry.first == name)
            return entry.second;
    }
    return 0.0;
}

namespace {

/** Fold @p part into the name-sorted series @p into; a name present on
 *  both sides combines through @p combine. */
template <typename T, typename Combine>
void
mergeSeries(std::vector<std::pair<std::string, T>> &into,
            const std::vector<std::pair<std::string, T>> &part,
            Combine combine)
{
    std::map<std::string, T> merged(into.begin(), into.end());
    for (const auto &[name, value] : part) {
        const auto [it, fresh] = merged.emplace(name, value);
        if (!fresh)
            combine(it->second, value);
    }
    into.assign(merged.begin(), merged.end());
}

} // namespace

void
TelemetrySnapshot::merge(const TelemetrySnapshot &other)
{
    mergeSeries(counters, other.counters,
                [](uint64_t &a, uint64_t b) { a += b; });
    mergeSeries(gauges, other.gauges,
                [](double &a, double b) { a = std::max(a, b); });
    mergeSeries(durations, other.durations,
                [](DurationStats &a, const DurationStats &b) { a.merge(b); });
}

TelemetrySnapshot
TelemetryShard::snapshot() const
{
    TelemetrySnapshot snap;
    snap.counters.assign(counters_.begin(), counters_.end());
    snap.gauges.assign(gauges_.begin(), gauges_.end());
    snap.durations.assign(durations_.begin(), durations_.end());
    return snap;
}

TelemetryShard *
TelemetryRegistry::makeShard()
{
    std::lock_guard<std::mutex> lock(mutex_);
    shards_.push_back(std::make_unique<TelemetryShard>());
    return shards_.back().get();
}

void
TelemetryRegistry::count(const std::string &name, uint64_t delta)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    root_.count(name, delta);
}

void
TelemetryRegistry::gauge(const std::string &name, double value)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    root_.gauge(name, value);
}

void
TelemetryRegistry::duration(const std::string &name, double ms)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    root_.duration(name, ms);
}

TelemetrySnapshot
TelemetryRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Canonical merge: root first, then shards in creation order.
    TelemetrySnapshot snap = root_.snapshot();
    for (const auto &shard : shards_)
        snap.merge(shard->snapshot());
    return snap;
}

} // namespace pes
