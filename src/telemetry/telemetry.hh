/**
 * @file
 * Structured runtime counters for the fleet platform.
 *
 * A TelemetryRegistry is a named collection of counters (monotone
 * uint64 sums), gauges (doubles merged by max — high-water marks), and
 * duration histograms (log2-bucketed microseconds with count/sum/
 * min/max). It is compiled in unconditionally and gated at runtime:
 * every call site branches on a bool (a null registry pointer or
 * enabled() == false) and the disabled path does no other work, so an
 * uninstrumented run pays one predictable branch per site.
 *
 * Thread model: hot paths record into per-worker TelemetryShard
 * objects (plain maps, no locks — one writer each); low-frequency
 * sites use the registry's own locked convenience calls, which land in
 * a root shard. snapshot() merges the root and every worker shard in
 * creation (shard-id) order and emits name-sorted series — the
 * canonical order. Counter and bucket merges are integer sums and
 * gauge merges are max, so a snapshot is deterministic for any worker
 * interleaving as long as each shard's content is deterministic.
 *
 * Telemetry NEVER feeds back into results: nothing in this module is
 * consulted by schedulers, the simulator, or reduction, so arming a
 * registry cannot change report bytes (locked by tests and CI).
 */

#ifndef PES_TELEMETRY_TELEMETRY_HH
#define PES_TELEMETRY_TELEMETRY_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pes {

/** Merged summary of one duration series (milliseconds). */
struct DurationStats
{
    /** log2 microsecond buckets: bucket i counts durations in
     *  [2^i, 2^(i+1)) us; bucket 0 also takes sub-microsecond. */
    static constexpr int kBuckets = 32;

    uint64_t count = 0;
    double sumMs = 0.0;
    double minMs = 0.0;
    double maxMs = 0.0;
    std::array<uint64_t, kBuckets> buckets{};

    /** Fold one duration sample in. */
    void record(double ms);
    /** Fold another accumulation in (counts sum, extrema widen). */
    void merge(const DurationStats &other);
    /** Mean duration (0 when empty). */
    double meanMs() const { return count ? sumMs / count : 0.0; }
};

/** Point-in-time merge of a registry: name-sorted series. */
struct TelemetrySnapshot
{
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, DurationStats>> durations;

    /** Counter value (0 when absent). */
    uint64_t counter(const std::string &name) const;
    /** Gauge value (0.0 when absent). */
    double gaugeValue(const std::string &name) const;

    /**
     * Fold @p other in: counters sum, gauges take the max, durations
     * merge; the series stay name-sorted. The one merge routine:
     * TelemetryRegistry::snapshot() folds its shards through it and
     * foldRunTelemetry() folds run summaries through it.
     */
    void merge(const TelemetrySnapshot &other);
};

/**
 * Unsynchronized accumulation area for one writer (a worker thread).
 * Obtain via TelemetryRegistry::makeShard(); the registry owns it.
 */
class TelemetryShard
{
  public:
    /** Add @p delta to counter @p name. */
    void count(const std::string &name, uint64_t delta = 1)
    {
        counters_[name] += delta;
    }

    /** Raise gauge @p name to @p value (gauges merge by max). */
    void gauge(const std::string &name, double value)
    {
        auto it = gauges_.find(name);
        if (it == gauges_.end())
            gauges_.emplace(name, value);
        else if (value > it->second)
            it->second = value;
    }

    /** Record one duration sample into histogram @p name. */
    void duration(const std::string &name, double ms)
    {
        durations_[name].record(ms);
    }

  private:
    friend class TelemetryRegistry;

    /** This shard's series, name-sorted. */
    TelemetrySnapshot snapshot() const;

    std::map<std::string, uint64_t> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, DurationStats> durations_;
};

/**
 * A named, runtime-gated collection of counters/gauges/histograms.
 */
class TelemetryRegistry
{
  public:
    TelemetryRegistry() = default;
    TelemetryRegistry(const TelemetryRegistry &) = delete;
    TelemetryRegistry &operator=(const TelemetryRegistry &) = delete;

    /** Arm or disarm the registry. Disabled registries ignore every
     *  recording call (the branch-on-a-bool contract). */
    void setEnabled(bool enabled)
    {
        enabled_.store(enabled, std::memory_order_relaxed);
    }

    /** Whether recording calls do anything. */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Allocate a shard for one writer thread. The registry owns the
     * shard; pointers stay valid for the registry's lifetime. Create
     * shards up front (e.g. one per worker index) so snapshot merge
     * order is deterministic.
     */
    TelemetryShard *makeShard();

    /** Locked convenience recorders (low-frequency call sites). */
    void count(const std::string &name, uint64_t delta = 1);
    void gauge(const std::string &name, double value);
    void duration(const std::string &name, double ms);

    /**
     * Merge the root shard and every makeShard() shard, in creation
     * order, into name-sorted series. Callable while writers are idle
     * (the fleet runner snapshots after its pool drains).
     */
    TelemetrySnapshot snapshot() const;

  private:
    std::atomic<bool> enabled_{true};
    mutable std::mutex mutex_;
    TelemetryShard root_;
    std::vector<std::unique_ptr<TelemetryShard>> shards_;
};

} // namespace pes

#endif // PES_TELEMETRY_TELEMETRY_HH
