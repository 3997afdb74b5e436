/**
 * @file
 * RunTelemetry: the versioned JSON summary of one instrumented run.
 *
 * Where a FleetReport is the deterministic WHAT of a sweep (metric
 * values, byte-identical for any thread count), RunTelemetry is the
 * HOW FAST. It is a header — tool, scenario, logical clock, threads,
 * sessions, events, the rates and the per-stage wall time of the
 * runner's plan→setup→execute→persist→reduce pipeline — plus the
 * snapshot of the armed TelemetryRegistry. The snapshot is the only
 * place a run's traffic lives: cache, store, corpus, pool, lock-wait
 * and memory figures are registry series, each stated once.
 *
 * Series kinds follow one rule: counters sum (counts, and wall totals
 * in integer microseconds such as pool.busy_us or cache.lock_wait_us);
 * gauges take the max (high-water marks such as mem.peak_rss_kb or
 * pool.max_queue_depth); durations are histograms.
 *
 * Determinism contract: telemetry artifacts are explicitly EXEMPT from
 * the byte-identity guarantee — they carry wall-clock values — EXCEPT
 * under the logical clock, where the rates and stage times are zeroed
 * and the runner records no wall-clock or scheduling-dependent series
 * at all, so a single-threaded logical-clock run is byte-reproducible.
 * The flag is recorded in the artifact ("logical_clock") so consumers
 * can tell structural summaries from timed ones.
 *
 * The schema is versioned ("telemetry_version"); parseRunTelemetry
 * rejects documents of a different version rather than guessing.
 */

#ifndef PES_TELEMETRY_RUN_TELEMETRY_HH
#define PES_TELEMETRY_RUN_TELEMETRY_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "telemetry/telemetry.hh"

namespace pes {

/** Serializable performance summary of one run. */
struct RunTelemetry
{
    /** Schema version (bumped on layout changes; v5 = the header,
     *  stage_ms and the registry snapshot, nothing else). */
    static constexpr int kVersion = 5;

    // ---- header ----

    /** Producing verb: "run", "stress", "merge", "work",
     *  "coordinator". */
    std::string tool = "run";
    /** Scenario identity ("<family>@<severity>"; empty = baseline). */
    std::string scenario;
    /** Logical-clock run: wall-derived fields are zeroed (see above). */
    bool logicalClock = false;
    int threads = 0;

    uint64_t sessions = 0;
    uint64_t events = 0;
    double sessionsPerSec = 0.0;
    double eventsPerSec = 0.0;

    /** Per-stage wall time of the runner pipeline (ms, "stage_ms"). */
    double planMs = 0.0;
    double setupMs = 0.0;
    double executeMs = 0.0;
    double persistMs = 0.0;
    double reduceMs = 0.0;
    /** Whole-pipeline wall time (ms): the sum of the stages. */
    double totalMs = 0.0;

    /** The registry snapshot (name-sorted; may be empty). Assign it
     *  through setSnapshot() so the typed view below follows. */
    TelemetrySnapshot snapshot;

    // ---- typed view of `snapshot` ----
    // Filled by setSnapshot() from the series named beside each field;
    // never serialized on its own.

    double poolBusyMs = 0.0;               ///< pool.busy_us / 1000
    double poolIdleMs = 0.0;               ///< pool.idle_us / 1000
    uint64_t cacheHits = 0;                ///< cache.hits
    uint64_t cacheMisses = 0;              ///< cache.misses
    uint64_t cacheDuplicateSynthesis = 0;  ///< cache.duplicate_synthesis
    uint64_t cacheLockWaits = 0;           ///< cache.lock_waits
    uint64_t persistLockWaits = 0;         ///< store.push_lock_waits
    uint64_t checkpointFlushes = 0;        ///< store.checkpoint_flushes
    uint64_t checkpointBytes = 0;          ///< store.checkpoint_bytes

    /** Adopt @p snap as the run's snapshot and refresh the typed view. */
    void setSnapshot(TelemetrySnapshot snap);

    /** Recompute sessionsPerSec/eventsPerSec from totals (0 guard). */
    void recomputeRates();
};

/** Write @p t as a deterministic-key-order JSON object. */
void writeRunTelemetryJson(const RunTelemetry &t, std::ostream &os);

/** Serialize to a string. */
std::string runTelemetryToString(const RunTelemetry &t);

/**
 * Parse a document produced by writeRunTelemetryJson; nullopt on
 * malformed input or a telemetry_version mismatch.
 */
std::optional<RunTelemetry> parseRunTelemetry(const std::string &text);

/**
 * Fold @p part into @p into (the stress grid and work-loop rollups):
 * sessions, events and stage times sum, the snapshots merge through
 * TelemetrySnapshot::merge (the registry's own merge), and the rates
 * recompute from the folded totals. tool/threads/logicalClock are
 * taken from @p part when @p into is empty (zero sessions and events).
 */
void foldRunTelemetry(RunTelemetry &into, const RunTelemetry &part);

/**
 * The process's peak resident set size in KiB (VmHWM from
 * /proc/self/status); 0 when unavailable. Successive reads are not
 * monotone: the kernel derives the figure partly from approximate,
 * batched RSS counters, so a later read can come out lower than an
 * earlier one. Callers sample it at stage boundaries and keep the max
 * (the runner's mem.peak_rss_kb gauge).
 */
uint64_t currentPeakRssKb();

} // namespace pes

#endif // PES_TELEMETRY_RUN_TELEMETRY_HH
