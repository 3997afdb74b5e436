/**
 * @file
 * The fleet runner: staged batch execution of many simulated sessions.
 *
 * run() is an explicit four-stage pipeline, each stage a building block
 * that tools can reason about independently (a setup step between plan
 * and execute builds devices, the PES model and the trace cache):
 *
 *  1. plan    — enumerate the job cross-product, select this run's
 *               ranges (--shard k/N or coordinator leases), split them
 *               into execution units, and drop units already persisted
 *               in the result store (--resume).
 *  2. execute — run the planned ranges on a ThreadPool; workers reduce
 *               each session to SessionStats and hand it to the persist
 *               sink (with a store) or to an in-order streaming fold
 *               (without). Worker exceptions become run-level
 *               diagnostics, never process death.
 *  3. persist — checkpoint completed sessions into the attached
 *               ResultStore as .psum parts (every checkpointEvery
 *               sessions and at the end), so a killed sweep loses at
 *               most one checkpoint of work.
 *  4. reduce  — aggregate per-cell summaries. With a store attached the
 *               reduction reads back FROM the store, so whole, sharded,
 *               and killed-and-resumed runs all reduce through one path
 *               and their reports are byte-identical; without one, the
 *               streaming fold drains.
 *
 * Three properties make it the substrate for large-scale sweeps:
 *
 *  - Determinism: every session derives all randomness from its
 *    JobSpec::userSeed; aggregation replays sessions in canonical job
 *    order, so the outcome is bit-identical for any thread count, shard
 *    split, or resume boundary.
 *  - Sharding: fresh-driver fleets shard per job (maximum parallelism);
 *    warm-driver runs shard per (device, app, scheduler) cell so a
 *    driver's cross-session state (EBS/PES measurement history) replays
 *    sequentially, reproducing the classic Experiment::runSweep
 *    protocol. --shard k/N distributes the same units across machines.
 *  - Isolation: each worker keeps its own trace-generator caches;
 *    shared state (platform, power table, trained event model, the
 *    LRU-bounded trace cache) is immutable or internally synchronized.
 */

#ifndef PES_RUNNER_FLEET_RUNNER_HH
#define PES_RUNNER_FLEET_RUNNER_HH

#include <string>
#include <vector>

#include "runner/fleet_config.hh"
#include "runner/metrics_aggregator.hh"
#include "runner/thread_pool.hh"
#include "sim/metrics.hh"
#include "telemetry/run_telemetry.hh"
#include "util/contention.hh"

namespace pes {

/** Output of the planning stage: what this run will actually execute. */
struct FleetPlan
{
    /** Job ranges this run executes, in canonical order. */
    std::vector<JobRange> ranges;
    /** Sessions in the whole sweep (all shards). */
    int totalJobs = 0;
    /** Sessions this run will execute. */
    int plannedJobs = 0;
    /** Sessions excluded by the shard selector. */
    int shardSkipped = 0;
    /** Sessions skipped because the store already holds them. */
    int resumeSkipped = 0;
};

/** Everything a finished fleet run produced. */
struct FleetOutcome
{
    /** Per-cell aggregation — from the result store when one is
     *  attached, from memory otherwise. */
    MetricsAggregator metrics;
    /** Full per-session results in job order (FleetConfig::collectResults).
     *  Covers only sessions executed by THIS run (not resumed ones). */
    ResultSet results;
    /** Number of sessions executed by this run. */
    int jobCount = 0;
    /** The plan this run executed. */
    FleetPlan plan;
    /** Wall-clock of the parallel phase (ms). Never serialized. */
    double wallMs = 0.0;
    /** Per-stage wall-clock (ms); wallMs is the execute stage.
     *  Telemetry only — never serialized into reports. */
    double planMs = 0.0;
    double persistMs = 0.0;
    double reduceMs = 0.0;
    /** Worker-pool saturation of the execute stage (busy/idle wall
     *  time only when telemetry was armed). */
    ThreadPoolStats poolStats;
    /** Bytes written by checkpoint flushes (telemetry only). */
    uint64_t checkpointBytes = 0;
    /**
     * Run-level problems: worker exceptions, persistence failures,
     * store anomalies found at reduction. Empty on a clean run — tools
     * treat non-empty as a failed run (non-zero exit) while still
     * reporting whatever completed.
     */
    std::vector<std::string> diagnostics;
    /** Sessions persisted to the store by this run. */
    uint64_t persistedRecords = 0;
    /** Checkpoint flushes performed (parts written). */
    uint64_t checkpointFlushes = 0;
    /** Trace-cache traffic of the run (0/0 when sharing was off).
     *  Diagnostics only — never serialized into reports. */
    uint64_t traceCacheHits = 0;
    uint64_t traceCacheMisses = 0;
    uint64_t traceCacheEvictions = 0;
    /** Materializations discarded to the first-insert-wins race (the
     *  "97th miss": wasted synthesis that only exists under contention). */
    uint64_t traceCacheDuplicateSynthesis = 0;
    /** Contended acquisitions of the TraceCache mutex. */
    LockContention traceCacheContention;
    /** Contended acquisitions of the PersistSink push lock. */
    LockContention persistContention;
    /** Corpus loads performed (preload, plus on-demand reloads when
     *  the trace cache is capped). Corpus replay only. */
    uint64_t tracesFromCorpus = 0;
};

/**
 * Executes one FleetConfig.
 */
class FleetRunner
{
  public:
    explicit FleetRunner(FleetConfig config);

    /** The (validated) configuration. */
    const FleetConfig &config() const { return config_; }

    /** The enumerated jobs of the WHOLE sweep, in canonical order. */
    const std::vector<JobSpec> &jobs() const { return jobs_; }

    /**
     * Stage 1 alone: what would this run execute? Consults the result
     * store when resuming (reads its manifest and parts). Also the
     * dry-run entry point for tools that report shard membership.
     */
    FleetPlan plan() const;

    /**
     * Run the full pipeline (plan -> execute -> persist -> reduce).
     * Trains the PES event model per device first when needed (or
     * borrows config.pretrainedModel). Reentrant: each call re-plans
     * and re-executes.
     */
    FleetOutcome run();

  private:
    FleetConfig config_;
    std::vector<JobSpec> jobs_;
};

/**
 * Build the RunTelemetry summary of one finished run (tool = "run"):
 * counters snapshot from the armed registry, stage times and traffic
 * from the outcome. Under a logical-clock trace sink all wall-derived
 * fields are zeroed (see telemetry/run_telemetry.hh).
 */
RunTelemetry makeRunTelemetry(const FleetConfig &config,
                              const FleetOutcome &outcome);

} // namespace pes

#endif // PES_RUNNER_FLEET_RUNNER_HH
