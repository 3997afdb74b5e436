/**
 * @file
 * The fleet runner: staged batch execution of many simulated sessions.
 *
 * run() is an explicit five-stage pipeline, each stage a building block
 * that tools can reason about independently:
 *
 *  1. plan    — enumerate the job cross-product, select this run's
 *               ranges (--shard k/N or coordinator leases), split them
 *               into execution units, and drop units already persisted
 *               in the result store (--resume).
 *  2. setup   — build the device contexts, train (or borrow) the PES
 *               event model, create the trace cache and preload the
 *               corpus.
 *  3. execute — run the planned ranges on a ThreadPool; workers reduce
 *               each session to SessionStats and hand it to the persist
 *               sink (with a store) or to an in-order streaming fold
 *               (without). Worker exceptions become run-level
 *               diagnostics, never process death.
 *  4. persist — checkpoint completed sessions into the attached
 *               ResultStore as .psum parts (every checkpointEvery
 *               sessions and at the end), so a killed sweep loses at
 *               most one checkpoint of work.
 *  5. reduce  — aggregate per-cell summaries. With a store attached the
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
 *    sequentially, reproducing the paper's warmed-device evaluation
 *    protocol (evaluationFleet). --shard k/N distributes the
 *    same units across machines.
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
#include "sim/metrics.hh"
#include "telemetry/run_telemetry.hh"

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

/**
 * Everything a finished fleet run produced. Traffic figures (cache,
 * store, corpus, pool, lock waits, memory) live in the armed
 * TelemetryRegistry, not here; the outcome keeps what the tools print
 * when telemetry is off.
 */
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
    /** Per-stage wall-clock (ms). Telemetry only — never serialized
     *  into reports. */
    double planMs = 0.0;
    double setupMs = 0.0;
    double executeMs = 0.0;
    double persistMs = 0.0;
    double reduceMs = 0.0;
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
     * Run the full pipeline (plan -> setup -> execute -> persist ->
     * reduce).
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
 * Run @p config to completion (e.g. an evaluationFleet), panicking on
 * the first worker diagnostic. The pool turns worker exceptions into
 * diagnostics so batch tools can report partial sweeps; figures,
 * examples and tests have no partial mode, and numbers from an
 * incomplete sweep must never look like results.
 */
FleetOutcome runComplete(FleetConfig config);

/**
 * Build the RunTelemetry summary of one finished run (tool = "run"):
 * the armed registry's snapshot, with the run's sessions and events
 * lifted into the header, plus the outcome's stage times. Under a
 * logical-clock trace sink the stage times and rates stay zero (see
 * telemetry/run_telemetry.hh).
 */
RunTelemetry makeRunTelemetry(const FleetConfig &config,
                              const FleetOutcome &outcome);

} // namespace pes

#endif // PES_RUNNER_FLEET_RUNNER_HH
