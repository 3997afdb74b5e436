/**
 * @file
 * Fleet sweep description and deterministic job enumeration.
 *
 * A fleet run is the cross-product of scheduler drivers, application
 * profiles, device (ACMP) models, and simulated users. Each element of
 * that product is one JobSpec: a single user session replayed under one
 * scheduler on one device. Job enumeration is deterministic and
 * thread-count independent — the JobSpec::index is the canonical ordering
 * key, and every per-session random stream derives from the job's
 * userSeed through util/rng hashing (no ad-hoc arithmetic seeding), so a
 * fleet is reproducible bit-for-bit regardless of how many workers
 * execute it.
 */

#ifndef PES_RUNNER_FLEET_CONFIG_HH
#define PES_RUNNER_FLEET_CONFIG_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/scheduler_kind.hh"
#include "hw/acmp.hh"
#include "trace/app_profile.hh"
#include "trace/generator.hh"
#include "trace/trace.hh"
#include "util/flags.hh"

namespace pes {

class CorpusStore;
class DeviceContext;
class LogisticModel;
struct PopulationSpec;
class ResultStore;
class TelemetryRegistry;
class TraceEventSink;

/** A contiguous range of jobs executed in order by one worker. */
struct JobRange
{
    int first = 0;
    int count = 0;
};

/** One simulated user session of a fleet sweep. */
struct JobSpec
{
    /** Dense id; also the canonical (thread-independent) ordering key. */
    int index = 0;
    /** Index into FleetConfig::devices. */
    int deviceIndex = 0;
    /** Index into FleetConfig::apps. */
    int appIndex = 0;
    /** Index into FleetConfig::schedulers. */
    int schedulerIndex = 0;
    /** User shard [0, users). */
    int userIndex = 0;
    /** Trace-generation seed of this user (derived, deterministic). */
    uint64_t userSeed = 0;
};

/** Which user population a fleet draws its traces from. */
enum class SeedMode
{
    /**
     * Fresh fleet users: shard seeds are hashed from
     * FleetConfig::baseSeed via util/rng (hashCombine), disjoint from
     * the training and evaluation populations.
     */
    Fleet = 0,
    /**
     * The paper's evaluation population (Sec. 6.1): user @c i maps to
     * TraceGenerator::kEvaluationSeedBase + i, reproducing the paper's
     * evaluation protocol exactly (evaluationFleet).
     */
    Evaluation,
};

/**
 * Description of one fleet sweep.
 */
struct FleetConfig
{
    /** Default base seed of the fleet user population. */
    static constexpr uint64_t kDefaultBaseSeed = 0xf1ee7u;

    /** Device models to sweep (empty = the paper's Exynos 5410). */
    std::vector<AcmpPlatform> devices;
    /** Application profiles to sweep. */
    std::vector<AppProfile> apps;
    /** Scheduler drivers to sweep. */
    std::vector<SchedulerKind> schedulers;
    /** Simulated users per (device, app, scheduler) cell. */
    int users = 1;
    /** Worker threads (>= 1). Never affects results, only wall-clock. */
    int threads = 1;
    /** Base seed of the fleet population (SeedMode::Fleet). */
    uint64_t baseSeed = kDefaultBaseSeed;
    /** User population. */
    SeedMode seedMode = SeedMode::Fleet;
    /**
     * Explicit per-user trace seeds. When non-empty this overrides both
     * @c users and @c seedMode: the user axis is exactly this list (in
     * order). Corpus replay uses it to sweep the recorded population.
     */
    std::vector<uint64_t> userSeeds;
    /**
     * Keep one driver per (device, app, scheduler) cell, replaying the
     * cell's sessions in user order on a single worker ("warmed device":
     * EBS/PES carry their Eqn.-1 measurement history across sessions,
     * exactly like the paper's evaluation protocol). When false every
     * session gets a fresh driver — the independent-users fleet model —
     * and all sessions parallelize freely.
     */
    bool warmDrivers = false;
    /** Also retain every full SimResult (ResultSet) next to the
     *  aggregated metrics. Costs memory on big fleets. */
    bool collectResults = false;
    /** Training sessions per seen app for the PES event model. */
    int trainingTracesPerApp = TraceGenerator::kTrainingTracesPerApp;
    /**
     * Optional pre-trained event model (borrowed, not owned). Used only
     * for single-device fleets whose device name equals
     * pretrainedModelDevice (the model's training platform); otherwise
     * the runner trains per device.
     */
    const LogisticModel *pretrainedModel = nullptr;
    /** Platform name the pretrained model was trained on. */
    std::string pretrainedModelDevice;
    /**
     * Auto-sharing bound. The runner shares each (device, app, user)
     * trace across the scheduler axis through an in-process TraceCache
     * (synthesize once, replay many) when that pays — more than one
     * scheduler replays each trace — and the devices x apps x users
     * resident set is at most this many traces (0 = unlimited; ~32k
     * traces is a few hundred MB at typical session sizes). Past the
     * bound, giant fresh fleets fall back to bounded per-job synthesis
     * instead of accumulating millions of traces; 1 forces per-job
     * synthesis. Reports are bit-identical either way — synthesis is
     * deterministic. Warm and corpus runs always share.
     */
    long long maxSharedTraces = 32768;
    /**
     * Optional recorded corpus (borrowed, not owned): traces replay
     * from disk instead of being synthesized. Every (device, app, user
     * seed) of the cross-product must exist in the corpus — missing
     * entries are a fatal configuration error, reported before any job
     * runs. Implies trace sharing.
     */
    const CorpusStore *corpus = nullptr;
    /**
     * Hard LRU bound on the run's trace cache: at most this
     * many resident traces (0 = unbounded). Unlike maxSharedTraces —
     * which switches auto-sharing off entirely past the bound — a cap
     * keeps sharing on and evicts least-recently-replayed traces, so
     * giant fresh fleets get bounded memory AND cache hits. Eviction
     * never changes report bytes: an evicted trace re-materializes
     * deterministically on the next miss.
     */
    size_t traceCacheCap = 0;
    /**
     * Shard selector: execute only the jobs of shard shardIndex out of
     * shardCount (0-based; 1 = the whole sweep). Fresh fleets shard per
     * job, warm fleets per (device, app, scheduler) cell so a warmed
     * driver's session order never splits. Launch the same config with
     * --shard k/N on N machines, each writing its own result store,
     * then `pes_fleet merge` — the merged reports are byte-identical to
     * a single whole run.
     */
    int shardIndex = 0;
    int shardCount = 1;
    /**
     * External job ranges (coordinator leases): when non-empty the
     * planner executes exactly these canonical-order ranges instead of
     * consulting the shard selector — the range boundary comes from a
     * lease handed out at runtime, not from a static k-of-N split.
     * Requires the default 1-of-1 shard and no resume; warm-driver
     * sweeps additionally require cell-aligned ranges so a warmed
     * driver's session order never splits.
     */
    std::vector<JobRange> externalRanges;
    /**
     * Part-label override for persisted checkpoints (empty = the
     * default "s<shardIndex>"). Coordinator workers label parts with
     * their worker id and lease epoch, so concurrent writers into one
     * store never contend for a label's sequence numbers.
     */
    std::string persistLabel;
    /**
     * Optional persistent result store (borrowed, not owned). When set,
     * every completed session's SessionStats is checkpointed into the
     * store as the run progresses, and the final reduction is performed
     * FROM the store — so whole runs, sharded runs and resumed runs all
     * reduce through one code path with byte-identical reports.
     */
    ResultStore *resultStore = nullptr;
    /**
     * Skip jobs whose records already sit in resultStore (requires it).
     * Warm cells resume all-or-nothing: a partially persisted cell
     * re-runs from its first session so the driver's cross-session
     * state replays identically; its duplicate records deduplicate at
     * reduction (deterministic re-runs are bit-identical).
     */
    bool resume = false;
    /**
     * Sessions buffered between checkpoint flushes to resultStore
     * (<= 0 means flush only at the end of the run). Each flush appends
     * one .psum part and atomically re-saves the manifest, bounding how
     * much work a kill can lose.
     */
    int checkpointEvery = 1024;
    /**
     * Scenario identity of this sweep ("<family>@<severity>" for
     * stress sweeps, empty for the baseline). Carried into the sweep
     * spec, store manifest and report meta, so stores never mix and
     * `pes_fleet diff` never compares runs of different scenarios —
     * the derived traces describe a different user population.
     */
    std::string scenario;
    /**
     * Optional mixture-model population (borrowed, not owned; see
     * population/population_spec.hh). When set, the fleet's user axis
     * is drawn from the spec's cohorts instead of the homogeneous
     * i.i.d. population: user seeds derive from the population digest
     * (populationUserSeed), per-user trait multipliers scale the
     * sampled UserParams, and cohort scenarios derive each user's
     * trace. populationTag/populationDigest MUST be the spec's
     * populationTag/populationDigest — the tag joins the sweep spec,
     * store manifest and report meta (stores refuse to mix
     * populations, exactly like scenarios), and the digest alone
     * lets reduction re-verify record seeds without the spec.
     */
    const PopulationSpec *population = nullptr;
    /** Population identity ("<name>#<digest>"; empty = homogeneous). */
    std::string populationTag;
    /** Population digest (0 = homogeneous population). */
    uint64_t populationDigest = 0;
    /**
     * Optional deterministic trace transform (scenario derivation):
     * applied to every trace after synthesis or corpus load, INSIDE
     * the trace cache's loader, so evicted entries re-materialize the
     * transformed trace byte-identically. MUST be a pure function of
     * the input trace — any hidden state would break the bit-exact
     * reports guarantee across thread counts, shards, and resume.
     * The cross-product keys (device, app, job userSeed) are
     * untouched; only the replayed events change.
     */
    std::function<InteractionTrace(const InteractionTrace &)>
        traceTransform;
    /**
     * Optional telemetry registry (borrowed, not owned). When armed,
     * the runner records every figure of the run into it —
     * sessions/events, per-job durations, cache/store/corpus/pool
     * traffic, lock waits, peak RSS — through per-worker shards merged
     * canonically; it is their only home. Telemetry NEVER feeds back
     * into simulation or reduction: reports stay byte-identical with
     * it on or off, at any thread count (locked by tests and CI).
     */
    TelemetryRegistry *telemetry = nullptr;
    /**
     * Optional Chrome trace-event sink (borrowed, not owned): the
     * runner emits spans for its plan/setup/execute/persist/reduce
     * stages, per-job execute spans on per-worker lanes, and instant
     * events for checkpoint flushes and trace-cache evictions. Same
     * no-feedback contract as telemetry.
     */
    TraceEventSink *traceSink = nullptr;
    /**
     * Emit a throttled progress line to stderr as jobs complete
     * (completed/planned sessions and a running sessions/sec).
     * Deliberately independent of the log level: --progress is an
     * explicit operator request, not chatter.
     */
    bool progress = false;

    /** The user-axis length (userSeeds list or @c users). */
    int effectiveUsers() const;
    /** Sessions per cell times cells. */
    int jobCount() const;
    /** Number of (device, app, scheduler) cells. */
    int cellCount() const;
};

/**
 * Trace seed of user @p user_index under @p config (see SeedMode).
 */
uint64_t fleetUserSeed(const FleetConfig &config, int user_index);

/**
 * Enumerate the full cross-product in canonical order: device, then app,
 * then scheduler, then user. Sessions of one cell are contiguous (the
 * shard unit of warm-driver runs).
 */
std::vector<JobSpec> enumerateJobs(const FleetConfig &config);

/**
 * The paper's evaluation protocol (Sec. 6.1) as a fleet on @p device:
 * every app's TraceGenerator::kEvalTracesPerApp evaluation users,
 * replayed in order on one warmed driver per (app, scheduler) cell, with
 * every SimResult retained (collectResults), on defaultSweepThreads()
 * workers. Results are identical for any thread count. When a scheduler
 * is PES the fleet borrows @p device's model(), so @p device must
 * outlive the run.
 */
FleetConfig evaluationFleet(DeviceContext &device,
                            std::vector<AppProfile> apps,
                            std::vector<SchedulerKind> schedulers);

// ------------- axis parsing (the tools' flags, tests, benches) -------------

/**
 * Parse a comma-separated scheduler list ("pes,ebs,interactive");
 * panics via fatal() on unknown names.
 */
std::vector<SchedulerKind> parseSchedulerList(const std::string &spec);

/**
 * Parse a comma-separated application list. Accepts registry names
 * ("cnn"), extra profiles ("social_feed"), and the group aliases
 * "seen", "unseen", "all" (the 18 paper apps), and "extra".
 */
std::vector<AppProfile> parseAppList(const std::string &spec);

/**
 * Parse a comma-separated device list: "exynos5410" and "tegra-parker".
 */
std::vector<AcmpPlatform> parseDeviceList(const std::string &spec);

/**
 * The sweep-shape flags, declared once for every verb that builds a
 * FleetConfig from its command line (pes_fleet run and stress,
 * pes_coordinator init, pes_corpus record and replay). Installs the
 * command-line defaults into @p config — pes,ebs over
 * cnn,amazon,social_feed, 100 users per cell, one worker per hardware
 * thread — and returns the flags named in @p names (every sweep flag
 * when empty), in that order. The flags write into @p config, which
 * must outlive the parse.
 */
Flags sweepFlags(FleetConfig &config,
                 const std::vector<std::string> &names = {});

/** Default worker count of sweeps: the hardware concurrency (>= 1). */
int defaultSweepThreads();

/**
 * Resolve a `--population=SPEC` reference (a built-in name or a .json
 * spec file; empty = none) into @p config. The spec lands in @p holder,
 * which must outlive every use of @p config (the config only borrows
 * it). Returns 0, or prints the problems and returns their exit code
 * (3 missing spec file, 4 malformed spec); fatal() when @p config
 * already draws the evaluation seeds.
 */
int applyPopulation(const std::string &ref,
                    std::optional<PopulationSpec> &holder,
                    FleetConfig &config);

/** One row of the device registry: the model plus its CLI spellings. */
struct DeviceInfo
{
    AcmpPlatform platform;
    /** Canonical CLI name ("exynos5410"). */
    std::string cliName;
    /** Accepted alternative spellings. */
    std::vector<std::string> aliases;
};

/**
 * Every device model the fleet knows. The single source of truth
 * behind parseDeviceList and `pes_fleet --list-devices` — adding a
 * platform here updates parsing and discovery together.
 */
const std::vector<DeviceInfo> &deviceRegistry();

/** Look up a device by its platform name (e.g. "Exynos 5410"); nullopt
 *  when no known device matches (corpus manifests store this name). */
std::optional<AcmpPlatform> deviceByPlatformName(const std::string &name);

} // namespace pes

#endif // PES_RUNNER_FLEET_CONFIG_HH
